from dataclasses import fields
from fractions import Fraction

import pytest

from buckdens import generators as gen
from buckdens import kneser as kn
from buckdens import periodic as per
from buckdens.density import to_json
from buckdens.zmod import ResidueSet


class TestAnalyzeSumset:
    def test_odds_doubled(self):
        report = kn.analyze_sumset([gen.gen_b_alpha("1")], q_max=64)
        assert report.minimal and report.q == 2
        assert report.multiplicities == (1, 1)
        assert report.sum_size == 1
        assert report.density_identity_holds and report.density_identity_certified
        assert report.sigma == 1 and report.sigma_certified
        assert report.eta == Fraction(1, 2)
        assert report.q_bound_ok
        assert report.mean_gap_ok
        assert all(row.passed for row in report.sparse_periodicity)
        assert report.periodic_hulls[0] == per.from_progressions([(1, 2)])

    def test_quarter_class_doubled(self):
        report = kn.analyze_sumset([gen.gen_b_alpha("01")], q_max=64)
        assert report.q == 4
        assert report.sumset_profile.members == (0,)
        assert report.multiplicities == (1, 1)

    def test_naturals_trivial(self):
        report = kn.analyze_sumset([gen.from_periodic(per.naturals())], q_max=32)
        assert not report.minimal
        assert report.q is None and report.sumset_profile is None

    def test_x0_no_structure(self):
        report = kn.analyze_sumset([gen.gen_x0()], q_max=32)
        assert not report.minimal

    def test_two_distinct_summands(self):
        a = gen.gen_b_alpha("1")  # odds
        b = gen.gen_b_alpha("01")  # 2 + 4N
        report = kn.analyze_sumset([a, b], q_max=64)
        # odds + (2 + 4N) covers all odd numbers from 3 on: one class mod 2
        assert report.q == 2
        assert report.sumset_profile.members == (1,)
        assert report.multiplicities == (1, 1)
        assert report.density_identity_holds and report.density_identity_certified

    def test_auto_q_max_from_estimates(self):
        report = kn.analyze_sumset([gen.gen_b_alpha("1")])  # q_max derived
        assert report.q == 2 and report.minimal

    def test_sampled_weyl_reports_no_structure(self):
        w = gen.gen_weyl("sqrt2", Fraction(3, 10))
        report = kn.analyze_sumset([w, w], q_max=16, horizon=1 << 12)
        assert not report.minimal

    def test_three_summands(self):
        odds = gen.gen_b_alpha("1")
        report = kn.analyze_sumset([odds, odds, odds], q_max=32)
        # odds + odds + odds covers the odd numbers from 3 on
        assert report.k == 3
        assert report.q == 2
        assert report.multiplicities == (1, 1, 1)
        assert report.sumset_profile.members == (1,)
        assert report.density_identity_holds and report.density_identity_certified

    def test_report_json_shape(self):
        payload = kn.analyze_sumset([gen.gen_b_alpha("1")], q_max=16).to_json_dict()
        assert payload["q"] == 2 and payload["minimal"] is True
        assert payload["eta"] == {"num": 1, "den": 2}
        assert payload["classification"]["tag"]
        assert isinstance(payload["sparse_periodicity"], list)

    def test_requires_a_summand(self):
        with pytest.raises(ValueError):
            kn.analyze_sumset([])


class TestSparsePeriodicity:
    def test_doubled_odds(self):
        doubled = gen.sumset_description([gen.gen_b_alpha("1")] * 2)
        rows = kn.verify_sparse_periodicity(doubled, q=2, m_max=2)
        assert all(r.passed and r.certified for r in rows)

    def test_x0_doubled_fails_at_base_modulus_one(self):
        doubled = gen.sumset_description([gen.gen_x0()] * 2)
        rows = kn.verify_sparse_periodicity(doubled, q=1, m_max=4)
        by_m = {r.m: r for r in rows}
        assert by_m[1].passed and by_m[2].passed
        assert not by_m[4].passed
        assert 3 in by_m[4].missing

    def test_full_class_superset(self):
        desc = gen.from_periodic(per.from_progressions([(0, 3)]))
        rows = kn.verify_sparse_periodicity(desc, q=3, m_max=5)
        assert all(r.passed for r in rows)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            kn.verify_sparse_periodicity(gen.gen_x0(), 0, 3)


class TestMaxDensityCondition:
    def test_odds_inside_their_hull(self):
        odds = gen.gen_b_alpha("1")
        hull = per.from_progressions([(1, 2)])
        rows, ok = kn.verify_max_density_condition(odds, hull, m_max=3, horizon=4096)
        assert ok and all(r.passed for r in rows)

    def test_thin_subset_misses_a_refinement(self):
        thin = gen.from_periodic(
            per.union(per.from_finite([1]), per.from_progressions([(3, 4)]))
        )
        hull = per.from_progressions([(1, 2)])
        rows, ok = kn.verify_max_density_condition(thin, hull, m_max=2, horizon=4096)
        assert not ok
        misses = [(r.m, r.tail_residue, r.subclass) for r in rows if not r.passed]
        assert (2, 1, 0) in misses  # the class 1 + 4N holds only the prefix element 1

    def test_not_a_subset(self):
        evens = gen.gen_b_alpha("01")
        hull = per.from_progressions([(1, 2)])
        with pytest.raises(ValueError, match="not contained"):
            kn.verify_max_density_condition(evens, hull, m_max=2, horizon=256)

    def test_set_inside_itself(self):
        hull = per.from_progressions([(1, 2)])
        rows, ok = kn.verify_max_density_condition(
            gen.from_periodic(hull), hull, m_max=4, horizon=4096
        )
        assert ok


class TestRuzsa:
    def test_examples(self):
        check = kn.ruzsa_inequality_check(ResidueSet.of(5, [0]), ResidueSet.of(5, [0, 1]))
        assert (check.lhs, check.rhs, check.holds) == (3, 4, True)
        check = kn.ruzsa_inequality_check(ResidueSet.of(6, [0, 3]), ResidueSet.of(6, [0, 3]))
        assert (check.lhs, check.rhs, check.holds) == (4, 4, True)
        check = kn.ruzsa_inequality_check(ResidueSet.of(9, [4]), ResidueSet.of(9, [4]))
        assert (check.lhs, check.rhs, check.holds) == (1, 1, True)

    def test_subset_required(self):
        with pytest.raises(ValueError, match="subset"):
            kn.ruzsa_inequality_check(ResidueSet.of(5, [2]), ResidueSet.of(5, [0, 1]))

    def test_nonempty_required(self):
        with pytest.raises(ValueError):
            kn.ruzsa_inequality_check(ResidueSet(5, 0), ResidueSet.of(5, [0, 1]))


class TestBuckInequality:
    def test_odds_equality(self):
        report = kn.buck_inequality_report(per.from_progressions([(1, 2)]))
        assert report.margin == 0 and report.consistent

    def test_two_classes(self):
        report = kn.buck_inequality_report(per.from_progressions([(0, 4), (1, 4)]))
        assert report.margin == Fraction(9, 16) - Fraction(3, 8)
        assert report.consistent

    def test_naturals(self):
        report = kn.buck_inequality_report(per.naturals())
        assert report.margin == 0 and report.consistent

    def test_sampled_consistency(self):
        report = kn.buck_inequality_report(gen.gen_x0(), horizon=1 << 12)
        assert report.consistent and report.margin is None


class TestMembersListedOnce:
    """A report lists each sampled description once, however many reads it makes."""

    def test_analyze_doubled_weyl(self, enumerated):
        kn.analyze_sumset([gen.gen_weyl("sqrt2", "3/10")], horizon=20000)
        assert sorted(enumerated) == ["sumset", "weyl"]

    def test_buck_inequality_report(self, enumerated):
        kn.buck_inequality_report(gen.gen_weyl("sqrt2", "3/10"), horizon=20000)
        assert sorted(enumerated) == ["sumset", "weyl"]


class TestDoubledSummandReadOnce:
    def test_one_attained_residues_call_per_q(self, monkeypatch):
        calls = []
        attained_residues = kn.attained_residues

        def spy(desc, q, horizon):
            calls.append(q)
            return attained_residues(desc, q, horizon)

        monkeypatch.setattr(kn, "attained_residues", spy)
        report = kn.analyze_sumset([gen.gen_b_alpha("11")], q_max=64)
        assert not report.minimal and report.sigma == Fraction(3, 2)
        assert calls == list(range(2, 65))

    def test_sampled_sumset_profiles_each_part_once(self, monkeypatch):
        calls = []
        profile = gen.SetDescription.profile

        def spy(self, m):
            calls.append((self.family, m))
            return profile(self, m)

        x0 = gen.gen_x0()
        doubled = gen.sumset_description([x0, x0])
        monkeypatch.setattr(gen.SetDescription, "profile", spy)
        assert doubled.profile(16).attained.cardinality == 9
        assert sorted(calls) == [("sumset", 16), ("x0", 16)]


class TestDeficientPeriodicPairs:
    def test_identity_holds_for_random_deficient_pairs(self):
        # whenever two periodic sets have a genuinely deficient sumset,
        # a modulus with the exact density identity must exist
        import random

        rng = random.Random(99)
        found = 0
        for _ in range(200):
            q1, q2 = rng.randint(2, 8), rng.randint(2, 8)
            r1 = sorted(rng.sample(range(q1), rng.randint(1, max(1, q1 // 2))))
            r2 = sorted(rng.sample(range(q2), rng.randint(1, max(1, q2 // 2))))
            a = per.from_residues(q1, r1)
            b = per.from_residues(q2, r2)
            total = per.add(a, b)
            deficient = total.natural_density() < a.natural_density() + b.natural_density()
            if not deficient or total.natural_density() == 1:
                continue
            found += 1
            report = kn.analyze_sumset(
                [gen.from_periodic(a), gen.from_periodic(b)], q_max=4 * q1 * q2
            )
            assert report.minimal, (r1, q1, r2, q2)
            assert report.density_identity_holds and report.density_identity_certified
            assert Fraction(report.sum_size, report.q) == total.natural_density()
        assert found > 20  # the sample must actually exercise the property


class TestCofiniteRefinements:
    def test_periodic_summands(self):
        odds = per.from_progressions([(1, 2)])
        assert kn.verify_cofinite_refinements([odds, odds], q=2, m_max=4)
        a = per.from_progressions([(0, 3)])
        b = per.from_progressions([(1, 3)])
        assert kn.verify_cofinite_refinements([a, b], q=3, m_max=3)


class TestReportEncoding:
    def test_to_json_values(self):
        odds = per.from_progressions([(1, 2)])
        assert to_json(Fraction(3, 6)) == {"num": 1, "den": 2}
        assert to_json(ResidueSet.of(5, [4, 1])) == {"modulus": 5, "members": [1, 4]}
        assert to_json((Fraction(2), [None, True, "x"], {"a": 1})) == [
            {"num": 2, "den": 1}, [None, True, "x"], {"a": 1}
        ]
        assert to_json(odds) == odds.to_json_dict()

    def test_kneser_report_keys_are_its_fields(self):
        found = kn.analyze_sumset([gen.gen_b_alpha("0011")])
        missing = kn.analyze_sumset([gen.gen_x0()], q_max=32)
        assert found.minimal and not missing.minimal
        names = [f.name for f in fields(kn.KneserReport)]
        for report in (found, missing):
            assert list(report.to_json_dict()) == names
        assert missing == kn.KneserReport(2, missing.sigma, missing.sigma_certified)
        payload = found.to_json_dict()
        assert payload["summand_profiles"][0] == {"modulus": 4, "members": [0]}  # 4 + 8N, 8 + 16N
        assert payload["sparse_periodicity"][0] == found.sparse_periodicity[0].to_json_dict()

    def test_buck_inequality_margin_only_when_set(self):
        exact = kn.buck_inequality_report(gen.gen_b_alpha("1"))
        sampled = kn.buck_inequality_report(gen.gen_hook(), horizon=4096)
        assert exact.margin is not None and sampled.margin is None
        assert exact.to_json_dict()["margin"] == to_json(exact.margin)
        assert "margin" not in sampled.to_json_dict()
        assert set(exact.to_json_dict()) == {f.name for f in fields(kn.BuckInequalityReport)}
