import math
import os
import random
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from buckdens import generators as gen
from buckdens import kneser as kn
from buckdens import periodic as per
from buckdens import suites
from buckdens import zmod
from buckdens.density import attained_residues, to_json
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
        report = kn.analyze_sumset([gen.from_periodic(per.from_progressions([(0, 1)]))], q_max=32)
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

    @pytest.mark.parametrize("q_max", [1, 0, -5])
    def test_q_max_below_two_is_refused(self, q_max):
        with pytest.raises(ValueError, match="q_max"):
            kn.analyze_sumset([gen.gen_b_alpha("1")], q_max=q_max)


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

    def test_missing_listed_from_the_bits(self, monkeypatch):
        def no_iter(self):
            raise AssertionError("ResidueSet.__iter__ called")

        monkeypatch.setattr(ResidueSet, "__iter__", no_iter)
        desc = gen.gen_weyl("sqrt2", "1/5")
        listed = desc.members(3000)
        rows = kn.verify_sparse_periodicity(desc, q=7, m_max=8, horizon=3000)
        base = {n % 7 for n in listed}
        for row in rows:
            mq = row.m * 7
            reference = sorted({r for r in range(mq) if r % 7 in base} - {n % mq for n in listed})
            assert row.missing == tuple(reference)
            assert row.passed == (not reference)
        assert any(row.missing for row in rows)


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

    def test_same_modulus_required(self):
        with pytest.raises(ValueError, match="modulus"):
            kn.ruzsa_inequality_check(ResidueSet.of(5, [0]), ResidueSet.of(6, [0, 1]))

    def test_counts_on_bare_masks(self):
        assert kn.ruzsa_counts(5, 0b1, 0b11) == (3, 4)
        assert kn.ruzsa_counts(6, 0b1001, 0b1001) == (4, 4)
        with pytest.raises(ValueError, match="nonempty"):
            kn.ruzsa_counts(5, 0, 0b11)
        with pytest.raises(ValueError, match="subset"):
            kn.ruzsa_counts(5, 0b100, 0b11)


def nested_loop_ruzsa(q, r, s):
    """(|R||S+S|, |R+S|^2, holds) from plain pair loops over member lists."""
    lhs = len(r) * len({(x + y) % q for x in s for y in s})
    rhs = len({(x + y) % q for x in r for y in s}) ** 2
    return lhs, rhs, lhs <= rhs


def assert_matches_nested_loops(q, r, s):
    check = kn.ruzsa_inequality_check(ResidueSet.of(q, r), ResidueSet.of(q, s))
    assert (check.lhs, check.rhs, check.holds) == nested_loop_ruzsa(q, r, s), (q, r, s)


class TestRuzsaAgainstNestedLoops:
    def test_seeded_pairs(self):
        rng = random.Random(20240)
        for _ in range(600):
            q = rng.randint(1, 200)
            s = rng.sample(range(q), rng.randint(1, q))
            r = rng.sample(s, rng.randint(1, len(s)))
            assert_matches_nested_loops(q, r, s)

    @pytest.mark.parametrize("q", [1, 2, 7, 64, 199])
    def test_edge_cases(self, q):
        whole = list(range(q))
        assert_matches_nested_loops(q, whole, whole)  # R = S = the whole ring
        assert_matches_nested_loops(q, [q - 1], whole)  # |R| = 1, S the whole ring
        assert_matches_nested_loops(q, [q - 1], [q - 1])  # R = S, one member
        every_other = list(range(q - 1, -1, -2))
        assert_matches_nested_loops(q, every_other, every_other)  # R = S
        assert_matches_nested_loops(q, every_other[:1], every_other)  # |R| = 1

    def test_sparse_pair_wraps_mod_4096(self):
        q = 4096
        s = [0, 1, 5, 1000, 2047, 2048, 3000, 4000, 4090, 4095]
        r = [1, 2048, 4095]
        assert_matches_nested_loops(q, r, s)
        assert_matches_nested_loops(q, s, s)
        assert_matches_nested_loops(q, [4095], s)


def assert_never_full(q, r, s):
    """Match the nested loops on a pair whose S + S, and so R + S, misses a
    residue: no fold of either sum is ever full."""
    assert len({(x + y) % q for x in s for y in s}) < q, (q, r, s)
    assert_matches_nested_loops(q, r, s)


class TestRuzsaWithoutSaturation:
    def test_cosets_of_subgroups(self):
        rng = random.Random(31)
        for q in (4, 12, 60, 398, 1024):
            for d in [d for d in zmod.divisors(q) if 1 < d < q]:
                coset = list(range(rng.randrange(d), q, d))
                assert_never_full(q, coset, coset)  # R = S, a coset
                assert_never_full(q, rng.sample(coset, rng.randint(1, len(coset))), coset)
                subgroup = list(range(0, q, d))
                assert_never_full(q, subgroup, subgroup)  # R = S = a subgroup
                assert_never_full(q, [d], subgroup)

    def test_intervals(self):
        rng = random.Random(32)
        for q in (3, 10, 97, 200, 1000):
            for _ in range(10):
                length = rng.randint(1, q // 2)  # 2 length - 1 < q
                start = rng.randrange(q)
                s = [(start + i) % q for i in range(length)]
                assert_never_full(q, s, s)
                assert_never_full(q, rng.sample(s, rng.randint(1, length)), s)
                assert_never_full(q, s[:1], s)

    def test_arithmetic_progressions(self):
        rng = random.Random(33)
        for q in (7, 64, 199, 360, 997):
            for _ in range(10):
                step = rng.randrange(1, q)
                order = q // math.gcd(step, q)
                length = rng.randint(1, max(1, (order - 1) // 2))
                start = rng.randrange(q)
                s = sorted({(start + i * step) % q for i in range(length)})
                assert_never_full(q, s, s)
                assert_never_full(q, rng.sample(s, rng.randint(1, len(s))), s)


class TestRuzsaSuite:
    def test_draws_are_nested_masks(self):
        for seed in range(200):
            rng = random.Random(seed)
            for q_max in (1, 2, 3, 17, 200):
                q, r, s = suites._ruzsa_draw(rng, q_max)
                assert 1 <= q <= q_max
                assert 0 < r and r & ~s == 0 and s < 1 << q

    def test_both_fallbacks_occur_at_q_max_one(self):
        class LoggedRandom:
            def __init__(self, seed):
                self.rng, self.calls = random.Random(seed), []

            def __getattr__(self, name):
                def logged(*args):
                    self.calls.append(name)
                    return getattr(self.rng, name)(*args)

                return logged

        seen = set()
        for seed in range(100):
            rng = LoggedRandom(seed)
            assert suites._ruzsa_draw(rng, 1) == (1, 1, 1)
            seen.update(rng.calls)
        assert {"randrange", "choice"} <= seen  # empty S, then empty R, replaced

    def test_draw_distribution(self):
        # q uniform on [1, 3]; each x < q in S, each member of S in R, with
        # probability 1/2; an empty S (R) becomes one uniform residue (member)
        def subset_law(universe):
            n, whole = len(universe), sum(1 << x for x in universe)
            law = {bits: 2.0**-n for bits in range(1, whole + 1) if bits & ~whole == 0}
            for x in universe:
                law[1 << x] += 2.0**-n / n
            return law

        exact = {}
        for q in (1, 2, 3):
            for s, ps in subset_law(range(q)).items():
                for r, pr in subset_law(zmod.bit_positions(s)).items():
                    exact[q, r, s] = ps * pr / 3
        draws = 30000
        rng = random.Random(5)
        seen = dict.fromkeys(exact, 0)
        for _ in range(draws):
            seen[suites._ruzsa_draw(rng, 3)] += 1  # KeyError: an impossible draw
        for key, p in exact.items():
            assert abs(seen[key] / draws - p) < 5 * (p * (1 - p) / draws) ** 0.5, key

    @pytest.mark.parametrize(
        "kwargs, field",
        [({"trials": 0}, "trials"), ({"trials": -3}, "trials"),
         ({"q_max": 0}, "q_max"), ({"q_max": 2**20 + 1}, "q_max")],
    )
    def test_bad_sizes_refused_before_any_draw(self, monkeypatch, kwargs, field):
        def no_draw(rng, q_max):
            raise AssertionError("drew a pair")

        monkeypatch.setattr(suites, "_ruzsa_draw", no_draw)
        with pytest.raises(ValueError, match=field):
            suites.suite_ruzsa(**kwargs)

    def test_reported_violations_fail_the_first_row(self, monkeypatch):
        def odd_moduli_violate(q, r, s):
            return (2, 1) if q % 2 else (1, 1)

        rng = random.Random(11)
        odd = sum(suites._ruzsa_draw(rng, 9)[0] % 2 for _ in range(40))
        monkeypatch.setattr(suites, "ruzsa_counts", odd_moduli_violate)
        result = suites.suite_ruzsa(trials=40, q_max=9, seed=11)
        assert 0 < odd < 40
        assert not result.passed
        assert result.rows[0]["passed"] is False
        assert result.rows[0]["detail"] == f"{odd} violations"

    def test_reported_violation_fails_the_first_row_under_optimize(self):
        # python -O strips assert statements; the count must survive it
        script = (
            "import buckdens.suites as s\n"
            "s.ruzsa_counts = lambda q, r, t: (2, 1)\n"
            "row = s.suite_ruzsa(trials=5, q_max=9).rows[0]\n"
            "print(row['passed'], row['detail'])\n"
        )
        src = str(Path(kn.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False 5 violations"


class TestBuckInequality:
    def test_odds_equality(self):
        report = kn.buck_inequality_report(gen.from_periodic(per.from_progressions([(1, 2)])))
        assert report.margin == 0 and report.consistent

    def test_two_classes(self):
        report = kn.buck_inequality_report(
            gen.from_periodic(per.from_progressions([(0, 4), (1, 4)]))
        )
        assert report.margin == Fraction(9, 16) - Fraction(3, 8)
        assert report.consistent

    def test_naturals(self):
        report = kn.buck_inequality_report(gen.from_periodic(per.from_progressions([(0, 1)])))
        assert report.margin == 0 and report.consistent

    def test_sampled_consistency(self):
        # no certificate bounds either side for a set with no periodic form,
        # so the report refuses it rather than passing
        with pytest.raises(ValueError, match="family 'x0'"):
            kn.buck_inequality_report(gen.gen_x0())


class TestMembersListedOnce:
    """A report lists each sampled description once, however many reads it makes."""

    def test_analyze_doubled_weyl(self, enumerated):
        kn.analyze_sumset([gen.gen_weyl("sqrt2", "3/10")], horizon=20000)
        assert sorted(enumerated) == ["sumset", "weyl"]

    def test_buck_inequality_report(self, enumerated):
        with pytest.raises(ValueError, match="family 'weyl'"):
            kn.buck_inequality_report(gen.gen_weyl("sqrt2", "3/10"))
        assert enumerated == []  # refused before any sum is formed


def linear_scan(parts, q_max, horizon):
    """analyze_sumset's q-scan with nothing pruned, over every q in
    2..q_max: (q, profiles, projected sumset) of the first q it accepts,
    or None."""
    descs = list(parts)
    if len(descs) == 1:
        descs *= 2
    sum_desc = gen.sumset_description(descs)
    for q in range(2, q_max + 1):
        profiles = tuple(attained_residues(d, q, horizon)[0] for d in descs)
        if any(p.is_empty() for p in profiles):
            continue
        projected = zmod.sumset(list(profiles))
        if projected.is_full() or zmod.is_periodic(projected):
            continue
        critical = sum(p.cardinality - 1 for p in profiles) + 1
        if projected.cardinality != critical:
            continue
        if sum_desc.periodic_form is not None:
            identity = sum_desc.periodic_form.natural_density() == Fraction(critical, q)
        else:
            identity = all(r.passed for r in kn.verify_sparse_periodicity(sum_desc, q, 4, horizon))
        if identity:
            return q, profiles, projected
    return None


def _random_parts(rng, kind):
    """One or two summands of the given kind, as descriptions."""
    if kind == "progressions":
        terms = [(rng.randint(0, 20), rng.randint(2, 12)) for _ in range(rng.randint(1, 3))]
        return [gen.from_periodic(per.from_progressions(terms))]
    if kind == "b_alpha":
        while True:
            bits = "".join(rng.choice("01") for _ in range(rng.randint(2, 6)))
            if bits.count("1") >= 2:
                return [gen.gen_b_alpha(bits)]
    if kind == "periods":
        q1, q2 = rng.sample(range(2, 13), 2)
        return [
            gen.from_periodic(per.from_residues(q, rng.sample(range(q), rng.randint(1, q // 2))))
            for q in (q1, q2)
        ]
    if kind == "finite":
        q = rng.randint(2, 12)
        finite = per.from_finite(rng.sample(range(30), rng.randint(1, 4)))
        periodic = per.from_residues(q, rng.sample(range(q), rng.randint(1, q // 2)))
        return [gen.from_periodic(finite), gen.from_periodic(periodic)]
    if kind == "stray-prefix":
        # a prefix member outside the tail classes: no summand is prunable
        q = rng.randint(2, 12)
        tail = rng.sample(range(q), rng.randint(1, max(1, q // 3)))
        stray = rng.choice([n for n in range(2 * q) if n % q not in tail])
        eps = per.from_json_dict({"q": q, "T": 2 * q, "prefix": [stray], "tail": tail})
        return [gen.from_periodic(eps)] * rng.randint(1, 2)
    assert kind == "sampled"
    periodic = per.from_residues(4, rng.sample(range(4), rng.randint(1, 2)))
    return [gen.gen_x0(), gen.from_periodic(periodic)]


def _spy(monkeypatch, name):
    """Record the arguments of every call analyze_sumset makes to kn.<name>."""
    calls = []
    original = getattr(kn, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kn, name, spy)
    return calls


class TestPrunedScan:
    KINDS = ("progressions", "b_alpha", "periods", "finite", "stray-prefix",
             "progressions", "b_alpha", "periods", "stray-prefix", "sampled")

    def test_seeded_inputs(self):
        rng = random.Random(20240)
        found = 0
        for i in range(200):
            kind = self.KINDS[i % len(self.KINDS)]
            parts = _random_parts(rng, kind)
            q_max = rng.choice([24, 48, 72])
            horizon = 1 << 12
            report = kn.analyze_sumset(parts, q_max=q_max, horizon=horizon)
            expected = linear_scan(parts, q_max, horizon)
            if expected is None:
                assert report == kn.KneserReport(
                    report.k, report.sigma, report.sigma_certified
                ), (kind, parts)
                continue
            found += 1
            q, profiles, projected = expected
            assert report.minimal and report.q == q, (kind, parts)
            assert report.summand_profiles == profiles
            assert report.sumset_profile == projected
            assert report.multiplicities == tuple(p.cardinality for p in profiles)
        assert 40 < found < 180  # both outcomes are exercised

    def test_stray_prefix_visits_every_q(self, monkeypatch):
        calls = _spy(monkeypatch, "attained_residues")
        # {0} + odds: 0 lies outside the tail class 1 mod 2, so the scan is linear
        zero_and_odds = per.union(per.from_finite([0]), per.from_progressions([(1, 2)]))
        report = kn.analyze_sumset([gen.from_periodic(zero_and_odds)], q_max=64)
        assert not report.minimal
        assert [q for _, q, _ in calls] == list(range(2, 65))

    def test_no_sumset_where_pigeonhole_makes_it_full(self, monkeypatch):
        calls = _spy(monkeypatch, "residue_sumset")
        # {0, 1} mod 6 doubled: mod 2 and mod 3 the sizes 2 + 2 exceed q, so no
        # sumset is formed there; mod 6 it is {0, 1, 2}, of critical size
        report = kn.analyze_sumset([gen.from_periodic(per.from_residues(6, [0, 1]))], q_max=64)
        assert report.q == 6 and report.sumset_profile.members == (0, 1, 2)
        assert [profiles[0].modulus for (profiles,) in calls] == [6]
        for q in (2, 3):
            profile = ResidueSet.of(q, [0, 1])
            assert zmod.sumset([profile, profile]).is_full()


class TestOneKneserCheckPerQ:
    def test_kneser_bits_runs_at_every_q_past_the_skips(self, monkeypatch):
        calls = _spy(monkeypatch, "kneser_bits")
        sumsets = _spy(monkeypatch, "residue_sumset")
        # the stray prefix member 2 lies outside the tail classes, so the scan
        # is linear; the odd q and 3 are skipped by pigeonhole, q = 12 accepted
        eps = per.from_json_dict({"q": 12, "T": 24, "prefix": [2], "tail": [0, 4]})
        parts = [gen.from_periodic(eps)]
        report = kn.analyze_sumset(parts, q_max=48)
        assert report.q == 12
        passed = []
        for q in range(2, 13):
            r = attained_residues(parts[0], q, kn.DEFAULT_HORIZON)[0].cardinality
            if 0 < r and 2 * r <= q:
                passed.append(q)
        assert [q for _, q in calls] == passed == [2, 4, 6, 8, 10, 12]
        # the projected sumset is formed at the accepted q only
        assert [profiles[0].modulus for (profiles,) in sumsets] == [12]

    def test_a_planted_violation_raises(self, monkeypatch):
        parts = [gen.from_periodic(per.from_progressions([(1, 5), (2, 5)]))]
        assert kn.analyze_sumset(parts, q_max=10).q == 5
        real = zmod.sumset_bits

        def planted(bit_sets, m):  # drop the top member of any sum of two or more
            total = real(bit_sets, m)
            return total ^ (1 << (total.bit_length() - 1)) if total.bit_count() >= 2 else total

        monkeypatch.setattr(zmod, "sumset_bits", planted)
        with pytest.raises(zmod.CertificateError, match="Kneser bound"):
            kn.analyze_sumset(parts, q_max=10)


class TestDoubledSummandReadOnce:
    def test_one_attained_residues_call_per_q(self, monkeypatch):
        calls = _spy(monkeypatch, "attained_residues")
        # period 4 and no stray prefix: only the divisors 2 and 4 are visited
        report = kn.analyze_sumset([gen.gen_b_alpha("11")], q_max=64)
        assert not report.minimal and report.sigma == Fraction(3, 2)
        assert [q for _, q, _ in calls] == [2, 4]

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
        assert isinstance(exact.margin, Fraction)
        assert exact.to_json_dict()["margin"] == to_json(exact.margin)
        assert set(exact.to_json_dict()) == {f.name for f in fields(kn.BuckInequalityReport)}
        with pytest.raises(ValueError, match="family 'hook'"):
            kn.buck_inequality_report(gen.gen_hook())
