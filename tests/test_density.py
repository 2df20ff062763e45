import itertools
import math
import random
from fractions import Fraction

import pytest

from buckdens import density as dens
from buckdens import generators as gen
from buckdens import periodic as per
from buckdens.zmod import LimitExceededError, ResidueSet


class TestModulusChain:
    def test_factorial(self):
        chain = dens.modulus_chain("factorial", 4)
        assert chain.values == (1, 2, 6, 24)

    def test_powers_of_two(self):
        chain = dens.modulus_chain("powers_of_two", 3)
        assert chain.values == (2, 4, 8)

    def test_primorial_divisibility(self):
        chain = dens.modulus_chain("primorial", 3)
        for a, b in zip(chain.values, chain.values[1:]):
            assert b % a == 0
        assert chain.values[1] % 4 == 0  # exhaustiveness fix: squares appear

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            dens.modulus_chain("fibonacci", 3)

    def test_depth_positive(self):
        with pytest.raises(ValueError):
            dens.modulus_chain("factorial", 0)


class TestBuckUpper:
    def test_periodic_exact(self):
        est = dens.buck_upper(gen.from_periodic(per.from_progressions([(1, 2)])))
        assert est.kind == "exact" and est.value == Fraction(1, 2)

    def test_b_alpha_exact(self):
        est = dens.buck_upper(gen.gen_b_alpha("11"))
        assert est.kind == "exact" and est.value == Fraction(3, 4)

    def test_x0_chain_sequence(self):
        est = dens.buck_upper(gen.gen_x0(), dens.modulus_chain("powers_of_four", 5))
        assert est.kind == "upper_bound_sequence"
        assert [r for _, r in est.sequence] == [Fraction(1, 2**k) for k in range(1, 6)]
        assert est.value == Fraction(1, 32)

    def test_chain_mismatch_falls_back_to_sampled(self):
        d = gen.gen_d_k((1,), rule="double_gap")
        est = dens.buck_upper(d, dens.modulus_chain("factorial", 4))
        assert est.kind == "sampled"
        assert est.warnings
        lo, hi = est.value
        assert hi == 1 and 0 < lo <= 1

    def test_hook_sampled(self):
        est = dens.buck_upper(gen.gen_hook(), dens.modulus_chain("powers_of_two", 3), horizon=10**5)
        assert est.kind == "sampled"
        lo, hi = est.value
        assert hi == Fraction(1)

    def test_sampled_interval_certifies_neither_end(self):
        # the largest sampled ratio bounds one chain term, not the limit: no
        # prime power is 0 mod 6, so bup(P_1) <= 5/6 although a ratio reads 1
        est = dens.buck_upper(gen.gen_p_t(1), dens.modulus_chain("primorial", 2), horizon=5000)
        assert est.kind == "sampled" and est.value[0] == 1
        assert est.certified is None
        assert "certified" not in est.to_json_dict()

    def test_ratios_nonincreasing_for_exact_profiles(self):
        for desc in (gen.gen_x0(), gen.gen_d_k((0, 2, 5), rule="double_gap")):
            est = dens.buck_upper(desc, dens.modulus_chain("powers_of_two", 8))
            ratios = [r for _, r in est.sequence]
            assert all(a >= b for a, b in zip(ratios, ratios[1:]))


class TestBuckLower:
    def test_periodic_exact(self):
        est = dens.buck_lower(gen.from_periodic(per.from_progressions([(1, 2)])))
        assert est.kind == "exact" and est.value == Fraction(1, 2)

    def test_dk_zero_via_oracle(self):
        est = dens.buck_lower(gen.gen_d_k((1, 3), rule="double_gap"))
        assert est.kind == "lower_bound_sequence"
        assert est.value == 0

    def test_hook_interval(self):
        est = dens.buck_lower(gen.gen_hook(), horizon=10**5)
        assert est.kind == "sampled"
        lo, hi = est.value
        assert lo == 0 and hi < Fraction(1, 1000)

    P = gen.from_periodic(per.from_progressions([(1, 4)]))

    def test_union_with_x0_keeps_the_certified_quarter(self):
        est = dens.buck_lower(gen.union_description([self.P, gen.gen_x0()]))
        assert est.kind == "lower_bound_sequence" and est.value == Fraction(1, 4)

    def test_sum_with_x0_is_certified_by_the_sum_rule(self):
        # cof(P + X0) mod 2^k holds 1 + X0's residues, two of every four classes
        est = dens.buck_lower(gen.sumset_description([self.P, gen.gen_x0()]))
        assert est.kind == "lower_bound_sequence" and est.value == Fraction(1, 2)

    def test_doubled_x0_is_certified_zero(self):
        est = dens.buck_lower(gen.sumset_description([gen.gen_x0(), gen.gen_x0()]))
        assert est.kind == "lower_bound_sequence" and est.value == 0

    def test_finite_k_lower_equals_density(self):
        d = gen.gen_d_k((1, 3))  # eventually periodic
        est = dens.buck_lower(d)
        assert est.kind == "exact" and est.value == Fraction(1, 4)


def plain_description(members: set) -> gen.SetDescription:
    return gen.SetDescription("plain", builder=lambda h: sorted(n for n in members if n <= h))


def window_reference(members: set, horizon: int) -> tuple:
    """(d_lower, d_upper, banach_lower, banach_upper, window) by plain list
    counting, with no zmod kernel."""
    counts = [0]  # counts[n] = |X cap [1, n]|
    for n in range(1, horizon + 1):
        counts.append(counts[-1] + (n in members))
    window = math.isqrt(horizon)
    in_window = [counts[k + window] - counts[k] for k in range(horizon - window + 1)]
    ratios = [Fraction(counts[n], n) for n in (max(1, (horizon * j) // 16) for j in range(8, 17))]
    return (min(ratios), max(ratios), Fraction(min(in_window), window),
            Fraction(max(in_window), window), window)


B = dens.WINDOW_BLOCK


def horizon_with_starts(starts) -> int:
    """The least horizon h whose h - w + 1 windows of length w = isqrt(h)
    number starts(w)."""
    return next(h for h in itertools.count(16) if h - math.isqrt(h) + 1 == starts(math.isqrt(h)))


#: one block less one start, one block, one block and one start, and two
#: blocks and a partial block of window starts
BLOCK_EDGE_HORIZONS = [horizon_with_starts(lambda w, s=s: s) for s in (B - 1, B, B + 1)] + [
    horizon_with_starts(lambda w: 2 * B + w)
]


class TestWindowDensities:
    @pytest.mark.parametrize("horizon", [16, 17, 24, 99, 1000, 4097, 65537, *BLOCK_EDGE_HORIZONS])
    @pytest.mark.parametrize("kind", ["empty", "full", "seeded-half", "seeded-dense", "seeded-sparse"])
    def test_lane_sums_match_a_plain_list_reference(self, kind, horizon):
        rng = random.Random(horizon)
        share = {"empty": 0, "full": 1, "seeded-half": 0.5, "seeded-dense": 0.97, "seeded-sparse": 0.02}
        members = {n for n in range(horizon + 1) if rng.random() < share[kind]}
        w = dens.window_densities(plain_description(members), horizon)
        got = (w.d_lower.value, w.d_upper.value, w.banach_lower.value, w.banach_upper.value,
               w.window_length)
        assert got == window_reference(members, horizon)

    @pytest.mark.parametrize("mirror", [False, True])
    def test_extremes_are_carried_across_blocks(self, mirror):
        # odds, with one full window straddling the first block boundary and
        # one empty window in the last, partial block; each is flanked so
        # that it is the unique extreme.  The mirror is the complement.
        horizon = BLOCK_EDGE_HORIZONS[-1]
        window = math.isqrt(horizon)
        half = window // 2
        full, empty = B - half, 2 * B + half  # the starts of the two windows
        members = set(range(1, horizon + 1, 2))
        members -= set(range(full - half + 1, full + window + half + 1))
        members |= set(range(full + 1, full + window + 1))
        members |= set(range(empty - half + 1, horizon + 1))
        members -= set(range(empty + 1, empty + window + 1))
        if mirror:
            members = set(range(1, horizon + 1)) - members
        counts = list(itertools.accumulate(n in members for n in range(horizon + 1)))
        in_window = [counts[k + window] - counts[k] for k in range(horizon - window + 1)]
        assert len(in_window) == 2 * B + window and full < B < full + window
        top, bottom = (empty, full) if mirror else (full, empty)
        assert [k for k, c in enumerate(in_window) if c == window] == [top]
        assert [k for k, c in enumerate(in_window) if c == 0] == [bottom]
        w = dens.window_densities(plain_description(members), horizon)
        got = (w.d_lower.value, w.d_upper.value, w.banach_lower.value, w.banach_upper.value,
               w.window_length)
        assert got == window_reference(members, horizon)
        assert (w.banach_lower.value, w.banach_upper.value) == (0, 1)

    def test_odds(self):
        w = dens.window_densities(gen.from_periodic(per.from_progressions([(1, 2)])), 10**4)
        for est in (w.d_lower, w.d_upper):
            assert abs(est.value - Fraction(1, 2)) <= Fraction(2, 10**4)
        for est in (w.banach_lower, w.banach_upper):
            assert abs(est.value - Fraction(1, 2)) <= Fraction(1, w.window_length)

    def test_chain_ordering_loose(self):
        # lower uniform <= lower asymptotic <= upper asymptotic <= upper uniform
        # within one window of slack at finite horizon
        for bits in ("1", "011", "0101"):
            w = dens.window_densities(gen.gen_b_alpha(bits), 1 << 14)
            slack = Fraction(2, w.window_length)
            assert w.banach_lower.value <= w.d_lower.value + slack
            assert w.d_lower.value <= w.d_upper.value
            assert w.d_upper.value <= w.banach_upper.value + slack
            exact = gen.b_alpha_value(bits)
            assert w.banach_upper.value <= exact + slack  # bup dominates
            assert w.banach_lower.value >= exact - slack  # bdo is below

    def test_small_horizon_rejected(self):
        with pytest.raises(ValueError):
            dens.window_densities(gen.from_periodic(per.from_progressions([(0, 1)])), 5)

    def test_hook_banach_gap(self):
        w = dens.window_densities(gen.gen_hook(), 10**5)
        assert w.banach_lower.value == 0
        assert w.d_upper.value < Fraction(1, 100)

    @pytest.mark.parametrize(
        "desc, horizon",
        [
            (gen.gen_weyl("sqrt2", "2/7"), 10**5),
            (gen.gen_weyl("golden", "1/2"), (1 << 20) - 1),
            (gen.gen_hook(), 10**5),  # 8 members in 40328 bits
            (gen.from_periodic(per.from_progressions([(3, 10), (4, 7)])), 5000),
        ],
    )
    def test_counts_from_the_mask_match_per_member_presence(self, desc, horizon):
        present = bytearray(horizon + 1)
        for n in desc.members(horizon):
            present[n] = 1
        present[0] = 0
        counts = list(itertools.accumulate(present))
        window = math.isqrt(horizon)
        in_window = [counts[k + window] - counts[k] for k in range(horizon + 1 - window)]
        checkpoints = [max(1, (horizon * j) // 16) for j in range(8, 17)]
        w = dens.window_densities(desc, horizon)
        assert w.window_length == window
        assert w.d_lower.value == min(Fraction(counts[n], n) for n in checkpoints)
        assert w.d_upper.value == max(Fraction(counts[n], n) for n in checkpoints)
        assert w.banach_lower.value == Fraction(min(in_window), window)
        assert w.banach_upper.value == Fraction(max(in_window), window)

    def test_doubled_digit_set_complement_has_full_windows(self):
        # the complement of D_K + D_K holds whole blocks [M_t, 2^(k_t + 1)),
        # so its uniform-density estimate saturates once the window fits
        from buckdens.oracle import brute_sumset_members

        horizon = 1 << 16
        d = gen.gen_d_k((1, 3, 7, 15), rule="double_gap")
        dd = set(brute_sumset_members(d.members(horizon), d.members(horizon), horizon))
        complement = gen.from_periodic(per.from_finite([n for n in range(horizon + 1) if n not in dd]))
        w = dens.window_densities(complement, horizon)
        assert w.banach_upper.value == 1


class TestChainReport:
    def test_x0_rows(self):
        rows = dens.density_chain_report(gen.gen_x0(), dens.modulus_chain("powers_of_four", 3))
        assert [(r.modulus, r.count) for r in rows] == [(4, 2), (16, 4), (64, 8)]
        assert all(r.kind == "exact-profile" for r in rows)
        assert rows[0].ratio == Fraction(1, 2)

    def test_naturals_rows(self):
        rows = dens.density_chain_report(
            gen.from_periodic(per.from_progressions([(0, 1)])), dens.modulus_chain("factorial", 4)
        )
        assert all(r.ratio == 1 for r in rows)

    def test_odds_rows_constant(self):
        rows = dens.density_chain_report(
            gen.gen_b_alpha("1"), dens.modulus_chain("powers_of_two", 6)
        )
        assert all(r.ratio == Fraction(1, 2) for r in rows)

    def test_sampled_kind(self):
        rows = dens.density_chain_report(
            gen.gen_p_t(1), dens.modulus_chain("powers_of_two", 3), horizon=1000
        )
        assert all(r.kind == "sampled" for r in rows)


class TestChainCap:
    """A chain modulus over the dense cap cannot be built, so no reader is
    handed one and none reads a profile for it."""

    DK = gen.gen_d_k((1, 3), rule="double_gap")  # exact profiles mod 2^e
    HOOK = gen.gen_hook()  # sampled residues

    @pytest.mark.parametrize(
        "report, desc",
        [
            (dens.buck_upper, DK),
            (dens.buck_upper, HOOK),
            (dens.buck_lower, DK),
            (dens.density_chain_report, DK),
            (dens.density_chain_report, HOOK),
            (dens.buck_lower, HOOK),
        ],
    )
    def test_checked_before_any_profile(self, monkeypatch, report, desc):
        calls = []

        def recorder(name, fn):
            def record(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return record

        for owner, name in (
            (gen.SetDescription, "profile"),
            (gen.SetDescription, "members"),
            (gen, "_dk_profile"),
            (dens, "attained_residues"),
        ):
            monkeypatch.setattr(owner, name, recorder(name, getattr(owner, name)))
        refusal = "depth 25 exceeds cap 1048576: the powers_of_two chain's modulus at depth 21"
        with pytest.raises(LimitExceededError, match=refusal):
            report(desc, dens.modulus_chain("powers_of_two", 25))
        with pytest.raises(LimitExceededError, match="chain modulus 2097152 exceeds cap 1048576"):
            report(desc, dens.ModulusChain("powers_of_two", tuple(1 << n for n in range(1, 22))))
        assert calls == []

    def test_a_chain_modulus_past_2_to_the_64_is_named_by_its_bit_length(self):
        # its decimal has 6021 digits, more than str() converts by default
        with pytest.raises(LimitExceededError, match="chain modulus of 20001 bits exceeds cap 1048576"):
            dens.ModulusChain("powers_of_two", tuple(1 << n for n in range(1, 20001)))

    def test_exact_periodic_path_ignores_the_chain(self):
        odds3 = gen.from_periodic(per.from_progressions([(1, 3)]))
        est = dens.buck_upper(odds3, dens.modulus_chain("factorial", 9))
        assert est.kind == "exact" and est.value == Fraction(1, 3)

    @pytest.mark.parametrize(
        "kind, deepest",
        [
            ("factorial", tuple(math.factorial(n) for n in range(1, 10))),
            ("primorial", (2, 6**2, 30**3)),
            ("powers_of_two", tuple(1 << n for n in range(1, 21))),
            ("powers_of_four", tuple(1 << 2 * n for n in range(1, 11))),
        ],
    )
    def test_the_first_modulus_past_the_cap_is_refused_at_any_depth(self, kind, deepest):
        assert dens.modulus_chain(kind, len(deepest)).values == deepest
        for depth in (len(deepest) + 1, 10**5):
            refusal = f"depth {depth} exceeds cap 1048576: the {kind} chain's modulus at depth"
            with pytest.raises(LimitExceededError, match=f"{refusal} {len(deepest) + 1} has"):
                dens.modulus_chain(kind, depth)


class TestPeriodicDensitiesAgree:
    def test_upper_lower_and_natural_coincide(self):
        cases = [
            [(1, 3), (2, 6)],
            [(0, 4), (1, 4)],
            [(5, 7)],
            [(0, 1)],
        ]
        for terms in cases:
            eps = per.from_progressions(terms)
            d = eps.natural_density()
            assert dens.buck_upper(gen.from_periodic(eps)).value == d
            assert dens.buck_lower(gen.from_periodic(eps)).value == d


class TestUnionSubadditivity:
    def test_upper_estimates_subadditive_at_chain_points(self):
        x = gen.gen_d_k((0, 2), rule="double_gap")
        y = gen.gen_x0()
        u = gen.union_description([x, y])
        chain = dens.modulus_chain("powers_of_two", 8)
        ex = dict(dens.buck_upper(x, chain).sequence)
        ey = dict(dens.buck_upper(y, chain).sequence)
        eu = dict(dens.buck_upper(u, chain).sequence)
        for m in chain.values:
            assert eu[m] <= ex[m] + ey[m]


class TestSampledResidues:
    FAMILIES = {
        "weyl": lambda: gen.gen_weyl("sqrt2", "3/10"),
        "p_t": lambda: gen.gen_p_t(1),
        "three_density": lambda: gen.gen_three_density("1/2", "1/2", "1/2"),
        "union_with_hook": lambda: gen.union_description([gen.gen_hook(), gen.gen_p_t(0)]),
    }

    @pytest.mark.parametrize("family", FAMILIES)
    def test_folded_mask_equals_the_residues_of_the_members(self, family):
        desc = self.FAMILIES[family]()
        listed = desc.members(6000)
        for m in range(1, 201):
            got, exact = dens.attained_residues(desc, m, 6000)
            assert not exact
            assert got == ResidueSet.of(m, {n % m for n in listed})

    @pytest.mark.parametrize("horizon", [10**15, 10**5])
    def test_sparse_members_are_reduced_one_by_one(self, monkeypatch, horizon):
        # hook: 17 members up to 10^15, past the cap; 8 members up to 10^5, sparse in 40328 bits
        def no_fold(*args):
            raise AssertionError("folded a mask")

        monkeypatch.setattr(gen, "fold_bits", no_fold)
        monkeypatch.setattr(gen.SetDescription, "members_mask", no_fold)
        hook = gen.gen_hook()
        listed = hook.members(horizon)
        for m in range(1, 65):
            assert dens.attained_residues(hook, m, horizon)[0] == ResidueSet.of(m, {n % m for n in listed})

    def test_one_members_mask_across_the_moduli(self, monkeypatch, enumerated):
        def from_a_list(members, width):
            raise AssertionError("a mask built from a member list")

        monkeypatch.setattr(gen, "members_mask", from_a_list)
        desc = gen.gen_weyl("sqrt2", "1/2")
        for m in range(1, 65):
            assert dens.attained_residues(desc, m, 50000)[0].is_full()
        assert enumerated == ["weyl"]  # one mask, built by the family's construction
