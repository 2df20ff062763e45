import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from pathlib import Path
from typing import Callable, Iterable

import pytest
from hypothesis import given
from hypothesis import strategies as st

from buckdens import density as dens
from buckdens import generators as gen
from buckdens import periodic as per
from buckdens import suites
from buckdens.oracle import brute_sumset_members
from buckdens.zmod import MAX_MODULUS, CertificateError, LimitExceededError, ResidueSet, bit_positions, sumset


class TestBAlpha:
    def test_odds(self):
        b = gen.gen_b_alpha("1")
        assert b.members(9) == [1, 3, 5, 7, 9]
        assert b.periodic_form.natural_density() == Fraction(1, 2)

    def test_one_quarter(self):
        b = gen.gen_b_alpha("01")
        assert b.periodic_form == per.from_progressions([(2, 4)])

    def test_one_quarter_doubled(self):
        b = gen.gen_b_alpha("01")
        doubled = per.add(b.periodic_form, b.periodic_form)
        for n in range(4, 200, 4):
            assert n in doubled  # contains 4 + 4N
        assert doubled.natural_density() == Fraction(1, 4)
        assert 0 not in doubled  # equality with 4N only up to a finite set

    def test_three_quarters_profile(self):
        b = gen.gen_b_alpha("11")
        assert b.profile(4).attained.members == (1, 2, 3)
        assert b.periodic_form.natural_density() == Fraction(3, 4)

    def test_density_equals_dyadic_value(self):
        for bits in ("1", "01", "101", "0011", "111111"):
            assert gen.gen_b_alpha(bits).periodic_form.natural_density() == gen.b_alpha_value(bits)

    def test_rejects_empty_and_zero(self):
        with pytest.raises(ValueError):
            gen.gen_b_alpha("")
        with pytest.raises(ValueError):
            gen.gen_b_alpha("000")
        with pytest.raises(ValueError):
            gen.gen_b_alpha("102")

    @given(st.integers(1, 255))
    def test_membership_matches_valuation_rule(self, value):
        bits = format(value, "08b")
        members = set(gen.gen_b_alpha(bits).members(299))
        for n in range(1, 300):
            j = (n & -n).bit_length()
            assert (n in members) == (j <= 8 and bits[j - 1] == "1")
        assert 0 not in members


class TestDK:
    def test_all_positions_forbidden(self):
        d = gen.gen_d_k((0,), rule="arithmetic", step=1)
        assert d.members(100) == [0]

    def test_structure_values(self):
        d = gen.gen_d_k((1, 3))
        assert d.members(15) == [0, 1, 4, 5]
        assert (d.m_t(0), d.m_t(1)) == (3, 12)
        assert d.xi(0) == Fraction(1, 4)
        assert d.xi(1) == Fraction(7, 16)
        assert bit_positions(d.z_t(1)) == [3, 7, 11, 12, 13, 14, 15]
        assert d.delta_partial(1) == Fraction(9, 16)

    def test_rule_extension(self):
        d = gen.gen_d_k((1, 3), rule="double_gap")
        assert [d.k(i) for i in range(5)] == [1, 3, 7, 15, 31]
        p = gen.gen_d_k((1, 2), rule="powers_of_two")
        assert [p.k(i) for i in range(5)] == [1, 2, 4, 8, 16]
        a = gen.gen_d_k((0, 3), rule="arithmetic", step=3)
        assert [a.k(i) for i in range(5)] == [0, 3, 6, 9, 12]

    def test_validation(self):
        with pytest.raises(ValueError):
            gen.gen_d_k(())
        with pytest.raises(ValueError):
            gen.gen_d_k((3, 1))
        with pytest.raises(ValueError):
            gen.gen_d_k((2, 2))
        with pytest.raises(ValueError):
            gen.gen_d_k((1,), rule="nope")

    def test_profile_matches_members(self):
        d = gen.gen_d_k((1, 3), rule="double_gap")
        for e in (1, 2, 4, 6):
            m = 1 << e
            attained = d.profile(m).attained
            seen = {n % m for n in d.members(1 << 10)}
            assert seen == set(attained.members)
            assert d.profile(m).cofinitely_attained.is_empty()

    def test_finite_k_is_periodic(self):
        d = gen.gen_d_k((1, 3))
        eps = d.periodic_form
        assert eps.natural_density() == Fraction(1, 4)
        prof = d.profile(16)
        assert prof.cofinitely_attained == prof.attained

    def test_a_far_position_builds_no_period_wider_than_the_cap(self):
        # 2^(10^8 + 1) would be a 12.5 MB int, refused only after it was built
        tracemalloc.start()
        try:
            d = gen.gen_d_k((10**8,))
            members = d.members(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.periodic_form is None and members == list(range(11))
        assert peak < 1 << 20

    def test_periods_up_to_the_cap_stay_exact(self):
        assert gen.gen_d_k((19,)).periodic_form.period == 1 << 20
        assert gen.gen_d_k((20,)).periodic_form is None

    def test_unsupported_modulus(self):
        assert gen.gen_d_k((1,), rule="double_gap").profile(6) is None

    def test_no_class_is_cofinite_without_a_periodic_form(self):
        # a position at 20 or past it is at or past e = log2(m) for every m under the cap
        m = 1 << 20
        top = gen.gen_d_k((20,)).profile(m)
        assert top.attained.cardinality == m and top.cofinitely_attained.is_empty()
        past = gen.gen_d_k((3, 21)).profile(m)
        assert past.attained.cardinality == 524288 and past.cofinitely_attained.is_empty()

    def test_delta_lower_bound(self):
        d = gen.gen_d_k((1, 3, 7, 15), rule="double_gap")
        bound = d.delta_lower_bound(3)
        assert bound is not None
        assert Fraction(1, 2) < bound < d.delta_partial(3)
        assert gen.gen_d_k((1, 3)).delta_lower_bound(0) is None


class TestX0:
    def test_members(self):
        assert gen.gen_x0().members(21) == [0, 1, 4, 5, 16, 17, 20, 21]

    def test_profiles(self):
        x0 = gen.gen_x0()
        assert x0.profile(16).attained.members == (0, 1, 4, 5)
        for m in range(1, 5):
            assert x0.profile(4**m).attained.cardinality == 2**m

    def test_profile_checks_the_width_before_the_digit_mask(self, monkeypatch):
        built = []
        monkeypatch.setattr(gen, "_digit_residues", lambda *args: built.append(args))
        with pytest.raises(LimitExceededError, match="modulus 2097152 exceeds cap"):
            gen.gen_x0().profile(1 << 21)
        assert built == []

    def test_doubled_profile(self):
        doubled = gen.sumset_description([gen.gen_x0(), gen.gen_x0()])
        assert doubled.profile(16).attained.cardinality == 9
        members = doubled.members(80)
        assert {2, 5, 6, 8}.issubset(members)
        assert all(n % 4 != 3 for n in members)


#: theta = (r + s sqrt(d)) / t as (r, s, d, t), with the repeating block of
#: partial quotients a_1, a_2, ... of its continued fraction
QUADRATIC_THETAS = {
    "sqrt2": ((0, 1, 2, 1), (2,)),
    "sqrt3": ((0, 1, 3, 1), (1, 2)),
    "sqrt5": ((0, 1, 5, 1), (4,)),
    "golden": ((1, 1, 5, 2), (1,)),
}


def squares_identity(theta: str, alpha: Fraction, n: int) -> bool:
    """{theta n} < a/b, decided by comparing squares: with k = floor(n theta)
    and Y = t (b k + a) - b n r, it holds iff Y > 0 and s^2 d (b n)^2 < Y^2."""
    (r, s, d, t), _ = QUADRATIC_THETAS[theta]
    a, b = alpha.numerator, alpha.denominator
    k = (n * r + math.isqrt(s * s * d * n * n)) // t
    y = t * (b * k + a) - b * n * r
    return y > 0 and s * s * d * (b * n) ** 2 < y * y


def weyl_member(theta: str, alpha) -> Callable[[int], bool]:
    """{theta n} < alpha, from the definition: by ``squares_identity`` for a
    quadratic theta, in exact rationals for a rational one."""
    alpha = Fraction(alpha)
    if theta in QUADRATIC_THETAS:
        return lambda n: squares_identity(theta, alpha, n)
    exact = Fraction(theta)
    return lambda n: exact * n % 1 < alpha


def kernel_test(theta: str, alpha, n: int) -> bool:
    """The exact integer test the Weyl builder runs, at n's bit length."""
    s, mask, bound = gen._weyl_kernel(theta, Fraction(alpha))(n.bit_length())
    return (s * n & mask) < bound


def continued_fraction_denominators(theta: str, count: int) -> list[int]:
    """Denominators q_1, q_2, ... of the convergents of theta."""
    _, block = QUADRATIC_THETAS[theta]
    q_prev, q = 0, 1
    out = []
    for i in range(count):
        q_prev, q = q, block[i % len(block)] * q + q_prev
        out.append(q)
    return out


class TestWeyl:
    def test_sqrt2_membership(self):
        half = Fraction(1, 2)
        assert kernel_test("sqrt2", half, 1)  # frac(sqrt 2) ~ 0.414
        assert not kernel_test("sqrt2", half, 2)  # ~ 0.828
        assert kernel_test("sqrt2", half, 0)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            gen.gen_weyl("sqrt2", Fraction(0))
        with pytest.raises(ValueError):
            gen.gen_weyl("sqrt2", Fraction(3, 2))

    def test_decimal_theta(self):
        half = Fraction(1, 2)
        assert kernel_test("0.25", half, 1) and not kernel_test("0.25", half, 2)

    def test_unknown_constant(self):
        with pytest.raises(ValueError):
            gen.gen_weyl("tau", Fraction(1, 2))

    @pytest.mark.parametrize("text", ["1e-315652", "1E+315652", "0.5e-31_5652", "1e-000000315652"])
    def test_an_exponent_whose_power_fits_the_cap_parses(self, text):
        # 10^315652 has 1048574 bits; 10^315653 has 1048577
        mantissa, _, exponent = text.lower().partition("e")
        assert gen._rational(text, "gamma") == Fraction(mantissa) * Fraction(10) ** int(exponent)

    @pytest.mark.parametrize(
        "text, shown",
        [("1e-315653", "315653"), ("1e315653", "315653"), ("2.5E-0004_000_000", "4000000"),
         ("1e-" + "9" * 50, "of 50 digits")],
    )
    def test_an_exponent_past_the_cap_is_refused_by_its_digits(self, text, shown):
        refusal = f"field 'alpha': decimal exponent {shown} exceeds cap 315652"
        with pytest.raises(LimitExceededError, match=refusal):
            gen._rational(text, "alpha")

    @pytest.mark.parametrize(
        "theta, alpha, expected",
        [
            ("1/3", "1/3", [0, 3, 6, 9]),
            ("2/3", "1/3", [0, 3, 6, 9]),
            ("2/3", "1/2", [0, 2, 3, 5, 6, 8, 9]),
            ("0.1", "3/10", [0, 1, 2, 10]),
        ],
    )
    def test_rational_theta_is_exact(self, theta, alpha, expected):
        w = gen.gen_weyl(theta, Fraction(alpha))
        assert w.members(10) == expected
        assert [n for n in range(11) if kernel_test(theta, alpha, n)] == expected
        exact = Fraction(theta)
        for n in (10**12 + 1, 3 * 10**20, 7**40):
            assert kernel_test(theta, alpha, n) == ((exact * n) % 1 < Fraction(alpha))

    @pytest.mark.parametrize("theta", sorted(QUADRATIC_THETAS))
    def test_quadratic_theta_matches_squares_identity(self, theta):
        rng = random.Random(theta)
        for alpha in (Fraction(1, 2), Fraction(3, 10), Fraction(2, 7), Fraction(999, 1000)):
            ns = [*range(300), 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 1, 2**64 + 3]
            ns += [rng.randrange(10**30) for _ in range(300)]
            for q in continued_fraction_denominators(theta, 120):
                ns += [q - 1, q, q + 1, 2 * q, 7 * q]
            for n in ns:
                assert kernel_test(theta, alpha, n) == squares_identity(theta, alpha, n), (alpha, n)

    @pytest.mark.parametrize("theta", ["sqrt2", "sqrt3", "sqrt5", "golden", "0.1", "22/7"])
    def test_members_agree_with_contains(self, theta):
        w, member = gen.gen_weyl(theta, Fraction(3, 10)), weyl_member(theta, "3/10")
        for horizon in (0, 1, 255, 256, 3000):
            assert w.members(horizon) == [n for n in range(horizon + 1) if member(n)]

    @pytest.mark.parametrize("theta", [*sorted(QUADRATIC_THETAS), "0.1", "22/7", "1/3"])
    @pytest.mark.parametrize("alpha", ["1/1000", "2/7", "1/2", "999/1000"])
    def test_lane_listing_matches_the_test_per_n(self, theta, alpha):
        # every block boundary of WEYL_LANES = 4096 lanes
        w = gen.gen_weyl(theta, alpha)
        listed = list(filter(weyl_member(theta, alpha), range(12290)))
        for horizon in (0, 1, 4095, 4096, 4097, 12289):
            assert w.members(horizon) == [n for n in listed if n <= horizon]
        # the largest horizon, against the kernel test at bit length 20, exact below 2^20
        horizon = (1 << 20) - 1
        s, mask, bound = gen._weyl_kernel(theta, Fraction(alpha))(horizon.bit_length())
        assert w.members(horizon) == [n for n in range(horizon + 1) if (s * n & mask) < bound]

    def test_horizon_past_the_cap_refused_before_any_lane(self, monkeypatch):
        def built(*args):
            raise AssertionError("a lane was built")

        monkeypatch.setattr(gen, "_weyl_mask", built)
        for horizon in (1 << 20, 10**12):
            with pytest.raises(LimitExceededError, match=f"weyl horizon {horizon} exceeds cap"):
                gen.gen_weyl("sqrt2", "3/10").members(horizon)


class TestPrimeFactorCounts:
    def test_phi_t_examples(self):
        assert gen.phi_t(6, 0) == 2
        assert gen.phi_t(6, 1) == 5
        assert gen.phi_t(6, 2) == 6

    def test_phi_0_is_totient(self):
        for k in range(1, 50):
            assert gen.phi_t(k, 0) == gen.euler_phi(k)

    def test_counting_cross_check(self):
        for k in range(1, 61):
            for t in range(0, 3):
                direct = sum(1 for a in range(1, k + 1) if gen.omega(math.gcd(a, k)) <= t)
                assert gen.phi_t(k, t) == direct, (k, t)

    def test_p1_members(self):
        assert gen.gen_p_t(1).members(10) == [2, 3, 4, 5, 7, 8, 9]

    def test_p0_empty(self):
        assert gen.gen_p_t(0).members(50) == []

    def test_residue_classes_with_rich_gcd_are_empty(self):
        # classes a + kN with omega(gcd(a, k)) > t contain no member at all,
        # so phi_t(k)/k bounds the attained-residue ratio
        for t in (1, 2):
            members = gen.gen_p_t(t).members(3000)
            for k in (6, 30, 60):
                allowed = {
                    a % k for a in range(1, k + 1) if gen.omega(math.gcd(a, k)) <= t
                }
                assert len(allowed) == gen.phi_t(k, t)
                assert {n % k for n in members} <= allowed


class TestThinBasis:
    def test_examples(self):
        assert gen.thin_basis(4) == (0, 1, 3)
        assert gen.thin_basis(10) == (0, 1, 2, 5, 8)
        assert gen.thin_basis(12) == (0, 1, 2, 3, 7, 11)

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            gen.thin_basis(1)

    def test_refined_bound_discrepancy_at_10(self):
        assert len(gen.thin_basis(10)) == 5
        assert gen.thin_basis_refined_bound(10) == 4

    def test_coverage_sampled(self):
        for m in (2, 3, 17, 100, 101, 9999):
            members = gen.thin_basis(m)
            sums = {a + b for a in members for b in members}
            assert set(range(m)).issubset(sums)
            assert len(members) < 2 * math.sqrt(m)

    def test_broken_basis_fails_its_row_under_optimize(self):
        # python -O strips assert statements; the certificate must survive it
        script = (
            "import buckdens.generators as g\n"
            "g.isqrt = lambda n: 1\n"
            "from buckdens.suites import suite_thin_basis\n"
            "print(suite_thin_basis(50).rows[0]['passed'])\n"
        )
        src = str(Path(gen.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_width_checked_before_any_doubled_sum(self, monkeypatch):
        def no_sum(bits, offsets):
            raise AssertionError("add_bits called")

        monkeypatch.setattr(gen, "add_bits", no_sum)
        with pytest.raises(LimitExceededError, match="thin_basis m 1048577 exceeds cap"):
            gen.thin_basis(2**20 + 1)


def per_m_thin_rows(m_max):
    """The thin-basis suite's rows from one thin_basis(m) call per m."""
    failures, misses = [], []
    for m in range(2, m_max + 1):
        try:
            members = gen.thin_basis(m)
        except CertificateError as exc:
            failures.append((m, str(exc)))
            continue
        if len(members) > gen.thin_basis_refined_bound(m):
            misses.append(m)
    return (
        {
            "check": f"cover {{0..m-1}} with |A| < 2 sqrt(m) for all 2 <= m <= {m_max}",
            "passed": not failures,
            "detail": "all hold" if not failures else f"failures: {failures[:3]}",
        },
        {
            "check": "stricter floor bound 2*floor(sqrt(m+1/4)-1/2) discrepancies (reported, not asserted)",
            "passed": True,
            "detail": f"{len(misses)} moduli exceed it, e.g. {misses[:8]}"
            + ("; includes m=10" if 10 in misses else ""),
        },
    )


class TestThinBasisSuite:
    def test_rows_equal_a_per_m_loop(self):
        assert suites.suite_thin_basis(3000).rows == per_m_thin_rows(3000)

    def test_rows_equal_a_per_m_loop_under_a_broken_construction(self, monkeypatch):
        build = gen.thin_basis_set

        def one_anchor_dropped(q, s):  # the last anchor of the shape (20, 19) is lost
            members, _ = build(q, s)
            if (q, s) == (20, 19):
                members = members[:-1]
            doubled = {a + b for a in members for b in members}
            return members, min(set(range(len(doubled) + 1)) - doubled)

        monkeypatch.setattr(gen, "thin_basis_set", one_anchor_dropped)
        monkeypatch.setattr(suites, "thin_basis_set", one_anchor_dropped)
        rows = suites.suite_thin_basis(3000).rows
        assert rows == per_m_thin_rows(3000)
        assert not rows[0]["passed"] and "(400, 'basis fails to cover {0..399}')" in rows[0]["detail"]

    def test_one_doubled_sum_per_shape(self, monkeypatch):
        calls = []
        add_bits = gen.add_bits

        def counted(bits, offsets):
            calls.append(bits)
            return add_bits(bits, offsets)

        monkeypatch.setattr(gen, "add_bits", counted)
        assert suites.suite_thin_basis(10**4).passed
        # two per shape: the set's mask, then its doubled sum
        assert 0 < len(calls) <= 2 * (2 * math.isqrt(10**4) + 2)


class TestBasisChain:
    def test_two_three(self):
        assert gen.basis_chain([2, 3]) == (0, 1, 2, 3)

    def test_single_is_base(self):
        assert gen.basis_chain([10]) == gen.thin_basis(10)

    def test_sparsify_preserves_residues(self):
        for moduli in ([2, 3], [4, 5, 6], [3, 5, 7]):
            total = math.prod(moduli)
            plain = gen.basis_chain(moduli)
            sparse = gen.basis_chain(moduli, sparsify=True)
            assert {x % total for x in plain} == {x % total for x in sparse}
            assert max(sparse) > max(plain)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gen.basis_chain([])

    @pytest.mark.parametrize("moduli", [[1048576, 1048576], [1000000000, 2], [1025, 1025]])
    def test_product_checked_before_any_component(self, monkeypatch, moduli):
        def no_component(m):
            raise AssertionError("thin_basis called")

        monkeypatch.setattr(gen, "thin_basis", no_component)
        with pytest.raises(LimitExceededError, match="basis_chain modulus product"):
            gen.basis_chain(moduli)


class TestHook:
    def test_members(self):
        assert gen.gen_hook().members(130) == [2, 4, 9, 28, 125]

    def test_membership(self):
        members = gen.gen_hook().members(28)
        assert 28 in members and 27 not in members

    def test_residue_coverage_mod3(self):
        first_six = gen.gen_hook().members(10**6)[:6]
        assert {n % 3 for n in first_six} >= {0, 1, 2}

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            gen.gen_hook("primorial")


class TestThreeDensity:
    def test_half_chain(self):
        half = Fraction(1, 2)
        assert gen._nested_residues(half, 1).bit_count() == 1
        assert gen._nested_residues(half, 1) == 1  # the mask of {0}
        assert int(half * 8) == 4 and gen._nested_residues(half, 3).bit_count() == 4

    def test_nesting(self):
        alpha = Fraction(3, 10)
        for k in range(1, 10):
            residues = gen._nested_residues(alpha, k)
            lifted = residues | residues << (1 << k)
            assert lifted & ~gen._nested_residues(alpha, k + 1) == 0

    def test_r_growth(self):
        alpha = Fraction(3, 10)
        for k in range(1, 11):
            r_k, r_next = (gen._nested_residues(alpha, j).bit_count() for j in (k, k + 1))
            assert r_next in (2 * r_k, 2 * r_k + 1)

    def test_membership_respects_windows(self):
        td = gen.gen_three_density(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        blocks = list(gen._density_blocks(10, Fraction(1, 2), 250))
        assert blocks == [(1, 10, 20), (2, 100, 200)]
        for n in td.members(250):
            assert (10 <= n <= 20) or (100 <= n <= 200)

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            gen.gen_three_density(Fraction(1, 2), Fraction(1, 2), Fraction(1))


class TestCombinators:
    def test_union_membership_and_members(self):
        u = gen.union_description([gen.gen_b_alpha("01"), gen.gen_x0()])
        members = u.members(6)
        assert 2 in members and 5 in members and 3 not in members
        assert members == [0, 1, 2, 4, 5, 6]

    def test_union_of_periodic_parts_is_periodic(self):
        u = gen.union_description([gen.gen_b_alpha("1"), gen.gen_b_alpha("01")])
        assert u.periodic_form is not None
        assert u.periodic_form.natural_density() == Fraction(3, 4)

    def test_union_profile_is_union(self):
        u = gen.union_description([gen.gen_b_alpha("001"), gen.gen_d_k((1,), rule="double_gap")])
        prof = u.profile(8)
        expect = set(gen.gen_b_alpha("001").profile(8).attained.members) | set(
            gen.gen_d_k((1,), rule="double_gap").profile(8).attained.members
        )
        assert set(prof.attained.members) == expect

    def test_sumset_members_match_enumeration(self):
        s = gen.sumset_description([gen.gen_x0(), gen.gen_b_alpha("1")])
        x0m = gen.gen_x0().members(60)
        odds = gen.gen_b_alpha("1").members(60)
        expect = sorted({a + b for a in x0m for b in odds if a + b <= 60})
        assert s.members(60) == expect
        assert expect[3] in s.members(expect[3])
        w, x0 = gen.gen_weyl("sqrt2", "3/10"), gen.gen_x0()
        wm, x0m = w.members(5000), x0.members(5000)
        assert gen.sumset_description([w, x0]).members(5000) == brute_sumset_members(wm, x0m, 5000)
        three = brute_sumset_members(brute_sumset_members(wm, x0m, 5000), x0m, 5000)
        assert gen.sumset_description([w, x0, x0]).members(5000) == three
        assert gen.sumset_description([w, x0]).members(-1) == []

    def test_sumset_shifts_the_denser_mask_by_the_sparser_members(self, shifts, enumerated):
        w, x0 = gen.gen_weyl("sqrt2", "3/10"), gen.gen_x0()
        x0m = x0.members(20000)
        expect = brute_sumset_members(w.members(20000), x0m, 20000)
        # x0's 64-bit words: a word P with two or more bits at k >= 2 starts
        # costs |P| + k shifts, any other |P| per start
        words = Counter(sum(1 << n % 64 for n in x0m if n // 64 == i) for i in {n // 64 for n in x0m})
        bound = sum(
            p.bit_count() + k if k > 1 and p & (p - 1) else p.bit_count() * k for p, k in words.items()
        )
        assert bound == 32 < len(x0m) == 192  # one shift per member of x0 would be 192
        for parts in ([w, x0], [x0, w]):
            shifts[0] = 0
            enumerated.clear()
            total = gen.sumset_description(parts)
            assert total.members(20000) == expect
            assert total.members_mask(20000) == sum(1 << n for n in expect)
            assert shifts == [bound]  # x0 supplies the offsets, not the 5716 members of weyl
            assert enumerated == ["sumset"]  # the summands' masks are kept; the sum's is its slot

    def test_sumset_of_a_digit_set_with_itself_shares_repeated_words(self, shifts):
        d = gen.gen_d_k((1, 3, 7, 15), rule="double_gap")
        h = 1 << 16
        mask = d.members_mask(h)
        shift_or = gen.add_bits(mask, bit_positions(mask)) & ((2 << h) - 1)
        assert mask.bit_count() == 4097  # the shifts of one per member, against 273
        assert gen.sumset_description([d, d]).members_mask(h) == shift_or
        assert shifts == [273]

    def test_sampled_sumset_does_not_load_the_oracle(self):
        script = (
            "import sys\n"
            "import buckdens\n"
            "from buckdens.generators import gen_weyl, gen_x0, sumset_description\n"
            "sumset_description([gen_weyl('sqrt2', '3/10'), gen_x0()]).members(2000)\n"
            "print('buckdens.oracle' in sys.modules)\n"
        )
        src = str(Path(gen.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_enumerated_residues_within_oracle_profile(self):
        for desc in (gen.gen_b_alpha("1011"), gen.gen_d_k((0, 2), rule="double_gap"), gen.gen_x0()):
            for m in (2, 8, 64):
                seen = {n % m for n in desc.members(1 << 12)}
                oracle = set(desc.profile(m).attained.members)
                assert seen <= oracle
                assert seen == oracle  # horizon covers a full period of evidence

    def test_sumset_profile_matches_enumeration(self):
        pairs = (
            (gen.gen_x0(), gen.gen_b_alpha("101")),
            (gen.gen_d_k((1, 3), rule="double_gap"), gen.gen_x0()),
        )
        for a, b in pairs:
            total = gen.sumset_description([a, b])
            members = total.members(1 << 12)
            for m in (4, 16, 64):
                seen = {n % m for n in members}
                assert seen == set(total.profile(m).attained.members), (a.family, b.family, m)

    def test_sumset_profile_with_finite_component(self):
        singleton = gen.gen_d_k((0,), rule="arithmetic", step=1)  # just {0}
        total = gen.sumset_description([singleton, gen.gen_b_alpha("1")])
        prof = total.profile(4)
        assert prof.attained.members == (1, 3)

    def test_enumerated_residues_match_profiles_at_depth(self):
        # deep version: supported moduli up to 2^12, members to 2^16
        descriptions = (
            gen.gen_b_alpha("1011"),
            gen.gen_d_k((1, 3), rule="double_gap"),
            gen.gen_x0(),
        )
        for desc in descriptions:
            members = desc.members(1 << 16)
            for m in (1 << 6, 1 << 10, 1 << 12):
                seen = {n % m for n in members}
                oracle = set(desc.profile(m).attained.members)
                assert seen == oracle, (desc.family, m)


def _raw_periodic(rng: random.Random) -> per.EventuallyPeriodicSet:
    """A seeded nonempty periodic set with an arbitrary prefix: period q <= 12,
    threshold a multiple of q up to 4q, and a possibly empty (finite) tail."""
    q = rng.randint(1, 12)
    t = q * rng.randint(0, 4)
    prefix = [n for n in range(t) if rng.random() < 0.4]
    tail = [r for r in range(q) if rng.random() < 0.3]
    if not prefix and not tail:
        tail = [rng.randrange(q)]
    return per.from_json_dict({"q": q, "T": t, "prefix": prefix, "tail": tail})


def _profile_only(eps: per.EventuallyPeriodicSet) -> gen.SetDescription:
    """The set as a description with its exact profile at every modulus but no
    periodic form, so unions and sums combine it by the profile rules."""
    return gen.SetDescription("raw", builder=eps.members_mask, profile_fn=eps.modular_profile)


class TestProfileContract:
    """Union and sum profiles of descriptions without a periodic form, against
    the exact profile of the periodic union and sum: attained residues equal,
    cofinitely attained ones a subset, and no smaller than the rule they
    replace."""

    MODULI = (1, 2, 3, 4, 6, 8, 12, 24)

    @pytest.mark.parametrize("seed", range(6))
    def test_union_and_sum_profiles(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            sets = [_raw_periodic(rng) for _ in range(rng.choice((2, 2, 3)))]
            descs = [_profile_only(eps) for eps in sets]
            union = gen.union_description(descs)
            total = gen.sumset_description(descs)
            assert union.periodic_form is None and total.periodic_form is None
            exact_union, exact_sum = sets[0], sets[0]
            for eps in sets[1:]:
                exact_union, exact_sum = per.union(exact_union, eps), per.add(exact_sum, eps)
            for m in self.MODULI:
                parts = [eps.modular_profile(m).cofinitely_attained for eps in sets]
                old_union = reduce(ResidueSet.union, parts)
                old_sum = ResidueSet(m, 0) if any(c.is_empty() for c in parts) else sumset(parts)
                for got, exact, old in (
                    (union.profile(m), exact_union.modular_profile(m), old_union),
                    (total.profile(m), exact_sum.modular_profile(m), old_sum),
                ):
                    assert got.attained == exact.attained, (sets, m)
                    assert old.issubset(got.cofinitely_attained), (sets, m)
                    assert got.cofinitely_attained.issubset(exact.cofinitely_attained), (sets, m)

    def test_sum_with_x0_holds_every_shifted_class(self):
        # P = 1 + 4N and X0 meets 0 and 1 mod 4: cof(P + X0) is every class 1 or 2 mod 4
        p = gen.from_periodic(per.from_progressions([(1, 4)]))
        prof = gen.sumset_description([p, gen.gen_x0()]).profile(64)
        assert prof.cofinitely_attained.cardinality == 32
        assert prof.cofinitely_attained == prof.attained


class TestMissingProfiles:
    """A family with no exact profile mod m returns None there, and the
    residues are then sampled and reported as not exact."""

    FAMILIES = {
        "weyl": lambda: gen.gen_weyl("sqrt2", "3/10"),
        "p_t": lambda: gen.gen_p_t(1),
        "hook": gen.gen_hook,
        "three_density": lambda: gen.gen_three_density("1/2", "1/2", "1/2"),
        "union": lambda: gen.union_description([gen.gen_b_alpha("1"), gen.gen_p_t(1)]),
        "sumset": lambda: gen.sumset_description([gen.gen_x0(), gen.gen_p_t(1)]),
        "d_k": lambda: gen.gen_d_k((1, 3), rule="double_gap"),
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_profile_is_none_where_the_family_has_none(self, family):
        # only a ruled d_k has profiles here, and exactly at the powers of two
        desc = self.FAMILIES[family]()
        for m in (1, 2, 3, 6, 8, 12):
            exact = family == "d_k" and m in (1, 2, 8)
            assert (desc.profile(m) is not None) == exact, m
            assert dens.attained_residues(desc, m, 3000)[1] == exact, m


def listing(member: Callable[[int], bool]) -> Callable[[int], list[int]]:
    """The reference listing of a membership rule: every n <= h tested."""
    return lambda h: [n for n in range(h + 1) if member(n)]


def any_of(*members: Callable[[int], bool]) -> Callable[[int], bool]:
    return lambda n: any(member(n) for member in members)


def valuation_member(bits: str) -> Callable[[int], bool]:
    """b_alpha: n > 0 whose 2-adic valuation v has a_(v + 1) = 1."""
    def member(n: int) -> bool:
        j = (n & -n).bit_length()  # v + 1
        return n > 0 and j <= len(bits) and bits[j - 1] == "1"

    return member


def digits_member(positions: Iterable[int]) -> Callable[[int], bool]:
    """d_k and x0: n whose binary digits vanish at every given position."""
    positions = tuple(positions)
    return lambda n: not any(n >> p & 1 for p in positions)


def omega_by_trial_division(n: int) -> int:
    count, p = 0, 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (n > 1)


def p_t_member(t: int) -> Callable[[int], bool]:
    return lambda n: n >= 2 and omega_by_trial_division(n) <= t


def three_density_member(alpha, beta, gamma, n_base: int = 10) -> Callable[[int], bool]:
    """n in a block [N_k, N_k / (1 - gamma)], N_k = n_base^k, with n mod 2^k
    in R_k and {sqrt2 n} < beta.  R_k is R_(k-1) lifted to both halves of
    the residues mod 2^k, topped up with the least missing residues to
    floor(alpha 2^k) members."""
    alpha, gamma = Fraction(alpha), Fraction(gamma)
    below_beta = weyl_member("sqrt2", beta)
    chain = [set()]  # R_0, R_1, ...

    def residues(k: int) -> set:
        while len(chain) <= k:
            j = len(chain)
            r_j = chain[-1] | {r + (1 << (j - 1)) for r in chain[-1]}
            missing = (r for r in range(1 << j) if r not in r_j)
            while len(r_j) < int(alpha * (1 << j)):
                r_j.add(next(missing))
            chain.append(r_j)
        return chain[k]

    def member(n: int) -> bool:
        k, low = 1, n_base
        while low <= n:
            if n <= low / (1 - gamma) and n % (1 << k) in residues(k):
                return below_beta(n)
            k, low = k + 1, low * n_base
        return False

    return member


def periodic_listing(make: Callable[[], per.EventuallyPeriodicSet]) -> Callable[[int], list[int]]:
    """The listing by ``EventuallyPeriodicSet.__contains__`` of the set ``make()``."""
    def listed(h: int) -> list[int]:
        eps = make()
        return [n for n in range(h + 1) if n in eps]

    return listed


#: the forbidden digit positions below 64, past every n listed here
DK_FINITE, DK_RULED, X0_POSITIONS = (1, 3), (1, 3, 7, 15, 31), range(1, 64, 2)
WEYL = weyl_member("sqrt2", "3/10")
HOOK = {r + math.factorial(r) for r in range(1, 30)}.__contains__  # r + k_1 ... k_r, k_r = r
PERIODIC = {"q": 6, "T": 12, "prefix": [0, 4, 7], "tail": [1, 3]}

FAMILIES = [
        pytest.param(lambda: gen.gen_b_alpha("1011"), 600, listing(valuation_member("1011")), id="b_alpha"),
        pytest.param(lambda: gen.gen_d_k((1, 3)), 600, listing(digits_member(DK_FINITE)), id="d_k-finite"),
        pytest.param(lambda: gen.gen_d_k((1, 3), rule="double_gap"), 600, listing(digits_member(DK_RULED)),
                     id="d_k-ruled"),
        pytest.param(gen.gen_x0, 600, listing(digits_member(X0_POSITIONS)), id="x0"),
        pytest.param(lambda: gen.gen_weyl("sqrt2", "3/10"), 600, listing(WEYL), id="weyl"),
        *(pytest.param(lambda t=t: gen.gen_p_t(t), 3000, listing(p_t_member(t)), id=f"p_t-{t}")
          for t in range(4)),
        pytest.param(gen.gen_hook, 10**4, listing(HOOK), id="hook"),
        pytest.param(lambda: gen.gen_three_density("1/2", "1/2", "1/2"), 25000,
                     listing(three_density_member("1/2", "1/2", "1/2")), id="three_density-1/2"),
        # gamma = 19/20 stretches block k to [10^k, 2 * 10^(k+1)], past the next block's start
        pytest.param(
            lambda: gen.gen_three_density("3/10", "2/5", "19/20"), 25000,
            listing(three_density_member("3/10", "2/5", "19/20")), id="three_density-19/20",
        ),
        pytest.param(lambda: gen.parse_description({"family": "thin_basis", "m": 50}), 100,
                     periodic_listing(lambda: per.from_finite(gen.thin_basis(50))), id="thin_basis"),
        pytest.param(
            lambda: gen.union_description([gen.gen_weyl("sqrt2", "3/10"), gen.gen_p_t(1)]), 2000,
            listing(any_of(WEYL, p_t_member(1))), id="union",
        ),
        # the hook summand comes first, so the sum starts from the mask of a listed part
        pytest.param(
            lambda: gen.sumset_description([gen.gen_hook(), gen.gen_weyl("sqrt2", "3/10")]), 600,
            lambda h: brute_sumset_members(listing(HOOK)(h), listing(WEYL)(h), h), id="sampled-sumset-hook",
        ),
        pytest.param(lambda: gen.parse_description({"family": "basis_chain", "moduli": [3, 5]}), 100,
                     periodic_listing(lambda: per.from_finite(gen.basis_chain([3, 5]))), id="basis_chain"),
        pytest.param(lambda: gen.parse_description(PERIODIC), 100,
                     periodic_listing(lambda: per.from_json_dict(PERIODIC)), id="periodic"),
        pytest.param(lambda: gen.union_description([gen.gen_hook(), gen.gen_p_t(0)]), 2000,
                     listing(any_of(HOOK, p_t_member(0))), id="union-with-hook"),
        pytest.param(lambda: gen.union_description([gen.gen_b_alpha("01"), gen.gen_x0()]), 600,
                     listing(any_of(valuation_member("01"), digits_member(X0_POSITIONS))),
                     id="union-periodic-x0"),
]


@pytest.mark.parametrize("build, horizon, reference", [*FAMILIES, pytest.param(
    lambda: gen.sumset_description([gen.gen_weyl("sqrt2", "3/10"), gen.gen_x0()]), 600,
    lambda h: brute_sumset_members(listing(WEYL)(h), listing(digits_member(X0_POSITIONS))(h), h),
    id="sampled-sumset",
)])
def test_members_are_the_members_by_membership(build, horizon, reference):
    # the reference listing, from the family's definition: no builder of buckdens
    desc = build()
    for h in (-1, 0, 1, horizon):
        assert desc.members(h) == reference(h), h


@pytest.mark.parametrize("build, horizon, reference", FAMILIES)
def test_members_mask_is_the_mask_by_membership(build, horizon, reference):
    # the mask of the reference listing, as a binary numeral: no zmod kernel;
    # the horizons straddle byte, word and WEYL_LANES = 4096 block boundaries
    desc = build()
    for h in (0, 1, 7, 8, 63, 64, 4095, 4096, 4097, 12289):
        listed = set(reference(h))
        digits = "".join("1" if n in listed else "0" for n in reversed(range(h + 1)))
        assert desc.members_mask(h) == int(digits, 2), h


def test_repr_names_the_family_only():
    assert repr(gen.gen_x0()) == "SetDescription('x0')"
    assert repr(gen.gen_d_k((1, 3))) == "SetDescription('d_k')"
    assert repr(gen.gen_three_density("1/2", "1/2", "1/2")) == "SetDescription('three_density')"


class TestMembersCache:
    def test_one_slot_per_description(self):
        listed = []

        def threes(horizon):
            listed.append(horizon)
            return list(range(0, horizon + 1, 3))

        desc = gen.SetDescription("threes", builder=threes)
        first = desc.members(30)
        assert desc.members(30) is first and listed == [30]
        assert desc.members(12) == [0, 3, 6, 9, 12] and listed == [30, 12]
        assert desc.members(30) == first and desc.members(30) is not first
        copy = replace(desc)
        assert copy.members(30) == first and listed == [30, 12, 30, 30]

    def test_mask_read_off_the_list(self):
        desc = gen.SetDescription("threes", builder=lambda h: list(range(0, h + 1, 3)))
        assert desc.members_mask(9) == desc.members_mask(9) == 0b1001001001
        assert desc.members_mask(4) == 0b1001

    def test_listed_and_masked_forms_agree_on_every_reader(self, enumerated):
        listed = gen.SetDescription("listed", builder=lambda h: list(range(0, h + 1, 3)))
        masked = gen.SetDescription(
            "masked", builder=lambda h: int("001" * (h // 3 + 1), 2) & ((1 << h + 1) - 1)
        )
        for h in (0, 1, 2, 3, 40):
            enumerated.clear()
            answers = [
                (
                    d.members(h),
                    d.members_mask(h),
                    d.positive_count(h),
                    [d.residues(m, h) for m in (1, 2, 3, 7)],
                    d.built_members(h),
                )
                for d in (listed, masked)
            ]
            assert enumerated == ["listed", "masked"], h  # one build per horizon
            (members, mask, count, residues, as_built), other = answers
            assert other[:4] == (members, mask, count, residues), h
            assert as_built == members == bit_positions(other[4]), h
            assert members == list(range(0, h + 1, 3)) and count == h // 3, h

    def test_union_with_a_listed_part_builds_a_mask_below_the_cap(self):
        hook, x0 = gen.gen_hook(), gen.gen_x0()
        built = gen.union_description([hook, x0]).built_members(5000)
        assert isinstance(built, int)
        assert bit_positions(built) == sorted(set(hook.members(5000)) | set(x0.members(5000)))

    def test_mask_of_a_list_past_the_cap_is_refused(self):
        with pytest.raises(LimitExceededError, match="^hook mask 355687428096018 exceeds cap"):
            gen.gen_hook().members_mask(10**15)

    def test_union_with_a_listed_part_lists_past_the_cap(self):
        finite = gen.parse_description({"q": 1, "T": 3, "prefix": [0, 2]})
        built = gen.union_description([gen.gen_hook(), finite]).built_members(10**15)
        assert built == [0] + [r + math.factorial(r) for r in range(1, 18)]


#: one description of every family with a mask, and the name its refusal gives
WIDTH_GUARDED = [
    pytest.param(lambda: gen.gen_b_alpha("01"), "periodic", id="b_alpha"),
    pytest.param(lambda: gen.gen_d_k((1, 3), rule="double_gap"), "d_k", id="d_k-ruled"),
    pytest.param(gen.gen_x0, "x0", id="x0"),
    pytest.param(lambda: gen.gen_weyl("sqrt2", "3/10"), "weyl", id="weyl"),
    pytest.param(lambda: gen.gen_p_t(1), "p_t", id="p_t"),
    pytest.param(lambda: gen.gen_three_density("1/2", "1/2", "1/2"), "three_density", id="three_density"),
    pytest.param(lambda: gen.parse_description({"progressions": [[1, 2]]}), "periodic", id="progressions"),
    pytest.param(lambda: gen.parse_description({"q": 6, "T": 12, "prefix": [0, 4, 7], "tail": [1, 3]}),
                 "periodic", id="periodic"),
    # past the cap a union lists its parts, and the first to refuse is named
    pytest.param(lambda: gen.union_description([gen.gen_b_alpha("01"), gen.gen_weyl("sqrt2", "3/10")]),
                 "periodic", id="union"),
    pytest.param(lambda: gen.sumset_description([gen.gen_weyl("sqrt2", "3/10"), gen.gen_x0()]),
                 "sumset", id="sampled-sumset"),
]


@pytest.mark.parametrize("build, named", WIDTH_GUARDED)
def test_mask_past_the_cap_is_refused_before_it_is_built(build, named):
    desc = build()
    tracemalloc.start()
    try:
        with pytest.raises(LimitExceededError, match=f"^{named} horizon {MAX_MODULUS} exceeds cap"):
            desc.members_mask(MAX_MODULUS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a listed family and a finite set still build past the cap
    assert gen.gen_hook().members(10**15) == [r + math.factorial(r) for r in range(1, 18)]
    assert gen.parse_description({"q": 1, "T": 3, "prefix": [0, 2]}).members_mask(10**12) == 0b101


class TestParseDescription:
    CASES = (
        {"family": "b_alpha", "bits": "101"},
        {"family": "d_k", "k_prefix": [1, 3], "rule": "double_gap"},
        {"family": "x0"},
        {"family": "weyl", "theta": "sqrt2", "alpha": "3/10"},
        {"family": "p_t", "t": 1},
        {"family": "thin_basis", "m": 10},
        {"family": "basis_chain", "moduli": [2, 3, 4], "sparsify": True},
        {"family": "hook", "rule": "factorial"},
        {
            "family": "three_density",
            "alpha": "3/10",
            "beta": "1/2",
            "gamma": "1/2",
        },
        {"family": "union", "of": [{"family": "b_alpha", "bits": "001"}, {"family": "x0"}]},
        {"progressions": [[1, 3], [2, 6]]},
        {"q": 2, "T": 0, "prefix": [], "tail": [1]},
    )

    def test_all_family_schemas(self):
        for obj in self.CASES:
            desc = gen.parse_description(obj)
            assert desc.members(40) is not None

    def test_thin_basis_round_trip(self):
        desc = gen.parse_description({"family": "thin_basis", "m": 10})
        assert desc.members(10) == [0, 1, 2, 5, 8]
        # a finite set's mask ends at its threshold, however far the horizon
        assert desc.members(10**15) == [0, 1, 2, 5, 8] and desc.members_mask(10**15).bit_length() == 9

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            gen.parse_description({"family": "mystery"})

    def test_missing_field_is_named(self):
        with pytest.raises(ValueError, match="bits"):
            gen.parse_description({"family": "b_alpha"})

    def test_non_object(self):
        with pytest.raises(ValueError):
            gen.parse_description([1, 2])
