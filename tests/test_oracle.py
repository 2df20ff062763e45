import ast
from math import gcd
from pathlib import Path

import pytest

from buckdens import oracle, suites
from buckdens.oracle import (
    brute_arithmetic_progression,
    brute_quasi_periodic,
    brute_sumset_members,
    exhaustive_kemperman_ap,
    exhaustive_kneser,
)
from buckdens.zmod import (
    ResidueSet,
    cyclic_add_bits,
    detect_arithmetic_progression,
    detect_quasi_periodic,
    kneser_bits,
    rotate_bits,
    saturate_bits,
    stabilizer_generator_bits,
    sumset_bits,
)


def test_quasi_periodic_agreement_small_moduli():
    for m in range(1, 9):
        for enc in range(1, 1 << m):
            s = ResidueSet(m, enc)
            for flag in (False, True):
                assert brute_quasi_periodic(s, flag) == (
                    detect_quasi_periodic(s, flag) is not None
                ), (m, enc, flag)


def _unrestricted_quasi_periodic(s, require_nonempty_remainder):
    """Definitional search trying every nonempty proper subset of K,
    not just the forced trace."""
    from itertools import combinations

    from buckdens.zmod import divisors

    m = s.modulus
    members = set(s.members)
    for d in divisors(m):
        if d < m and members == {(x + d) % m for x in members}:
            return False  # periodic
    for d in divisors(m):
        if d <= 1 or d >= m:
            continue
        subgroup = sorted(range(0, m, d))
        for size in range(1, len(subgroup)):
            for chunk in combinations(subgroup, size):
                removed_base = set(chunk)
                for shift in members:
                    remainder = members - {(shift + x) % m for x in removed_base}
                    if require_nonempty_remainder and not remainder:
                        continue
                    if {(x + d) % m for x in remainder} == remainder:
                        return True
    return False


def test_forced_trace_matches_unrestricted_definition():
    # removing the full coset trace is equivalent to removing any
    # shifted proper subset of the subgroup
    for m in range(1, 9):
        for enc in range(1, 1 << m):
            s = ResidueSet(m, enc)
            for flag in (False, True):
                assert _unrestricted_quasi_periodic(s, flag) == (
                    detect_quasi_periodic(s, flag) is not None
                ), (m, enc, flag)


def test_brute_quasi_periodic_examples():
    assert brute_quasi_periodic(ResidueSet.of(4, [0, 1, 2]))
    assert not brute_quasi_periodic(ResidueSet.of(5, [0, 1, 3]))  # prime modulus
    assert not brute_quasi_periodic(ResidueSet.of(6, [0, 1, 3, 4]))  # periodic input


def test_exhaustive_kneser_small():
    for m in (1, 2, 6):
        assert exhaustive_kneser(m) is None


def test_exhaustive_kneser_range():
    with pytest.raises(ValueError):
        exhaustive_kneser(oracle.KNESER_MODULUS_CAP + 1)
    with pytest.raises(ValueError):
        exhaustive_kneser(0)


def test_exhaustive_kemperman_small():
    for m in (2, 7, 8):
        assert exhaustive_kemperman_ap(m) is None
        assert exhaustive_kemperman_ap(m, require_nonempty_periodic_part=True) is None


def test_exhaustive_kemperman_at_its_cap():
    cap = oracle.KEMPERMAN_MODULUS_CAP
    assert exhaustive_kemperman_ap(cap) is None
    assert exhaustive_kemperman_ap(cap, require_nonempty_periodic_part=True) is None
    with pytest.raises(ValueError, match="m must be"):
        exhaustive_kemperman_ap(cap + 1)


@pytest.mark.parametrize(
    "suite, sweep, cap",
    [
        (suites.suite_kneser_exhaustive, "exhaustive_kneser", oracle.KNESER_MODULUS_CAP),
        (suites.suite_kemperman_ap, "exhaustive_kemperman_ap", oracle.KEMPERMAN_MODULUS_CAP),
    ],
)
def test_suite_refuses_m_max_past_the_cap_before_any_sweep(monkeypatch, suite, sweep, cap):
    swept = []
    monkeypatch.setattr(suites, sweep, lambda m, *args, **kwargs: swept.append(m))
    with pytest.raises(ValueError, match="m_max"):
        suite(m_max=cap + 1)
    assert swept == []


def test_brute_sumset_members():
    odds = list(range(1, 16, 2))
    assert brute_sumset_members(odds, odds, 10) == [2, 4, 6, 8, 10]
    ys = [0, 3, 5, 9]
    assert brute_sumset_members([0], ys, 6) == [0, 3, 5]
    assert brute_sumset_members([], ys, 6) == []


def test_brute_sumset_members_x0():
    x0 = [0, 1, 4, 5, 16, 17, 20, 21]
    got = brute_sumset_members(x0, x0, 21)
    assert 2 in got and 5 in got and 6 in got and 8 in got
    assert all(n % 4 != 3 for n in got)


def test_brute_sumset_members_edges():
    assert brute_sumset_members([0, 2], [1, 3], -1) == []
    assert brute_sumset_members([0, 2], [], 9) == []
    assert brute_sumset_members([5], [5], 9) == []
    assert brute_sumset_members([2, 0, 2], [3, 1], 9) == [1, 3, 5]  # any order, duplicates too


def test_brute_references_run_no_zmod_helper():
    # the plain-set references must not share code with what they check
    tree = ast.parse(Path(oracle.__file__).read_text())
    from_zmod = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "zmod"
        for alias in node.names
    }
    assert "kneser_bits" in from_zmod  # the sweeps still run the library's checks
    brutes = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("brute_")]
    assert len(brutes) == 3
    for fn in brutes:
        named = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
        assert named & from_zmod <= {"ResidueSet"}, fn.name


def _orbit(enc, m):
    return {rotate_bits(enc, t, m) for t in range(m)}


def _units(m):
    return [u for u in range(1, m) if gcd(u, m) == 1] or [0]  # Z/1Z: u = 0 is the unit


def _scaled(enc, u, m):
    """The encoding of {u x mod m : x in S}, from the plain member list."""
    return sum({1 << (u * x % m) for x in range(m) if enc >> x & 1})


def _affine_orbit(enc, m):
    return {y for u in _units(m) for y in _orbit(_scaled(enc, u, m), m)}


def _filtered_representatives(m):
    """The rotation representatives by testing every odd encoding (the
    filter the necklace walk replaced)."""
    return [
        e for e in range(1, 1 << m, 2) if all(rotate_bits(e, t, m) >= e for t in range(1, m))
    ]


@pytest.mark.parametrize("m", range(1, 17))
def test_necklaces_match_the_rotation_filter(m):
    assert oracle._rotation_representatives(m) == _filtered_representatives(m)


@pytest.mark.parametrize("m", range(1, 11))
def test_representatives_cover_every_subset(m):
    reps = oracle._rotation_representatives(m)
    assert reps == sorted(reps)
    assert all(enc == min(_orbit(enc, m)) for enc in reps)
    covered = set().union(*(_orbit(enc, m) for enc in reps))
    assert covered == set(range(1, 1 << m))


@pytest.mark.parametrize("m", range(1, 11))
def test_affine_representatives_cover_every_subset(m):
    reps = oracle._affine_representatives(m, oracle._rotation_representatives(m))
    assert reps == sorted(reps)
    orbits = [_affine_orbit(enc, m) for enc in reps]
    assert all(enc == min(orbit) for enc, orbit in zip(reps, orbits))
    assert sum(map(len, orbits)) == (1 << m) - 1  # disjoint classes
    assert set().union(*orbits) == set(range(1, 1 << m))


@pytest.mark.parametrize("m", range(1, 8))
def test_pairs_past_m_members_pass_with_a_full_sum(m):
    # the pigeonhole skip of the Kneser sweep: |A| + |B| > m settles the pair
    full = (1 << m) - 1
    for a in range(1, full + 1):
        for b in range(1, full + 1):
            if a.bit_count() + b.bit_count() > m:
                d, mult, size, bound, _ = kneser_bits([a, b], m)
                assert (d, mult, size, bound) == (1, (1, 1), m, m), (m, a, b)


@pytest.mark.parametrize("m", range(1, 8))
def test_swept_pairs_cover_every_pair(monkeypatch, m):
    # a common unit multiplier, rotating each part and swapping close the
    # pairs the Kneser sweep visits up to all (2^m - 1)^2 ordered nonempty pairs
    visited = []
    monkeypatch.setattr(
        oracle, "_kneser_violated", lambda m, a, b: visited.append((a, b))
    )
    assert exhaustive_kneser(m) is None
    pairs = set()
    for a, b in visited:
        for u in _units(m):
            for x in _orbit(_scaled(a, u, m), m):
                for y in _orbit(_scaled(b, u, m), m):
                    pairs.update({(x, y), (y, x)})
    assert len(pairs) == ((1 << m) - 1) ** 2


def _kneser_quantities(enc1, enc2, m):
    """|S1+S2|, the stabilizer generator, and (|S_i+H|, |S_i|) per part."""
    total = sumset_bits([enc1, enc2], m)
    d = stabilizer_generator_bits(total, m)
    parts = tuple((saturate_bits(e, d, m).bit_count(), e.bit_count()) for e in (enc1, enc2))
    return total.bit_count(), d, parts


@pytest.mark.parametrize("m", range(1, 7))
def test_kneser_quantities_invariant_under_rotation(m):
    full = 1 << m
    for enc1 in range(1, full):
        for enc2 in range(enc1, full):
            want = _kneser_quantities(enc1, enc2, m)
            size, d, parts = _kneser_quantities(enc2, enc1, m)
            assert (size, d, parts[::-1]) == want, (m, enc1, enc2)
            for t in range(1, m):
                assert _kneser_quantities(rotate_bits(enc1, t, m), enc2, m) == want
                assert _kneser_quantities(enc1, rotate_bits(enc2, t, m), m) == want


def test_kneser_first_hit_matches_full_scan(monkeypatch):
    # no Kneser violation exists, so plant a predicate with the same
    # symmetries and check the sweep reports the full scan's first pair
    def planted(m, enc1, enc2):
        a, b = enc1.bit_count(), enc2.bit_count()
        return min(a, b) >= 2 and a != b and sumset_bits([enc1, enc2], m).bit_count() == a + b

    monkeypatch.setattr(oracle, "_kneser_violated", planted)
    hits = 0
    for m in range(3, 9):
        full = range(1, 1 << m)
        want = next(((a, b) for a in full for b in full if planted(m, a, b)), None)
        got = exhaustive_kneser(m)
        assert (got and (got[0].bits, got[1].bits)) == want, m
        hits += want is not None
    assert hits == 4


def test_kemperman_first_hit_matches_full_scan(monkeypatch):
    # with no set called quasi-periodic, the first hit is the first S
    # whose critical doubling is not periodic while S is not an AP
    monkeypatch.setattr(oracle, "detect_quasi_periodic", lambda s, flag=False: None)
    hits = 0
    for m in range(3, 10):
        want = None
        for enc in range(1, 1 << m):
            s = ResidueSet(m, enc)
            doubled = sumset_bits([enc, enc], m)
            if (
                doubled.bit_count() == 2 * s.cardinality - 1
                and stabilizer_generator_bits(doubled, m) == m
                and not brute_arithmetic_progression(s)
            ):
                want = s
                break
        assert exhaustive_kemperman_ap(m) == want, m
        hits += want is not None
    assert hits == 3


@pytest.mark.parametrize("m", range(1, 13))
def test_kemperman_classify_agrees_with_plain_sets(m):
    # the decisions the Kemperman sweep reads on these sets, to m = 12: the
    # doubled mask, its stabilizer, its quasi-periodicity and S being an AP
    for enc in oracle._rotation_representatives(m):
        s = ResidueSet(m, enc)
        doubled = {(x + y) % m for x in s for y in s}
        if len(doubled) != 2 * s.cardinality - 1:
            continue
        periodic = any({(x + d) % m for x in doubled} == doubled for d in range(1, m))
        found = ResidueSet(m, cyclic_add_bits(enc, enc, m))
        for flag in (False, True):
            assert found == ResidueSet.of(m, doubled)
            assert (stabilizer_generator_bits(found.bits, m) != m) == periodic, (m, enc)
            if not periodic:
                assert (detect_quasi_periodic(found, flag) is not None) == (
                    brute_quasi_periodic(found, flag)
                )
                assert (detect_arithmetic_progression(found) is not None) == (
                    brute_arithmetic_progression(found)
                )
            base_ap = detect_arithmetic_progression(s)
            assert (base_ap is not None) == brute_arithmetic_progression(s), (m, enc)
