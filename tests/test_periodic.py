import json
import random
from fractions import Fraction
from functools import partial
from math import lcm
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buckdens import periodic as per
from buckdens.periodic import EventuallyPeriodicSet
from buckdens.zmod import LimitExceededError, ResidueSet


progressions = st.lists(
    st.tuples(st.integers(0, 30), st.integers(1, 12)), min_size=1, max_size=4
)


def naive_member(terms, n):
    return any(n >= a and (n - a) % k == 0 for a, k in terms)


@st.composite
def raw_forms(draw):
    """A raw {"q", "T", "prefix", "tail"} form with an arbitrary prefix."""
    q = draw(st.integers(1, 12))
    t = q * draw(st.integers(0, 4))
    mask = draw(st.integers(0, (1 << t) - 1))
    tail = draw(st.sets(st.integers(0, q - 1)))
    return {"q": q, "T": t, "prefix": [n for n in range(t) if mask >> n & 1], "tail": sorted(tail)}


def raw_member(raw, n):
    return n in raw["prefix"] if n < raw["T"] else n % raw["q"] in raw["tail"]


class Case(NamedTuple):
    """A set, its plain membership test, and a start past which that
    test is periodic with the given period."""

    eps: EventuallyPeriodicSet
    member: Callable[[int], bool]
    start: int
    period: int


def _progression_case(terms):
    return Case(
        per.from_progressions(terms),
        partial(naive_member, terms),
        max(a for a, _ in terms),
        lcm(*(k for _, k in terms)),
    )


def _raw_case(raw):
    return Case(per.from_json_dict(raw), partial(raw_member, raw), raw["T"], raw["q"])


# structured prefixes (unions of progressions) and arbitrary ones
cases = st.one_of(progressions.map(_progression_case), raw_forms().map(_raw_case))


class TestFromProgressions:
    def test_single_progression(self):
        a = per.from_progressions([(1, 3)])
        assert 7 in a and 6 not in a and 1 in a
        assert a.natural_density() == Fraction(1, 3)

    def test_union_density(self):
        a = per.from_progressions([(1, 3), (2, 6)])
        assert a.natural_density() == Fraction(1, 2)
        assert sorted(a.tail) == [1, 2, 4] and a.period == 6

    def test_naturals(self):
        a = per.from_progressions([(0, 1)])
        assert a == per.from_residues(1, [0])
        assert a.natural_density() == 1

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            per.from_progressions([(1, 0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            per.from_progressions([])

    @given(progressions)
    @settings(max_examples=150)
    def test_membership_matches_naive_union(self, terms):
        a = per.from_progressions(terms)
        top = max(x for x, _ in terms)
        for n in list(range(0, 50)) + [top + j for j in range(-3, 60)]:
            if n < 0:
                continue
            assert (n in a) == naive_member(terms, n), (terms, n)


class TestCanonicalForm:
    def test_equality_of_equivalent_presentations(self):
        a = per.from_progressions([(1, 3)])
        b = per.from_progressions([(1, 3), (4, 3), (7, 6), (10, 6)])
        assert a == b

    def test_minimal_period(self):
        a = per.from_progressions([(0, 2), (1, 2)])
        assert a.period == 1 and a.threshold == 0

    def test_noncanonical_constructions_rejected(self):
        with pytest.raises(ValueError, match="minimal"):
            EventuallyPeriodicSet(4, 0, 0, ResidueSet.of(4, [0, 2]))
        with pytest.raises(ValueError, match="threshold"):
            EventuallyPeriodicSet(2, 2, 0b10, ResidueSet.of(2, [1]))

    def test_finite_set_representation(self):
        f = per.from_finite([5, 2])
        assert f.period == 1 and f.tail.is_empty()
        assert 5 in f and 3 not in f
        assert f.natural_density() == 0


class TestAlgebra:
    def test_complement_of_everything(self):
        assert per.complement(per.from_progressions([(0, 1)])) == per.empty()
        assert per.empty().natural_density() == 0

    def test_complement_of_odds(self):
        evens = per.complement(per.from_progressions([(1, 2)]))
        assert evens == per.from_progressions([(0, 2)])
        assert evens.natural_density() == Fraction(1, 2)

    def test_complement_involution(self):
        a = per.from_progressions([(1, 3), (2, 6)])
        assert per.complement(per.complement(a)) == a

    def test_union_of_parities(self):
        assert per.union(
            per.from_progressions([(0, 2)]), per.from_progressions([(1, 2)])
        ) == per.from_progressions([(0, 1)])

    def test_intersection_crt(self):
        meet = per.intersect(
            per.from_progressions([(0, 2)]), per.from_progressions([(0, 3)])
        )
        assert meet == per.from_progressions([(0, 6)])
        assert meet.natural_density() == Fraction(1, 6)

    def test_shift(self):
        shifted = per.shift(per.from_progressions([(1, 2)]), 1)
        assert shifted == per.from_progressions([(2, 2)])
        assert shifted.natural_density() == Fraction(1, 2)
        with pytest.raises(ValueError):
            per.shift(per.from_progressions([(0, 1)]), -1)

    @given(cases, cases, st.integers(0, 9))
    @settings(max_examples=150)
    def test_pointwise_semantics(self, x, y, c):
        a, b = x.eps, y.eps
        u, i = per.union(a, b), per.intersect(a, b)
        comp, sh = per.complement(a), per.shift(a, c)
        for n in range(0, 140):
            in_a, in_b = x.member(n), y.member(n)
            assert (n in a) == in_a and (n in b) == in_b
            assert (n in u) == (in_a or in_b)
            assert (n in i) == (in_a and in_b)
            assert (n in comp) == (not in_a)
            assert (n in sh) == (n >= c and x.member(n - c))

    def test_multiples_of_four_with_odds(self):
        u = per.union(per.from_progressions([(0, 4)]), per.from_progressions([(1, 2)]))
        assert u.natural_density() == Fraction(3, 4)
        assert sorted(u.tail) == [0, 1, 3] and u.period == 4

    def test_union_density_subadditive(self):
        a = per.from_progressions([(0, 4), (1, 6)])
        b = per.from_progressions([(2, 4)])
        u = per.union(a, b)
        assert u.natural_density() <= a.natural_density() + b.natural_density()

    def test_union_density_additive_when_disjoint(self):
        a = per.from_progressions([(0, 3)])
        b = per.from_progressions([(1, 3)])
        assert per.intersect(a, b).is_empty()
        assert per.union(a, b).natural_density() == a.natural_density() + b.natural_density()

    def test_union_density_additive_when_intersection_finite(self):
        a = per.union(per.from_progressions([(0, 3)]), per.from_finite([1]))
        b = per.from_progressions([(1, 3)])
        meet = per.intersect(a, b)
        assert meet.tail.is_empty() and not meet.is_empty()
        assert per.union(a, b).natural_density() == a.natural_density() + b.natural_density()

    def test_pointwise_agreement_full_range(self):
        # ops agree with naive pointwise evaluation across all n <= 10^4
        pairs = [
            ([(1, 3), (2, 6)], [(0, 4)]),
            ([(5, 7)], [(0, 2), (3, 9)]),
            ([(0, 1)], [(11, 12)]),
        ]
        for t1, t2 in pairs:
            a, b = per.from_progressions(t1), per.from_progressions(t2)
            u, i = per.union(a, b), per.intersect(a, b)
            comp, sh = per.complement(a), per.shift(a, 7)
            for n in range(10**4 + 1):
                in_a = naive_member(t1, n)
                in_b = naive_member(t2, n)
                assert (n in a) == in_a
                assert (n in u) == (in_a or in_b)
                assert (n in i) == (in_a and in_b)
                assert (n in comp) == (not in_a)
                assert (n in sh) == (n >= 7 and naive_member(t1, n - 7))

    def test_density_splits_along_periodic_subset(self):
        # d(A) = d(X) + d(A \ X) for a periodic subset X of A
        a = per.from_progressions([(0, 2), (1, 6)])
        x = per.from_progressions([(0, 4)])
        assert per.intersect(x, per.complement(a)).is_empty()  # X inside A
        rest = per.difference(a, x)
        assert a.natural_density() == x.natural_density() + rest.natural_density()


class TestSumset:
    def test_odds_doubled(self):
        odds = per.from_progressions([(1, 2)])
        doubled = per.add(odds, odds)
        assert doubled == per.from_progressions([(2, 2)])

    def test_two_classes_mod4(self):
        a = per.from_progressions([(0, 4), (1, 4)])
        doubled = per.add(a, a)
        assert sorted(doubled.modular_profile(4).attained) == [0, 1, 2]
        assert doubled.natural_density() == Fraction(3, 4)

    def test_empty_absorbs(self):
        assert per.add(per.empty(), per.from_progressions([(0, 1)])) == per.empty()

    def test_finite_plus_class(self):
        total = per.add(per.from_finite([0, 2]), per.from_progressions([(1, 4)]))
        for n in range(80):
            expected = (n >= 1 and n % 4 == 1) or (n >= 3 and n % 4 == 3)
            assert (n in total) == expected

    @given(cases, cases)
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_sums(self, x, y):
        total = per.add(x.eps, y.eps)
        bound = 200
        amem = [n for n in range(bound + 1) if x.member(n)]
        bmem = [n for n in range(bound + 1) if y.member(n)]
        sums = {p + r for p in amem for r in bmem if p + r <= bound}
        # stay away from the horizon edge: sums near the boundary may
        # need larger summands than the window provides
        for n in range(bound // 2):
            assert (n in total) == (n in sums), (x, y, n)


def plain_sum_check(a, b):
    """add(a, b) against the plain-set sum: members listed by ``in`` up to
    H = 2(2T + 2q) + 2q, summed by nested loops, compared at every n < H
    and as a canonical form built from that list."""
    total = per.add(a, b)
    q = lcm(a.period, b.period)
    bound = 2 * max(a.threshold, b.threshold) + 2 * q
    h = 2 * bound + 2 * q
    amem = [n for n in range(h) if n in a]
    bmem = [n for n in range(h) if n in b]
    sums = {x + y for x in amem for y in bmem if x + y < h}
    assert [n for n in range(h) if n in total] == sorted(sums)
    assert all((n in sums) == (n + q in sums) for n in range(bound - q, h - q))
    reference = per.from_json_dict({
        "q": q,
        "T": bound,
        "prefix": sorted(n for n in sums if n < bound),
        "tail": sorted({n % q for n in sums if n >= bound - q and n < bound}),
    })
    assert total == reference


def _sparse_raw(rng, q, tail_size, blocks, share):
    t = q * blocks
    return {
        "q": q,
        "T": t,
        "tail": sorted(rng.sample(range(q), tail_size)),
        "prefix": [n for n in range(t) if rng.random() < share],
    }


def _coprime_pair(seed):
    """Periods 101 and 103, two tail residues each, sparse prefixes."""
    rng = random.Random(seed)
    return per.from_json_dict(_sparse_raw(rng, 101, 2, 1, 0.02)), per.from_json_dict(
        _sparse_raw(rng, 103, 2, 1, 0.02)
    )


SUM_SHAPES = {
    # prefix members outside every tail class
    "stray prefix members": (
        {"q": 8, "T": 24, "prefix": [1, 6, 17, 19], "tail": [0, 4]},
        {"q": 12, "T": 12, "prefix": [5, 7], "tail": [3]},
    ),
    "finite sets": ({"q": 1, "T": 30, "prefix": [0, 7, 29]}, {"q": 1, "T": 12, "prefix": [3, 11]}),
    "finite plus periodic": (
        {"q": 1, "T": 40, "prefix": [2, 39]},
        {"q": 6, "T": 6, "prefix": [1], "tail": [5]},
    ),
    "q = 1": (
        {"q": 1, "T": 9, "prefix": [0, 3], "tail": [0]},
        {"q": 1, "T": 4, "prefix": [2], "tail": [0]},
    ),
    "equal periods": (
        {"q": 12, "T": 24, "prefix": [1, 2, 13], "tail": [0, 5, 7]},
        {"q": 12, "T": 12, "prefix": [4], "tail": [2, 11]},
    ),
    "sparse tail with a dense one": (
        {"q": 15, "T": 0, "tail": [3]},
        {"q": 10, "T": 20, "prefix": [0, 1, 9], "tail": [0, 1, 2, 3, 5, 8]},
    ),
}


class TestAddAgainstPlainSets:
    @pytest.mark.parametrize("shape", sorted(SUM_SHAPES))
    def test_shapes(self, shape):
        a, b = map(per.from_json_dict, SUM_SHAPES[shape])
        plain_sum_check(a, b)
        plain_sum_check(b, a)

    @pytest.mark.parametrize("seed", range(3))
    def test_coprime_periods_with_sparse_prefixes(self, seed):
        plain_sum_check(*_coprime_pair(seed))

    @given(cases, cases)
    @settings(max_examples=50, deadline=None)
    def test_random_pairs(self, x, y):
        if not (x.eps.is_empty() or y.eps.is_empty()):
            plain_sum_check(x.eps, y.eps)


def add_offsets(monkeypatch):
    """The number of offsets each ``add_bits`` call inside ``periodic`` is passed."""
    counts = []
    real = per.add_bits

    def spy(bits, offsets):
        offsets = list(offsets)
        counts.append(len(offsets))
        return real(bits, offsets)

    monkeypatch.setattr(per, "add_bits", spy)
    return counts


class TestAddWork:
    """One wide shift per prefix member and per residue of the sparser tail,
    whatever the window width."""

    def _pairs(self):
        rng = random.Random(12)
        q = 1 << 12
        yield _coprime_pair(0)
        yield _coprime_pair(1)
        yield per.from_json_dict(_sparse_raw(rng, q, q // 3, 1, 0.002)), per.from_json_dict(
            _sparse_raw(rng, q, 40, 1, 0.002)
        )
        yield per.from_json_dict(_sparse_raw(rng, q, 7, 2, 0.001)), per.from_residues(
            q, range(0, q, 3)
        )

    def test_offsets_bounded_by_prefixes_and_sparser_tail(self, monkeypatch):
        counts = add_offsets(monkeypatch)
        for a, b in self._pairs():
            for x, y in ((a, b), (b, a)):
                counts.clear()
                per.add(x, y)
                budget = (
                    x.prefix.bit_count()
                    + y.prefix.bit_count()
                    + min(x.tail.cardinality, y.tail.cardinality)
                )
                assert 0 < sum(counts) <= budget


class TestModularProfile:
    def test_odds_mod4(self):
        prof = per.from_progressions([(1, 2)]).modular_profile(4)
        assert prof.attained.members == (1, 3)
        assert prof.cofinitely_attained.members == (1, 3)

    def test_prefix_only_residue(self):
        a = per.union(per.from_finite([0]), per.from_progressions([(1, 2)]))
        prof = a.modular_profile(2)
        assert prof.attained.members == (0, 1)
        assert prof.cofinitely_attained.members == (1,)

    def test_cofinite_classes_must_be_attained(self):
        with pytest.raises(ValueError, match="must be attained"):
            per.ModularProfile(ResidueSet.of(4, [1]), ResidueSet.of(4, [1, 3]))

    def test_parts_must_share_the_modulus(self):
        with pytest.raises(ValueError, match="modulus mismatch"):
            per.ModularProfile(ResidueSet.of(4, [1, 3]), ResidueSet.of(2, [1]))

    def test_naturals(self):
        prof = per.from_progressions([(0, 1)]).modular_profile(5)
        assert prof.attained.members == (0, 1, 2, 3, 4)
        assert prof.cofinitely_attained.members == (0, 1, 2, 3, 4)

    @given(cases, st.integers(1, 24))
    @settings(max_examples=100)
    def test_projection_compatibility(self, x, m):
        from buckdens.zmod import fold_bits

        a = x.eps
        prof = a.modular_profile(m)
        for d in range(1, m + 1):
            if m % d:
                continue
            assert ResidueSet(d, fold_bits(prof.attained.bits, d)) == a.modular_profile(d).attained

    @given(cases, st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_profile_matches_enumeration(self, x, m):
        prof = x.eps.modular_profile(m)
        # past x.start membership repeats with period x.period, so one
        # window of x.period * m integers shows every class mod m
        window = range(x.start, x.start + x.period * m)
        seen = {n % m for n in range(window.stop) if x.member(n)}
        cofinite = {s for s in range(m) if all(x.member(n) for n in window if n % m == s)}
        assert seen == set(prof.attained)
        assert cofinite == set(prof.cofinitely_attained)
        assert x.eps.members(window.stop) == [n for n in range(window.stop + 1) if x.member(n)]


class TestSerialization:
    def test_round_trip(self):
        a = per.union(per.from_finite([0, 5]), per.from_progressions([(1, 3)]))
        payload = json.loads(json.dumps(a.to_json_dict()))
        assert per.from_json_dict(payload) == a

    def test_progressions_shorthand(self):
        assert per.from_json_dict({"progressions": [[1, 3], [2, 6]]}) == per.from_progressions(
            [(1, 3), (2, 6)]
        )

    def test_bad_tail_residue(self):
        with pytest.raises(ValueError, match="tail residue"):
            per.from_json_dict({"q": 2, "T": 0, "prefix": [], "tail": [2]})

    def test_finite_form_threshold_set_directly(self):
        # lowering T one period at a time would take hours here
        a = per.from_json_dict({"q": 1, "T": 10**12, "prefix": [3], "tail": []})
        assert a == per.from_finite([3])
        assert per.from_json_dict({"q": 5, "T": 10**12, "prefix": [], "tail": []}) == per.empty()


class TestWidthCap:
    """Prefixes are dense, so widths over the cap are refused up front."""

    def test_threshold_of_a_late_progression(self):
        with pytest.raises(LimitExceededError, match="threshold"):
            per.from_progressions([(3_000_000, 2)])

    def test_threshold_of_a_sparse_finite_set(self):
        with pytest.raises(LimitExceededError, match="threshold"):
            per.from_finite([2**112])

    def test_aligned_period(self):
        a = per.from_progressions([(1, 997), (5, 1009)])
        with pytest.raises(LimitExceededError, match="aligned period"):
            per.add(a, per.from_progressions([(3, 991)]))

    def test_sumset_window(self):
        with pytest.raises(LimitExceededError, match="2T"):
            per.add(per.from_finite([600_000]), per.from_progressions([(0, 1)]))


class TestMembers:
    def test_members_listing(self):
        a = per.from_progressions([(1, 3)])
        assert a.members(10) == [1, 4, 7, 10]
        assert per.from_finite([3, 1]).members(2) == [1]
        assert per.empty().members(5) == []

    def test_negative_membership_rejected(self):
        with pytest.raises(ValueError):
            (-1) in per.from_progressions([(0, 1)])
