import functools
import itertools
import operator
import random
from math import gcd
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buckdens import generators as gen
from buckdens import zmod
from buckdens.zmod import (
    APWitness,
    CertificateError,
    LimitExceededError,
    QuasiPeriodicWitness,
    ResidueSet,
    Subgroup,
    add_bits,
    bit_positions,
    check_horizon,
    classify_structure,
    cyclic_add_bits,
    detect_arithmetic_progression,
    detect_quasi_periodic,
    divisors,
    fold_bits,
    is_periodic,
    kemperman_classify,
    linear_sum_bits,
    members_mask,
    positions_text,
    prime_factors,
    rotate_bits,
    stabilizer,
    stabilizer_generator_bits,
    sumset,
    sumset_bits,
    tile_bits,
)


def rs(m, members):
    return ResidueSet.of(m, members)


@st.composite
def residue_sets(draw, max_modulus=10, nonempty=True):
    m = draw(st.integers(1, max_modulus))
    low = 1 if nonempty else 0
    bits = draw(st.integers(low, (1 << m) - 1))
    return ResidueSet(m, bits)


def brute_sum(*sets):
    m = sets[0].modulus
    out = set()
    for combo in itertools.product(*[s.members for s in sets]):
        out.add(sum(combo) % m)
    return out


class TestResidueSet:
    def test_members_and_cardinality(self):
        s = rs(6, [4, 0, 2])
        assert s.members == (0, 2, 4)
        assert s.cardinality == 3
        assert 2 in s and 3 not in s

    def test_member_out_of_range(self):
        with pytest.raises(ValueError):
            rs(4, [4])

    def test_modulus_cap(self):
        with pytest.raises(LimitExceededError):
            ResidueSet((1 << 20) + 1, 0)

    def test_full(self):
        assert ResidueSet(5, (1 << 5) - 1).is_full()


class TestAddBits:
    @given(st.sets(st.integers(0, 300), max_size=40), st.lists(st.integers(0, 300), max_size=40))
    def test_matches_pairwise_sums(self, xs, offsets):
        want = sum(1 << s for s in {x + n for x in xs for n in offsets})
        assert add_bits(sum(1 << x for x in xs), offsets) == want

    def test_empty_offsets_and_offset_zero(self):
        assert add_bits(0b1011, []) == 0
        assert add_bits(0b1011, [0]) == 0b1011
        assert add_bits(0, [0, 5]) == 0
        assert add_bits(0b11, iter([0, 2])) == 0b1111


def plain_mask(xs):
    return sum(1 << x for x in set(xs))


def assert_plain_linear_sum(xs, ys):
    """linear_sum_bits against a set comprehension over member lists, in both
    orders."""
    want = plain_mask({x + y for x in xs for y in ys})
    a, b = plain_mask(xs), plain_mask(ys)
    assert linear_sum_bits(a, b) == want, (sorted(xs)[:8], sorted(ys)[:8])
    assert linear_sum_bits(b, a) == want


class TestLinearSumBits:
    def test_seeded_widths_and_densities(self, shifts):
        rng = random.Random(64)
        densities = (0.001, 0.01, 0.1, 0.5, 0.9)
        for width in (1, 63, 64, 65, 129, 700, 4096):
            for da in densities:
                for db in densities:
                    # both sides dense only up to 1024 bits, so the reference stays cheap
                    wb = width if min(da, db) < 0.5 else min(width, 1024)
                    xs = [n for n in range(width) if rng.random() < da]
                    ys = [n for n in range(rng.randint(1, wb)) if rng.random() < db]
                    shifts[0] = 0
                    assert_plain_linear_sum(xs, ys)
                    assert shifts[0] <= 2 * min(len(xs), len(ys))  # each order within its bound

    def test_repeated_words_at_seeded_starts(self, shifts):
        rng = random.Random(128)
        for density in (0.01, 0.1, 0.5, 0.9):
            patterns = [[n for n in range(64) if rng.random() < density] or [63] for _ in range(3)]
            ys = [64 * i + n for i in rng.sample(range(64), 12) for n in rng.choice(patterns)]
            xs = [n for n in range(1000) if rng.random() < 0.95]
            shifts[0] = 0
            assert_plain_linear_sum(xs, ys)
            # in each order: at most 64 per distinct word and one per start
            assert shifts[0] <= 2 * (3 * 64 + 12)

    def test_structured_masks(self):
        h = 2048
        sets = [
            gen.gen_x0().members(h),
            gen.gen_d_k((1, 3, 7, 15), rule="double_gap").members(h),
            gen.gen_b_alpha("001").members(h),
            gen.gen_weyl("sqrt2", "3/10").members(h),
        ]
        for i, xs in enumerate(sets):
            for ys in sets[i:]:
                assert_plain_linear_sum(xs, ys)

    def test_word_edges_and_small_sets(self):
        cases = [
            [], [0], [63], [64], [127], [128], [63, 64], [0, 127, 128],
            [0, 1, 64, 65, 128, 129],  # the word 0b11 at three starts
            [62, 63, 126, 127, 190, 191],  # the top two bits of a word, repeated
            [5, 69, 133],  # one bit at three starts
        ]
        for xs in cases:
            for ys in cases:
                assert_plain_linear_sum(xs, ys)
        assert linear_sum_bits(0, 0) == 0
        assert linear_sum_bits(0, (1 << 200) - 1) == 0 == linear_sum_bits((1 << 200) - 1, 0)

    def test_offsets_wider_and_narrower_than_the_denser_mask(self):
        narrow = list(range(10))
        wide_sparse = [0, 1, 1000, 1001, 2000, 2001, 5000]
        assert_plain_linear_sum(narrow, wide_sparse)  # offsets reach past the denser mask
        wide_dense = [n for n in range(3000) if n % 3]
        assert_plain_linear_sum(wide_dense, [0, 1, 64, 65])  # offsets inside its first words

    def test_distinct_words_cost_one_shift_per_sparser_member(self, shifts):
        rng = random.Random(4096)
        a, b = rng.getrandbits(8192), rng.getrandbits(4096) & rng.getrandbits(4096)
        words = [b >> (64 * i) & (2**64 - 1) for i in range(64)]
        assert len(set(words)) == len(words) and b.bit_count() < a.bit_count()
        got = linear_sum_bits(a, b)
        assert shifts[0] == b.bit_count()
        assert got == add_bits(a, enumerated_bit_positions(b))


class TestTileBits:
    @given(st.sets(st.integers(0, 60), max_size=12), st.integers(1, 20), st.integers(0, 200))
    def test_any_pattern_width_matches_the_shifted_copies(self, members, q, width):
        # the pattern may be wider than q: its copies overlap
        want = {n + j * q for n in members for j in range(width // q + 1) if n + j * q < width}
        assert tile_bits(members_mask(members, 61), q, width) == members_mask(want, width)

    def test_linear_sum_tiles_to_its_progressions(self):
        # L = {0, 5} + {0, 2} = {0, 2, 5, 7} (wider than q = 3), tiled: L + 3N below 12
        assert bit_positions(tile_bits(0b10100101, 3, 12)) == [0, 2, 3, 5, 6, 7, 8, 9, 10, 11]
        assert tile_bits(0b10100101, 3, 0) == 0


class TestMembersMask:
    @given(st.lists(st.integers(0, 2000), max_size=60), st.integers(0, 100))
    def test_matches_one_bit_per_member(self, members, spare):
        width = max(members, default=-1) + 1 + spare
        assert members_mask(members, width) == sum(1 << n for n in set(members))

    def test_empty_and_iterators(self):
        assert members_mask([], 0) == 0
        assert members_mask([], 9) == 0
        assert members_mask(iter([3, 0, 3]), 4) == 0b1001
        assert members_mask({n % 7 for n in range(100)}, 7) == 0b1111111

    def test_width_past_the_largest_member_unsorted_with_duplicates(self):
        assert members_mask([5, 1, 5, 0, 1], 64) == 0b100011
        assert members_mask(iter([2, 0, 2]), 1000) == 0b101


def enumerated_bit_positions(bits):
    """The set bits by a scan of the binary numeral: the reference for bit_positions."""
    return [n for n, c in enumerate(bin(bits)[:1:-1]) if c == "1"]


class TestBitPositions:
    def test_every_vector_up_to_width_twelve(self):
        for bits in range(1 << 12):
            assert bit_positions(bits) == enumerated_bit_positions(bits)

    def test_random_widths_and_densities(self):
        rng = random.Random(5)
        for density in (0.001, 0.01, 0.1, 0.5, 0.9):
            for width in (64, 1000, 21012, rng.randrange(1, 1 << 20)):
                bits = members_mask([n for n in range(width) if rng.random() < density], width)
                assert bit_positions(bits) == enumerated_bit_positions(bits)


SEPARATORS = ("\n", " ", ",", ",\n    ")


def assert_scanned_text(bits):
    """positions_text against the set bits found by a scan of the binary
    numeral and written by ``str``, for every separator."""
    scanned = list(map(str, enumerated_bit_positions(bits)))
    for sep in SEPARATORS:
        assert positions_text(bits, sep) == sep.join(scanned), (bits.bit_length(), sep)


class TestPositionsText:
    def test_edge_positions(self):
        cases = [
            [], [0], [999], [1000], [998, 999, 1000, 1001, 1002], [0, 1, 2, 3],
            [5, 250_000],  # 248 empty blocks between two members
            [7_000, 7_999], [999_999], [0, 999_999], [1 << 20], [999, 1 << 20],  # 4-digit lead
            [1_000_000, 1_000_001, 1_048_575],
        ]
        for members in cases:
            bits = sum(1 << n for n in members)
            assert_scanned_text(bits)
            assert positions_text(bits, ", ") == ", ".join(map(str, members))

    def test_seeded_widths_and_densities(self):
        rng = random.Random(25)
        for width in (1, 999, 1000, 1001, 2000, rng.randrange(2000, 1 << 20), 1 << 20):
            words = [rng.getrandbits(width) for _ in range(10)]
            # densities 2^-10, 2^-7, 1/4, 1/2 and 7/8
            for bits in (
                functools.reduce(operator.and_, words),
                functools.reduce(operator.and_, words[:7]),
                words[0] & words[1],
                words[0],
                words[0] | words[1] | words[2],
            ):
                assert_scanned_text(bits)

    def test_every_vector_up_to_width_twelve(self):
        for bits in range(1 << 12):
            assert positions_text(bits, ",") == ",".join(map(str, enumerated_bit_positions(bits)))


class TestResidueSetOf:
    def test_wide_modulus_matches_a_plain_reference(self):
        rng = random.Random(20)
        m = 1 << 20
        members = [rng.randrange(m) for _ in range(100_000)]
        got = ResidueSet.of(m, iter(members))
        assert set(enumerated_bit_positions(got.bits)) == set(members)
        assert got.modulus == m

    @pytest.mark.parametrize("count", [zmod.NUMERAL_MEMBERS - 1, zmod.NUMERAL_MEMBERS])
    def test_both_sides_of_the_crossover_agree(self, count, monkeypatch):
        rng = random.Random(count)
        for m in (count, 4 * count, 1 << 16):
            members = [rng.randrange(m) for _ in range(count)]
            assert ResidueSet.of(m, members).bits == sum(1 << n for n in set(members))
        built = []
        monkeypatch.setattr(zmod, "members_mask", lambda xs, w: built.append(w) or 0)
        ResidueSet.of(1 << 16, range(count))
        assert built == ([1 << 16] if count >= zmod.NUMERAL_MEMBERS else [])

    @pytest.mark.parametrize("count", [1, zmod.NUMERAL_MEMBERS - 1, zmod.NUMERAL_MEMBERS, 5000])
    @pytest.mark.parametrize("bad", [-1, -(1 << 16), 1 << 16, 1 << 40])
    def test_out_of_range_members_are_named_on_both_sides(self, count, bad):
        # a bytearray index would wrap a negative member unnoticed
        members = list(range(count - 1))
        members.insert(len(members) // 2, bad)
        with pytest.raises(ValueError, match=rf"^member {bad} not in \[0, 65536\)$"):
            ResidueSet.of(1 << 16, members)

    def test_the_first_out_of_range_member_is_named(self):
        members = list(range(zmod.NUMERAL_MEMBERS)) + [70_000, -3]
        with pytest.raises(ValueError, match=r"^member 70000 not"):
            ResidueSet.of(1 << 16, members)
        with pytest.raises(ValueError, match=r"^member 9 not"):
            ResidueSet.of(8, [1, 9, -1])


class TestSumset:
    def test_interval_plus_interval(self):
        assert sumset([rs(5, [0, 1]), rs(5, [0, 1])]).members == (0, 1, 2)

    def test_wraparound(self):
        # enumerating all four pairwise sums of {1,3} mod 4 gives {0, 2}
        assert sumset([rs(4, [1, 3]), rs(4, [1, 3])]).members == (0, 2)

    def test_identity_element(self):
        s = rs(7, [1, 2, 5])
        assert sumset([s, rs(7, [0])]) == s

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            sumset([rs(4, [1]), rs(5, [1])])

    def test_empty_operand(self):
        with pytest.raises(ValueError):
            sumset([rs(4, [1]), ResidueSet(4, 0)])

    @given(
        residue_sets(max_modulus=200),
        residue_sets(max_modulus=200),
        residue_sets(max_modulus=200),
    )
    def test_matches_brute_enumeration(self, a, b, c):
        m = a.modulus
        b, c = (ResidueSet(m, s.bits & ((1 << m) - 1) or 1) for s in (b, c))
        pairs = brute_sum(a, b)
        assert set(sumset([a, b]).members) == pairs
        assert set(sumset([a, b, c]).members) == {(x + z) % m for x in pairs for z in c.members}

    @given(residue_sets(max_modulus=8), residue_sets(max_modulus=8), residue_sets(max_modulus=8))
    def test_commutative_associative(self, a, b, c):
        m = a.modulus
        b = ResidueSet(m, b.bits & ((1 << m) - 1) or 1)
        c = ResidueSet(m, c.bits & ((1 << m) - 1) or 1)
        assert sumset([a, b]) == sumset([b, a])
        assert sumset([sumset([a, b]), c]) == sumset([a, sumset([b, c])])


def residue_sum(m, bits, offsets, acc=0):
    """acc | (bits + offsets) in Z/mZ as a set of residues, by a set
    comprehension over member lists: the reference for cyclic_add_bits."""
    xs, ns = enumerated_bit_positions(bits), enumerated_bit_positions(offsets)
    return {(x + n) % m for x in xs for n in ns} | set(enumerated_bit_positions(acc))


def assert_cyclic_sum(m, bits, offsets, acc=0):
    """Check the kernel (and sumset_bits when acc is 0); True iff the sum is full."""
    want = residue_sum(m, bits, offsets, acc)
    got = cyclic_add_bits(bits, offsets, m, acc)
    assert set(enumerated_bit_positions(got)) == want, (m, bits, offsets, acc)
    if acc == 0:
        assert sumset_bits([bits, offsets], m) == got
    return len(want) == m


def random_vector(rng, m, density):
    return int("".join("1" if rng.random() < density else "0" for _ in range(m)), 2)


class TestCyclicAddBits:
    def test_every_pair_up_to_modulus_six(self):
        for m in range(1, 7):
            for bits in range(1 << m):
                for offsets in range(1 << m):
                    assert_cyclic_sum(m, bits, offsets)

    def test_random_widths_and_densities_on_both_sides_of_saturation(self):
        rng = random.Random(16)
        densities = (0.001, 0.01, 0.1, 0.5, 0.9)
        widths = (64, 1000, rng.randrange(2, 1 << 12), rng.randrange(1 << 12, 1 << 16), 1 << 16)
        full = partial = 0
        for m in widths:
            for da in densities:
                for db in densities:
                    if da * db * m * m > 4_000_000:
                        continue  # keep the comprehension below 4M pairs
                    bits, offsets = random_vector(rng, m, da), random_vector(rng, m, db)
                    if assert_cyclic_sum(m, bits, offsets):
                        full += 1
                    else:
                        partial += 1
        assert full >= 10 and partial >= 10

    def test_seeded_acc(self):
        rng = random.Random(17)
        for m in (1, 5, 64, 300, 4099):
            fullmask = (1 << m) - 1
            for _ in range(20):
                bits, offsets = random_vector(rng, m, 0.05), random_vector(rng, m, 0.05)
                acc = random_vector(rng, m, rng.choice((0.01, 0.5, 0.99)))
                assert_cyclic_sum(m, bits, offsets, acc)
                assert cyclic_add_bits(bits, offsets, m, fullmask) == fullmask
                assert cyclic_add_bits(0, offsets, m, acc) == acc
                assert cyclic_add_bits(bits, 0, m, acc) == acc

    def test_empty_operands_and_modulus_one(self):
        assert cyclic_add_bits(0, 0, 1) == 0
        assert cyclic_add_bits(1, 0, 1) == 0
        assert cyclic_add_bits(0, 1, 1) == 0
        assert cyclic_add_bits(1, 1, 1) == 1
        assert cyclic_add_bits(0, 0, 1, acc=1) == 1
        assert cyclic_add_bits(0, 0b1011, 9) == 0
        assert cyclic_add_bits(0b1011, 0, 9) == 0
        assert cyclic_add_bits(0b1011, 0, 9, acc=0b100) == 0b100

    @pytest.mark.parametrize("m", [257, 1000, 5003])
    def test_offset_counts_around_the_dispatch(self, monkeypatch, m):
        rng = random.Random(m)
        positions = counted(monkeypatch, "bit_positions")
        for k in (zmod.SPARSE_OFFSETS - 1, zmod.SPARSE_OFFSETS, zmod.SPARSE_OFFSETS + 1):
            offsets = sum(1 << n for n in rng.sample(range(m), k))
            for density in (0.002, 0.02, 0.5):  # sums short of, near and past full
                positions.clear()
                assert_cyclic_sum(m, random_vector(rng, m, density) or 1, offsets)
                assert bool(positions) == (k > zmod.SPARSE_OFFSETS)

    def test_all_but_one_residue_mod_two_to_the_sixteen(self):
        m = 1 << 16
        s = ((1 << m) - 1) ^ 1  # Z/mZ minus {0}
        for t in (0, 1, 12345, m - 1):
            assert cyclic_add_bits(s, 1 << t, m, acc=1 << t) == (1 << m) - 1  # full after one
            assert_cyclic_sum(m, s, 1 << t)
            assert_cyclic_sum(m, 1 << t, s)  # the singleton shifted by every offset
        assert_cyclic_sum(m, s, 0b11)


class TestStabilizer:
    def test_examples(self):
        assert stabilizer(rs(4, [0, 2])) == Subgroup(4, 2)
        assert 4 // stabilizer(rs(4, [0, 2])).generator == 2
        assert stabilizer(rs(6, [0, 2, 4])) == Subgroup(6, 2)
        assert stabilizer(rs(6, [0, 1])) == Subgroup(6, 6)
        assert stabilizer(rs(6, [0, 1])).is_trivial()

    def test_empty(self):
        with pytest.raises(ValueError):
            stabilizer(ResidueSet(5, 0))

    @given(residue_sets())
    def test_fixes_and_is_maximal(self, s):
        h = stabilizer(s)
        m = s.modulus
        assert {(x + h.generator) % m for x in s} == set(s)
        for d in range(1, h.generator):
            if m % d == 0:
                assert {(x + d) % m for x in s} != set(s)


def translation_stabilizer(bits, m, divs):
    """The least divisor d of m (from ``divs``, ascending) whose translation fixes the mask."""
    return next(d for d in divs if rotate_bits(bits, d, m) == bits)


def plain_divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


class TestStabilizerByPrimeDescent:
    """``stabilizer_generator_bits`` against a scan of every divisor."""

    @pytest.mark.parametrize("m", range(1, 13))
    def test_every_mask(self, m):
        divs = plain_divisors(m)
        for bits in range(1 << m):
            assert stabilizer_generator_bits(bits, m) == translation_stabilizer(bits, m, divs)

    @pytest.mark.parametrize(
        "m", [1 << k for k in range(4, 21)] + [10403, 720720, 1048573]
    )
    def test_seeded_masks_aperiodic_and_tiled(self, m):
        rng = random.Random(m)
        divs = plain_divisors(m)
        masks = [rng.getrandbits(m) for _ in range(2)]
        for _ in range(3):  # tiled from a random proper divisor (1 when m is prime)
            e = rng.choice(divs[:-1])
            masks.append(tile_bits(rng.getrandbits(e), e, m))
        for bits in masks:
            assert stabilizer_generator_bits(bits, m) == translation_stabilizer(bits, m, divs)

    @pytest.mark.parametrize("m", [720720, 1 << 20, 1048573])
    def test_no_divisor_list_and_few_rotations(self, monkeypatch, m):
        def listed(n):
            raise AssertionError("the stabilizer listed the divisors of m")

        monkeypatch.setattr(zmod, "divisors", listed)
        rotations = counted(monkeypatch, "rotate_bits")
        factors = prime_factors(m)
        big_omega, n = 0, m  # the prime factors of m counted with multiplicity
        for p in factors:
            while n % p == 0:
                n, big_omega = n // p, big_omega + 1
        rng = random.Random(m)
        for bits in (rng.getrandbits(m), tile_bits(rng.getrandbits(16), 16, m), 0):
            rotations.clear()
            stabilizer_generator_bits(bits, m)
            assert len(rotations) <= big_omega + len(factors)


def test_prime_factors_by_trial_division():
    primes = [p for p in range(2, 5001) if all(p % q for q in range(2, p))]
    assert prime_factors(0) == prime_factors(1) == []
    for n in range(2, 5001):
        assert prime_factors(n) == [p for p in primes if n % p == 0], n


class TestPeriodicity:
    def test_examples(self):
        assert is_periodic(rs(6, [0, 3]))
        assert not is_periodic(rs(6, [0, 1]))
        assert is_periodic(ResidueSet(7, (1 << 7) - 1))

    def test_mod_one_has_no_proper_divisor(self):
        assert not is_periodic(rs(1, [0]))


class TestArithmeticProgression:
    def test_examples(self):
        assert detect_arithmetic_progression(rs(7, [1, 3, 5])) == APWitness(1, 2, 3)
        assert detect_arithmetic_progression(rs(5, [2])) == APWitness(2, 1, 1)
        assert detect_arithmetic_progression(rs(8, [0, 1, 4])) is None

    def test_full_group(self):
        assert detect_arithmetic_progression(ResidueSet(6, (1 << 6) - 1)) == APWitness(0, 1, 6)

    @given(residue_sets(max_modulus=9))
    @settings(max_examples=200)
    def test_matches_brute_search(self, s):
        from buckdens.oracle import brute_arithmetic_progression

        witness = detect_arithmetic_progression(s)
        assert (witness is not None) == brute_arithmetic_progression(s)
        if witness is not None:
            w = witness
            assert {(w.start + i * w.difference) % s.modulus for i in range(w.length)} == set(s.members)
            assert witness.length == s.cardinality

    @given(residue_sets(max_modulus=10))
    @settings(max_examples=200)
    def test_doubling_an_ap(self, s):
        witness = detect_arithmetic_progression(s)
        if witness is None:
            return
        m = s.modulus
        a, d, length = witness.start, witness.difference, witness.length
        import math

        if 2 * length - 1 > m // math.gcd(d, m):
            return
        doubled = sumset([s, s])
        expected = {(2 * a + i * d) % m for i in range(2 * length - 1)}
        assert set(doubled.members) == expected


class TestQuasiPeriodicity:
    def test_witness_example(self):
        w = detect_quasi_periodic(rs(4, [0, 1, 2]))
        assert w is not None
        assert w.subgroup == Subgroup(4, 2)
        assert w.shift == 1
        assert w.trace == rs(4, [0])
        assert w.periodic_part == rs(4, [0, 2])

    def test_strict_convention_blocks_short_sets(self):
        assert detect_quasi_periodic(rs(4, [0, 1]), True) is None
        assert detect_quasi_periodic(rs(4, [0, 1]), False) is None

    def test_periodic_input_returns_none(self):
        assert detect_quasi_periodic(rs(6, [0, 3])) is None

    def test_prime_modulus_has_no_witness(self):
        assert detect_quasi_periodic(rs(7, [0, 1, 3])) is None

    def test_empty_remainder_is_convention_dependent(self):
        # {0, 2} mod 8 sits inside the even subgroup: stripping the whole
        # trace leaves nothing, which only the lax convention accepts
        s = rs(8, [0, 2])
        assert detect_quasi_periodic(s, require_nonempty_periodic_part=False) is not None
        assert detect_quasi_periodic(s, require_nonempty_periodic_part=True) is None

    def test_removed_part_makes_remainder_periodic(self):
        for enc in range(1, 1 << 8):
            s = ResidueSet(8, enc)
            if is_periodic(s):
                continue
            w = detect_quasi_periodic(s)
            if w is None:
                continue
            m = s.modulus
            removed = {(w.shift + x) % m for x in w.trace}
            remainder = set(s.members) - removed
            assert rs(m, remainder) == w.periodic_part
            assert {(x + w.subgroup.generator) % m for x in remainder} == remainder
            assert not w.trace.is_empty() and w.trace != rs(m, range(0, m, w.subgroup.generator))


# The detectors as searches over every (difference, start) and every
# (subgroup, shift): the reference that the one-mask-test detectors must
# match witness for witness.


def ap_by_search(s: ResidueSet) -> Optional[APWitness]:
    if s.is_empty():
        raise ValueError("cannot classify the empty set")
    m = s.modulus
    length = s.cardinality
    if length == 1:
        return APWitness(next(iter(s)), 1, 1)
    members = s.bits
    for d in range(1, m):
        # l distinct terms require l <= ord(d) in Z/mZ
        if length > m // gcd(d, m):
            continue
        for a in s:
            bits = 0
            x = a
            for _ in range(length):
                bits |= 1 << x
                x = (x + d) % m
            if bits == members:
                return APWitness(a, d, length)
    return None


def _subgroup_candidates(m: int) -> list[int]:
    # Nontrivial proper subgroups, largest order first (generator ascending).
    return [d for d in divisors(m) if 1 < d < m]


def qp_by_search(
    s: ResidueSet, require_nonempty_periodic_part: bool = False
) -> Optional[QuasiPeriodicWitness]:
    if s.is_empty():
        raise ValueError("cannot classify the empty set")
    m = s.modulus
    if m > 1 and is_periodic(s):
        return None
    for d in _subgroup_candidates(m):
        k_bits = tile_bits(1, d, m)
        for shift in s:
            trace_bits = rotate_bits(s.bits, -shift, m) & k_bits
            if trace_bits == k_bits:
                continue  # trace must be a proper subset of K
            remainder = s.bits & ~rotate_bits(trace_bits, shift, m)
            if require_nonempty_periodic_part and remainder == 0:
                continue
            if rotate_bits(remainder, d, m) == remainder:
                trace = ResidueSet(m, trace_bits)
                periodic_part = ResidueSet(m, remainder)
                return QuasiPeriodicWitness(Subgroup(m, d), shift, trace, periodic_part)
    return None


def assert_same_witnesses(s, ap=True):
    if ap:
        assert detect_arithmetic_progression(s) == ap_by_search(s), s
    for strict in (False, True):
        assert detect_quasi_periodic(s, strict) == qp_by_search(s, strict), (s, strict)


def seeded_aps(rng, count, max_modulus):
    # every length 1..ord(d) of a seeded (m, d, a); d or -d is below 4, as
    # the search costs about min(d, m - d) * l^2 steps
    for _ in range(count):
        m = rng.randint(9, max_modulus)
        d = rng.choice([1, -1]) * rng.randrange(1, 4) % m
        a = rng.randrange(m)
        for length in range(1, m // gcd(d, m) + 1):
            yield ResidueSet.of(m, {(a + i * d) % m for i in range(length)})


def one_partial_coset(rng, max_modulus):
    # full cosets of K = <d>, plus a nonempty proper part of one more coset
    m = rng.choice([m for m in range(4, max_modulus + 1) if len(divisors(m)) > 2])
    d = rng.choice(divisors(m)[1:-1])
    residues = list(range(d))
    rng.shuffle(residues)
    partial, full = residues[0], residues[1:rng.randint(1, d)]
    coset = list(range(partial, m, d))
    part = rng.sample(coset, rng.randint(1, len(coset) - 1))
    return ResidueSet.of(m, [x for r in full for x in range(r, m, d)] + part)


class TestDetectorsMatchTheSearch:
    def test_every_subset_up_to_twelve(self):
        for m in range(1, 13):
            for bits in range(1, 1 << m):
                assert_same_witnesses(ResidueSet(m, bits))

    def test_seeded_progressions_of_every_length(self):
        rng = random.Random(1)
        for s in seeded_aps(rng, 4, 400):
            assert_same_witnesses(s)

    @pytest.mark.parametrize("m", [200, 211, 256])
    def test_progressions_either_side_of_the_difference_switch(self, m):
        # under |S|(|S| - 1) < m only differences of members are tried
        rng = random.Random(m)
        switch = max(k for k in range(2, m) if k * (k - 1) < m)
        for length in (2, 3, switch - 1, switch, switch + 1, switch + 2):
            for _ in range(8):
                a, d = rng.randrange(m), rng.randrange(1, m)
                ap = [(a + i * d) % m for i in range(length)]
                moved = ap[:-1] + [rng.randrange(m)]
                for members in (ap, moved, rng.sample(range(m), length)):
                    s = ResidueSet.of(m, members)
                    assert detect_arithmetic_progression(s) == ap_by_search(s), s

    def test_one_partial_coset_beside_full_cosets(self):
        rng = random.Random(2)
        for _ in range(300):
            s = one_partial_coset(rng, 400)
            assert_same_witnesses(s, ap=s.cardinality <= 16)
            if not is_periodic(s):
                assert detect_quasi_periodic(s) is not None


def counted(monkeypatch, name):
    calls = []
    real = getattr(zmod, name)

    def spy(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(zmod, name, spy)
    return calls


@pytest.fixture
def no_member_walk(monkeypatch):
    def walked(self):
        raise AssertionError("the detector walked the members of S")

    monkeypatch.setattr(ResidueSet, "__iter__", walked)


class TestOneMaskTestPerCandidate:
    def test_progression_search_rotates_once_per_difference(self, monkeypatch, no_member_walk):
        s = ResidueSet(1024, members_mask(random.Random(0).sample(range(1024), 500), 1024))
        rotations = counted(monkeypatch, "rotate_bits")
        assert detect_arithmetic_progression(s) is None
        assert len(rotations) <= 1023

    @pytest.mark.parametrize("m", [1024, 720, 997])
    def test_coset_search_folds_twice_per_divisor(self, monkeypatch, no_member_walk, m):
        rng = random.Random(m)
        sets = [members_mask(rng.sample(range(m), k), m) for k in (2, m // 2, m - 2)]
        sets.append(tile_bits(1, divisors(m)[1], m) | 2)  # one partial coset when m is not prime
        rotations = counted(monkeypatch, "rotate_bits")
        folds = counted(monkeypatch, "fold_bits")
        for bits in sets:
            for strict in (False, True):
                rotations.clear()
                folds.clear()
                detect_quasi_periodic(ResidueSet(m, bits), strict)
                assert len(rotations) <= 2 * len(divisors(m))
                assert len(folds) <= 2 * len(divisors(m))


class TestKneserDeficiency:
    """``kneser_bits`` returns (d, r, |sum|, bound, deficient), with H = <d>."""

    def test_deficient_pair(self):
        d, mult, size, bound, deficient = zmod.kneser_bits([rs(6, [0, 3]).bits, rs(6, [0, 3]).bits], 6)
        assert d == 3
        assert mult == (1, 1)
        assert size == 2
        assert bound == 2
        assert deficient

    def test_interval_pair_not_deficient(self):
        d, mult, size, bound, deficient = zmod.kneser_bits([rs(6, [0, 1]).bits, rs(6, [0, 1]).bits], 6)
        assert d == 6  # the trivial stabilizer
        assert mult == (2, 2)
        assert size == 3
        assert bound == 3
        assert not deficient

    def test_full_sumset_not_deficient(self):
        d, _, size, _, deficient = zmod.kneser_bits([rs(5, [0, 1, 2]).bits, rs(5, [0, 1, 2]).bits], 5)
        assert size == 5
        assert 5 // d == 5
        assert not deficient


def plain_kneser(parts, m):
    """Kneser's quantities from Python sets: the stabilizer generator d, the
    r_i = |S_i + H| / |H|, |sum|, the bound and the deficiency."""
    total = set(parts[0])
    for part in parts[1:]:
        total = {(x + y) % m for x in total for y in part}
    d = min(d for d in range(1, m + 1) if m % d == 0 and {(x + d) % m for x in total} == total)
    h_size = m // d
    mult = tuple(len({(x + y) % m for x in part for y in range(0, m, d)}) // h_size for part in parts)
    bound = (sum(r - 1 for r in mult) + 1) * h_size
    deficient = len(total) < sum(map(len, parts)) - (len(parts) - 1)
    return d, mult, len(total), bound, deficient


class TestKneserBits:
    """``kneser_bits`` against the plain-set reference, which checks the
    theorem's bound and equality case on its own."""

    def check(self, parts, m):
        want = plain_kneser(parts, m)
        _, _, size, bound, deficient = want
        assert size >= bound and (not deficient or size == bound)
        assert zmod.kneser_bits([members_mask(p, m) for p in parts], m) == want

    @pytest.mark.parametrize("m", range(1, 7))
    def test_every_ordered_pair(self, m):
        subsets = [[x for x in range(m) if enc >> x & 1] for enc in range(1, 1 << m)]
        for a in subsets:
            for b in subsets:
                self.check([a, b], m)

    def test_seeded_triples(self):
        rng = random.Random(11)
        for _ in range(300):
            m = rng.randint(1, 10)
            self.check([rng.sample(range(m), rng.randint(1, m)) for _ in range(3)], m)

    def test_sum_below_its_bound_raises_without_deficiency(self, monkeypatch):
        # {0, 1} + {0, 1, 4} mod 6 is {0, 1, 2, 4, 5}; without 0 it is stable
        # under H = {0, 3}, 4 = |S1| + |S2| - 1 members against a bound of 6
        real = zmod.sumset_bits
        monkeypatch.setattr(zmod, "sumset_bits", lambda parts, m: real(parts, m) & ~1)
        with pytest.raises(CertificateError, match="Kneser bound"):
            zmod.kneser_bits([rs(6, [0, 1]).bits, rs(6, [0, 1, 4]).bits], 6)


class TestKempermanClassify:
    def test_prime_modulus_progression(self):
        result = kemperman_classify(rs(7, [0, 1]))
        assert result.doubled.members == (0, 1, 2)
        assert result.sumset_class.tag == "arithmetic-progression"
        assert result.base_ap == APWitness(0, 1, 2)

    def test_complement_of_singleton_is_both(self):
        result = kemperman_classify(rs(4, [0, 1]))
        assert result.doubled.members == (0, 1, 2)
        assert result.sumset_class.tag == "ap-and-quasi-periodic"
        assert result.sumset_class.qp_witness.shift == 1

    def test_singleton(self):
        result = kemperman_classify(rs(2, [0]))
        assert result.doubled.members == (0,)
        assert result.sumset_class.tag == "arithmetic-progression"

    def test_hypothesis_violation_reports_sizes(self):
        with pytest.raises(ValueError, match=r"\|S\+S\| = 4.*2\|S\|-1 = 5"):
            kemperman_classify(rs(8, [0, 2, 4]))


def folded(s: ResidueSet, d: int) -> ResidueSet:
    """The image of S under reduction mod d, for d | m."""
    return ResidueSet(d, fold_bits(s.bits, d))


class TestProject:
    @given(residue_sets(max_modulus=12), residue_sets(max_modulus=12))
    def test_commutes_with_sumset(self, a, b):
        m = a.modulus
        b = ResidueSet(m, b.bits & ((1 << m) - 1) or 1)
        for d in range(1, m + 1):
            if m % d:
                continue
            assert folded(sumset([a, b]), d) == sumset([folded(a, d), folded(b, d)])


class TestClassifyStructure:
    def test_periodic_tag_wins(self):
        cls = classify_structure(rs(6, [0, 3]))
        assert cls.tag == "periodic"
        assert cls.ap_witness is not None  # {0,3} is also a progression

    def test_none_tag(self):
        cls = classify_structure(rs(8, [0, 1, 4]))
        assert cls.tag in ("none", "quasi-periodic")
        assert cls.ap_witness is None


def test_check_horizon_names_the_largest_horizon_accepted():
    check_horizon((1 << 20) - 1, "horizon")  # a 2^20-entry vector is within the cap
    with pytest.raises(LimitExceededError, match="horizon 1048576 exceeds cap 1048575"):
        check_horizon(1 << 20, "horizon")
