"""Exact subsets of Z/mZ: sumsets, stabilizers, and structure detection.

Residue sets are immutable, bitmask-backed values so that the exhaustive
sweeps in :mod:`buckdens.oracle` can walk millions of subsets cheaply.
Bit i of ``bits`` is set iff residue i belongs to the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count, product
from math import gcd
from typing import Iterable, Iterator, Optional

#: Dense membership vectors are capped at this modulus.
MAX_MODULUS = 1 << 20


class LimitExceededError(ValueError):
    """Raised when a modulus exceeds the dense-representation cap."""


class CertificateError(RuntimeError):
    """A computed certificate failed its own check (none is expected)."""


def divisors(m: int) -> list[int]:
    """All positive divisors of m, ascending."""
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, ascending, by trial division (none for n < 2)."""
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def check_width(width: int, what: str) -> None:
    """Refuse a dense vector of ``width`` bits above the cap, before it is
    built.  A width past 2^64 is named by its bit length: its decimal may
    have more digits than ``str`` converts."""
    if width > MAX_MODULUS:
        shown = width if width.bit_length() <= 64 else f"of {width.bit_length()} bits"
        raise LimitExceededError(f"{what} {shown} exceeds cap {MAX_MODULUS}")


def check_horizon(horizon: int, what: str) -> None:
    """Refuse a horizon whose (horizon + 1)-entry vector would exceed the cap."""
    if horizon >= MAX_MODULUS:
        raise LimitExceededError(f"{what} {horizon} exceeds cap {MAX_MODULUS - 1}")


def _check_modulus(m: int) -> None:
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    check_width(m, "modulus")


def rotate_bits(bits: int, t: int, m: int) -> int:
    """Cyclic shift of an m-bit membership vector: x -> x + t in Z/mZ."""
    t %= m
    if t == 0:
        return bits
    mask = (1 << m) - 1
    return ((bits << t) | (bits >> (m - t))) & mask


def tile_bits(pattern: int, q: int, width: int) -> int:
    """The OR of ``pattern << j*q`` over every j with j*q < width, cut to
    width bits.  For a q-bit pattern, bit n is bit n mod q of the pattern;
    a wider pattern gives its copies overlapping, so a linear sum L tiles
    to L + qN."""
    out, span = pattern, q
    while span < width:  # doubling: out holds the pattern repeated over span bits
        out |= out << span
        span *= 2
    return out & ((1 << width) - 1)


#: the ASCII binary digits b"0", b"1" -> the bytes 0, 1
_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def bit_flags(bits: int) -> bytes:
    """Byte n is 1 iff bit n of a vector is set, for n below its bit length
    (one byte for 0): its binary numeral, reversed and translated."""
    return bin(bits)[:1:-1].encode().translate(_DIGIT_VALUES)


def bit_positions(bits: int) -> list[int]:
    """The set bits of a vector, ascending."""
    return list(compress(count(), bit_flags(bits)))


#: the decimal numerals of 0..999, plain and padded to three digits (the
#: padded ones as digit triples: a third of the import time of formatting)
_NUMERALS = tuple(map(str, range(1000)))
_PADDED = tuple(map("".join, product("0123456789", repeat=3)))


def positions_text(bits: int, sep: str) -> str:
    """``sep.join(map(str, bit_positions(bits)))``, with no int per position.

    Position 1000 b + r is written as str(b) and then r in three digits, so
    each block of 1000 flags past the first is one ``compress`` over the
    padded numerals and one ``join`` whose separator is ``sep + str(b)``.
    The first block takes the plain numerals, and empty blocks are skipped.
    """
    flags = bit_flags(bits)
    first = flags[:1000]
    parts = [sep.join(compress(_NUMERALS, first))] if 1 in first else []
    for start in range(1000, len(flags), 1000):
        block = flags[start : start + 1000]
        if 1 in block:
            lead = str(start // 1000)
            parts.append(lead + (sep + lead).join(compress(_PADDED, block)))
    return sep.join(parts)


def add_bits(bits: int, offsets: Iterable[int]) -> int:
    """The vector of {x + n : x in bits, n in offsets}: one full-width shift
    per offset (sums of two wide masks go through ``linear_sum_bits``,
    residue sums through ``cyclic_add_bits``).

    ``thin_basis_set`` and ``periodic.add`` call it directly: their offsets
    are short lists on narrow masks, where grouping words costs more than
    it shares."""
    out = 0
    for n in offsets:
        out |= bits << n
    return out


def linear_sum_bits(a: int, b: int) -> int:
    """The vector of {x + y : x in a, y in b}: every sum of two wide masks.

    The sparser mask (by popcount) supplies the offsets, read as 64-bit
    words.  Since A + (P << s) = (A + P) << s, a word P with at least two
    bits that starts at two or more places s costs one partial sum A + P and
    one shift per start, |P| + |starts| full-width shifts instead of
    |P| * |starts|.  The bits of every other word shift the denser mask
    directly, so no sum takes more shifts than one per offset.
    """
    if a.bit_count() < b.bit_count():
        a, b = b, a
    raw = b.to_bytes((b.bit_length() + 63) // 64 * 8, "little")
    starts: dict[bytes, list[int]] = {}
    for i in compress(count(), memoryview(raw).cast("Q")):  # the nonzero words
        starts.setdefault(raw[8 * i : 8 * i + 8], []).append(64 * i)
    out, direct = 0, []
    for word, at in starts.items():
        lows = bit_positions(int.from_bytes(word, "little"))
        if len(at) > 1 and len(lows) > 1:
            out |= add_bits(add_bits(a, lows), at)
        else:
            direct.extend(s + n for s in at for n in lows)
    return out | add_bits(a, direct)


#: Offsets with at most this many set bits are read lowest bit first
#: (``o & -o``), so a sum that fills Z/mZ lists none past where it stops.
#: Each costs three big-int operations; past a count that barely moves with
#: the width (measured between 128 and 256 for m from 2^8 to 2^16), one
#: O(m) ``bit_positions`` pass is cheaper.
SPARSE_OFFSETS = 128


def cyclic_add_bits(bits: int, offsets: int, m: int, acc: int = 0) -> int:
    """``acc | (bits + offsets)`` in Z/mZ, for m-bit vectors: every residue sumset.

    The shifts ``bits << n`` are ORed into one linear vector (below 2m - 1
    bits).  After 1, 2, 4, ... offsets it is folded mod m and compared with
    the full mask, and a full fold is returned at once: a sum that fills the
    ring stops within twice the offsets it needed, and one that never does
    pays about log2 |offsets| extra folds.
    """
    full = (1 << m) - 1
    if acc == full:
        return full
    linear, done = acc, 0
    if offsets.bit_count() <= SPARSE_OFFSETS:
        while offsets:
            low = offsets & -offsets
            offsets ^= low
            linear |= bits << (low.bit_length() - 1)
            done += 1  # fold when done is a power of two
            if not done & (done - 1) and (linear & full) | (linear >> m) == full:
                return full
    else:
        for n in bit_positions(offsets):
            linear |= bits << n
            done += 1
            if not done & (done - 1) and (linear & full) | (linear >> m) == full:
                return full
    return (linear & full) | (linear >> m)


def digits_mask(digits: bytearray) -> int:
    """The vector whose bit n is the ASCII binary digit ``digits[n]`` (48 or
    49), parsed by ``int(.., 2)``.  Reverses ``digits`` in place."""
    digits.reverse()  # the most significant digit first
    return int(digits, 2) if digits else 0


def members_mask(members: Iterable[int], width: int) -> int:
    """The bitmask of a collection of integers in [0, width), written as a
    binary numeral of one ASCII digit per bit: one byte store per member,
    and no shift-OR or bit arithmetic."""
    digits = bytearray(b"0") * width
    for n in members:
        digits[n] = 49  # ord("1")
    return digits_mask(digits)


def fold_bits(bits: int, g: int) -> int:
    """OR of the g-bit chunks of a vector: bit r is set iff some n = r mod g is."""
    while bits >> g:  # fold the upper half of the chunks onto the lower half
        cut = -(-bits.bit_length() // (2 * g)) * g
        bits = (bits & ((1 << cut) - 1)) | (bits >> cut)
    return bits


#: ``ResidueSet.of`` writes a binary numeral from this many members on.
#: Each shift-OR copies the vector built so far, so n of them cost about n
#: times the width, and the numeral costs the width plus n.  Measured for m
#: from 2^8 to 2^20 the two meet between 100 and 500 members, whatever the
#: width: at m = 2^20 three members take 15 us shifted against 2.4 ms as a
#: numeral, and 10^4 members 85 ms against 4.7 ms (2 vCPUs, Python 3.11.7).
NUMERAL_MEMBERS = 256


@dataclass(frozen=True)
class ResidueSet:
    """A subset of Z/mZ with dense membership-vector semantics."""

    modulus: int
    bits: int

    def __post_init__(self) -> None:
        _check_modulus(self.modulus)
        if not 0 <= self.bits < (1 << self.modulus):
            raise ValueError("membership vector out of range for modulus")

    @classmethod
    def of(cls, modulus: int, members: Iterable[int]) -> "ResidueSet":
        """The set of the given residues, each in [0, modulus).  Fewer than
        ``NUMERAL_MEMBERS`` are ORed in as shifted bits; more are written
        as a binary numeral (``members_mask``)."""
        _check_modulus(modulus)
        xs = list(members)
        if xs and not 0 <= min(xs) <= max(xs) < modulus:  # a bytearray index would wrap a negative
            bad = next(x for x in xs if not 0 <= x < modulus)
            raise ValueError(f"member {bad} not in [0, {modulus})")
        if len(xs) >= NUMERAL_MEMBERS:
            return cls(modulus, members_mask(xs, modulus))
        bits = 0
        for x in xs:
            bits |= 1 << x
        return cls(modulus, bits)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(bit_positions(self.bits))

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(bit_positions(self.bits))

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.modulus and (self.bits >> x) & 1 == 1

    def is_empty(self) -> bool:
        return self.bits == 0

    def is_full(self) -> bool:
        return self.bits == (1 << self.modulus) - 1

    def union(self, other: "ResidueSet") -> "ResidueSet":
        _require_same_modulus([self, other])
        return ResidueSet(self.modulus, self.bits | other.bits)

    def issubset(self, other: "ResidueSet") -> bool:
        _require_same_modulus([self, other])
        return self.bits & ~other.bits == 0

    def __repr__(self) -> str:
        return f"ResidueSet({self.modulus}, {{{positions_text(self.bits, ', ')}}})"


@dataclass(frozen=True)
class Subgroup:
    """The subgroup {0, d, 2d, ...} of Z/mZ; d = m encodes the trivial one."""

    modulus: int
    generator: int

    def __post_init__(self) -> None:
        if self.generator < 1 or self.modulus % self.generator != 0:
            raise ValueError("generator must be a positive divisor of the modulus")

    def is_trivial(self) -> bool:
        return self.generator == self.modulus


@dataclass(frozen=True)
class APWitness:
    start: int
    difference: int
    length: int


@dataclass(frozen=True)
class QuasiPeriodicWitness:
    """Witness (K, s, S'') with S \\ (s + S'') being K-periodic."""

    subgroup: Subgroup
    shift: int
    trace: ResidueSet
    periodic_part: ResidueSet


@dataclass(frozen=True)
class StructureClass:
    """Classification of a residue set per the small-doubling dichotomy."""

    tag: str  # periodic | quasi-periodic | arithmetic-progression | ap-and-quasi-periodic | none
    qp_witness: Optional[QuasiPeriodicWitness] = None
    ap_witness: Optional[APWitness] = None

    def to_json_dict(self) -> dict:
        out: dict = {"tag": self.tag}
        if self.ap_witness is not None:
            w = self.ap_witness
            out["ap_witness"] = {"start": w.start, "difference": w.difference, "length": w.length}
        if self.qp_witness is not None:
            w = self.qp_witness
            out["qp_witness"] = {
                "subgroup_generator": w.subgroup.generator,
                "shift": w.shift,
                "trace": bit_positions(w.trace.bits),
                "periodic_part": bit_positions(w.periodic_part.bits),
            }
        return out


def _require_same_modulus(sets: Iterable[ResidueSet]) -> int:
    it = iter(sets)
    first = next(it)
    for s in it:
        if s.modulus != first.modulus:
            raise ValueError(f"modulus mismatch: {s.modulus} != {first.modulus}")
    return first.modulus


def sumset_bits(bit_sets: list[int], m: int) -> int:
    """Minkowski sum of membership vectors in Z/mZ: one ``cyclic_add_bits``
    per part after the first, each stopping once the ring is full."""
    acc = bit_sets[0]
    for other in bit_sets[1:]:
        acc = cyclic_add_bits(acc, other, m)
    return acc


def sumset(sets: list[ResidueSet]) -> ResidueSet:
    """Pointwise sumset {x_1 + ... + x_k mod m} of nonempty sets mod m."""
    if not sets:
        raise ValueError("sumset of an empty list of sets")
    m = _require_same_modulus(sets)
    for s in sets:
        if s.is_empty():
            raise ValueError("sumset of an empty residue set")
    return ResidueSet(m, sumset_bits([s.bits for s in sets], m))


def stabilizer_generator_bits(bits: int, m: int) -> int:
    """Smallest divisor d of m with S + d = S (d = m when only trivial).

    By prime descent: start at d = m and, for each prime p of m, divide p
    out of d while d / p still fixes S.  The translations fixing S form a
    subgroup <d0> of Z/mZ, d0 | m, so the divisors of m that fix S are the
    multiples of d0.  Every d visited is one, and d / p fixes S iff
    v_p(d) > v_p(d0): each prime's descent stops at v_p(d0), and d ends at
    d0.  That is at most Omega(m) + omega(m) rotations, and no divisor list.
    """
    d = m
    for p in prime_factors(m):
        while d % p == 0 and rotate_bits(bits, d // p, m) == bits:
            d //= p
    return d


def stabilizer(s: ResidueSet) -> Subgroup:
    """Largest subgroup H with S + H = S, encoded by its smallest generator."""
    if s.is_empty():
        raise ValueError("stabilizer of the empty set")
    return Subgroup(s.modulus, stabilizer_generator_bits(s.bits, s.modulus))


def is_periodic(s: ResidueSet) -> bool:
    """True iff some proper divisor d of m satisfies S + d = S."""
    # Z/1Z has no proper divisor, so nothing mod 1 is periodic; the
    # generator-equals-modulus encoding gets that right for free.
    return not stabilizer(s).is_trivial()


def saturate_bits(bits: int, d: int, m: int) -> int:
    """S + H for the subgroup generated by divisor d of m."""
    return tile_bits(fold_bits(bits, d), d, m)


def detect_arithmetic_progression(s: ResidueSet) -> Optional[APWitness]:
    """AP witness (a, d, l) with S = {a, a+d, ..., a+(l-1)d}, all distinct.

    Returns the witness with smallest difference d, ties broken by
    smallest start; singletons are canonicalized to d = 1.

    One rotation per d with l = |S| <= ord(d) (else no l distinct terms):
    S is an AP of difference d iff it has at most one start, a member x
    with x - d not in S.  On each coset of <d>, a cycle of ord(d) points,
    S is empty, full or maximal runs with one start each, and l <= ord(d)
    leaves no other member beside a full coset.  No start: S is one coset,
    an AP from any member (min(S) is taken).  One start a: S is one run.

    When |S|(|S| - 1) < m, only the differences of two members are tried,
    fewer than the m - 1 of a linear scan: an AP {a, a + d, ...} of l >= 2
    terms holds a and a + d, so d is in (S - S) minus {0}.  S - S is one
    ``cyclic_add_bits`` of S and -S, and its members are tried ascending,
    so the witness (smallest d, then smallest start) is the linear scan's.
    """
    if s.is_empty():
        raise ValueError("cannot classify the empty set")
    m = s.modulus
    length = s.cardinality
    if length == 1:
        return APWitness(next(iter(s)), 1, 1)
    differences = range(1, m)
    if length * (length - 1) < m:
        negated = rotate_bits(int(format(s.bits, f"0{m}b")[::-1], 2), 1, m)  # x -> -x
        differences = bit_positions(cyclic_add_bits(s.bits, negated, m) & ~1)
    for d in differences:
        if length > m // gcd(d, m):
            continue
        starts = s.bits & ~rotate_bits(s.bits, d, m)
        if starts & (starts - 1) == 0:  # at most one start
            first = starts or s.bits
            return APWitness((first & -first).bit_length() - 1, d, length)
    return None


def detect_quasi_periodic(
    s: ResidueSet, require_nonempty_periodic_part: bool = False
) -> Optional[QuasiPeriodicWitness]:
    """Quasi-periodicity witness for a non-periodic set, or None.

    Searches nontrivial proper subgroups K by decreasing order, then
    shifts s ascending; the removed trace is forced to S'' = (S - s) & K,
    i.e. S' = S minus its part on the coset s + K.  A witness requires
    S'' to be a proper subset of K and S' to be K-periodic; with
    ``require_nonempty_periodic_part`` the remainder S' must be nonempty.
    Periodic inputs return None (the notion applies to non-periodic sets).

    Two folds per K = <d>: S meets the coset r + K iff bit r of
    ``fold_bits(S, d)`` is set, and fills it iff bit r of ``fold_bits(~S, d)``
    is clear.  K-periodic sets are full or empty on each coset, so s gives a
    witness iff its coset is the one partial coset of S (met, not filled),
    with the same S' for every such s.  A non-periodic S has one for each K.
    """
    if s.is_empty():
        raise ValueError("cannot classify the empty set")
    m = s.modulus
    if is_periodic(s):
        return None
    bits = s.bits
    for d in divisors(m)[1:-1]:  # nontrivial proper subgroups, largest first
        partial = fold_bits(bits, d) & fold_bits(bits ^ ((1 << m) - 1), d)
        if partial & (partial - 1):
            continue  # two or more partial cosets
        coset = tile_bits(1, d, m) << (partial.bit_length() - 1)
        remainder = bits & ~coset
        if require_nonempty_periodic_part and remainder == 0:
            continue
        on_coset = bits & coset  # S'' is this shifted down by its least member
        shift = (on_coset & -on_coset).bit_length() - 1
        return QuasiPeriodicWitness(
            Subgroup(m, d), shift, ResidueSet(m, on_coset >> shift), ResidueSet(m, remainder)
        )
    return None


def classify_structure(
    s: ResidueSet, require_nonempty_periodic_part: bool = False
) -> StructureClass:
    """Tag a residue set as periodic / quasi-periodic / AP / both / none."""
    ap = detect_arithmetic_progression(s)  # raises on the empty set
    if is_periodic(s):
        return StructureClass("periodic", None, ap)
    qp = detect_quasi_periodic(s, require_nonempty_periodic_part)
    if qp is not None and ap is not None:
        return StructureClass("ap-and-quasi-periodic", qp, ap)
    if qp is not None:
        return StructureClass("quasi-periodic", qp, None)
    if ap is not None:
        return StructureClass("arithmetic-progression", None, ap)
    return StructureClass("none", None, None)


def kneser_bits(bit_sets: list[int], m: int) -> tuple[int, tuple[int, ...], int, int, bool]:
    """Kneser's theorem on S_1 + ... + S_k (nonempty m-bit vectors), checked.

    Returns (d, r, |sum|, bound, deficient), with H = <d> the stabilizer of
    the sum, r_i = |S_i + H| / |H| and bound = (sum(r_i - 1) + 1) * |H|.  A
    CertificateError means |sum| < bound, or a deficient sum (one below
    sum|S_i| - (k - 1)) with |sum| != bound or sum(r_i) > (k - 1) / eta',
    where eta' = 1 - |sum| / sum|S_i|.
    """
    k = len(bit_sets)
    total = sumset_bits(bit_sets, m)
    d = stabilizer_generator_bits(total, m)
    h_size = m // d
    mult = tuple(saturate_bits(bits, d, m).bit_count() // h_size for bits in bit_sets)
    size = total.bit_count()
    bound = (sum(mult) - k + 1) * h_size
    if size < bound:
        raise CertificateError("Kneser bound violated")
    card_sum = sum(bits.bit_count() for bits in bit_sets)
    deficient = size < card_sum - (k - 1)
    if deficient:
        if size != bound:
            raise CertificateError("Kneser equality case violated")
        if sum(mult) * (card_sum - size) > (k - 1) * card_sum:
            raise CertificateError("multiplicity bound violated")
    return d, mult, size, bound, deficient
