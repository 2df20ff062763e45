"""Plain-set references, and sweeps that run the library's checks.

Quasi-periodicity, arithmetic progressions and sampled sumsets are
recomputed from first principles with plain ints and sets: the
references use no bitmask kernel, divisor list or other helper of
:mod:`buckdens.zmod`, so agreement with the library is a genuine
two-route check.

The Kneser sweep runs ``zmod.kneser_bits``, and the Kemperman sweep the
stabilizer, quasi-periodicity and AP detectors of :mod:`buckdens.zmod`,
on integer-encoded characteristic vectors, and only where no proof
already gives the answer.  They walk the necklaces (rotation-class
representatives), generated in ascending order by the FKM algorithm; the
Kneser sweep skips pairs whose sum is full by pigeonhole, and both sweeps
reduce by a unit multiplier to affine-class representatives where the
check is invariant under it.  Each reduction keeps the first
counterexample of a scan over all encodings; the docstrings prove it.
Each sweep has its own modulus cap: the largest m it finishes within 2 s.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd
from typing import Optional

from .zmod import (
    CertificateError,
    ResidueSet,
    bit_positions,
    cyclic_add_bits,
    detect_arithmetic_progression,
    detect_quasi_periodic,
    kneser_bits,
    stabilizer_generator_bits,
)

#: The largest m each sweep accepts: the last at which one sweep finishes
#: within 2 s (one core of a 2-vCPU host, Python 3.11, median of 3 runs).
KNESER_MODULUS_CAP = 14  # m = 14: 0.8 s; m = 15: 2.2 s
KEMPERMAN_MODULUS_CAP = 24  # m = 24: 1.2 to 1.8 s per convention; m = 25: 5 s


def check_sweep_modulus(m: int, cap: int, field: str = "m") -> None:
    """Refuse a sweep modulus outside [1, cap], naming the field that set it."""
    if not 1 <= m <= cap:
        raise ValueError(f"{field} must be in [1, {cap}] for this sweep, got {m}")


# ---------------------------------------------------------------------------
# quasi-periodicity, recomputed with plain sets
# ---------------------------------------------------------------------------


def brute_quasi_periodic(s: ResidueSet, require_nonempty_periodic_part: bool = False) -> bool:
    """Decide quasi-periodicity by trying every nontrivial proper
    subgroup K and every shift s, with the removed trace forced to
    (S - s) & K.  Periodic sets are not quasi-periodic by convention."""
    if s.is_empty():
        raise ValueError("cannot classify the empty set")
    m = s.modulus
    members = set(s.members)
    proper = [d for d in range(1, m) if m % d == 0]
    # naive periodicity: any proper divisor translation fixing the set
    for d in proper:
        if members == {(x + d) % m for x in members}:
            return False
    for d in proper[1:]:
        subgroup = {x for x in range(0, m, d)}
        for shift in sorted(members):
            trace = {(x - shift) % m for x in members} & subgroup
            if trace == subgroup:
                continue
            removed = {(shift + x) % m for x in trace}
            remainder = members - removed
            if require_nonempty_periodic_part and not remainder:
                continue
            if {(x + d) % m for x in remainder} == remainder:
                return True
    return False


def brute_arithmetic_progression(s: ResidueSet) -> bool:
    """Existence check for an AP ordering of S, by trying every (a, d)."""
    m = s.modulus
    members = set(s.members)
    length = len(members)
    if length == 1:
        return True
    for d in range(1, m):
        for a in members:
            run = {(a + i * d) % m for i in range(length)}
            if len(run) == length and run == members:
                return True
    return False


# ---------------------------------------------------------------------------
# exhaustive sweeps
# ---------------------------------------------------------------------------


def _rotation_representatives(m: int) -> list[int]:
    """The nonempty encodings least in their rotation class, ascending.

    These are the binary necklaces of length m, walked by the FKM algorithm
    (Fredricksen and Maiorana 1978; Cattell, Ruskey, Sawada, Serra and
    Miers 2000) in constant amortized time each.  Symbol a_i of a word is
    bit m - i, so a_1 is the most significant bit: the lexicographic order
    of words is the order of their integers, and a necklace (the
    lexicographically least rotation) is the least encoding of its class.
    The walk visits the prenecklaces in lexicographic order.  From a_1..a_m
    it drops the trailing ones, increments the last symbol left (now a
    Lyndon word of length p), and repeats it with period p up to length m;
    the word is a necklace iff p divides m.  It starts after 0^m, the empty
    set, and stops after 1^m, so every encoding listed is nonempty, and odd:
    rotating an even encoding down by one halves it.
    """
    reps = []
    word, length = 0, m  # the prenecklace 0^m
    while length:
        word += 1  # a Lyndon word of length p = length
        full, span = word, length
        while span < m:  # repeat it with period p up to span >= m symbols
            full |= full << span
            span *= 2
        full >>= span - m
        if m % length == 0:
            reps.append(full)
        ones = (full ^ (full + 1)).bit_length() - 1
        word, length = full >> ones, m - ones
    return reps


def _affine_representatives(m: int, reps: list[int]) -> list[int]:
    """The members of ``reps`` least in their affine class
    {uS + s : u a unit of Z/mZ, s in Z/mZ}, ascending.

    ``reps`` is an ascending list of rotation representatives holding, with
    each one, every representative of its affine class.  A representative
    not marked yet is the least of its class (the class's least member was
    reached first and marked the rest), so it is kept and marks the
    rotation representatives of its unit multiples.
    """
    units = [u for u in range(2, m) if gcd(u, m) == 1]
    mask = (1 << m) - 1
    marked = set()
    out = []
    for enc in reps:
        if enc in marked:
            continue
        out.append(enc)
        members = bit_positions(enc)
        for u in units:
            scaled = sum(1 << (u * x % m) for x in members)
            doubled = scaled | scaled << m
            marked.add(min((doubled >> t) & mask for t in range(m)))  # its least rotation
    return out


def _kneser_violated(m: int, enc1: int, enc2: int) -> bool:
    """Whether (enc1, enc2) fails ``zmod.kneser_bits``: the Kneser bound, or
    under deficiency its equality case or the multiplicity bound.

    A pair with |A| + |B| > m passes without the check.  For every residue
    x, the sets x - A and B hold more than m residues in all, so they meet
    (pigeonhole): A + B = Z/mZ, H = Z/mZ, every r_i = 1, and the bound is
    m = |A + B|.  If the pair is deficient, the equality case |A + B| =
    bound holds, and so does the multiplicity bound 2(|A| + |B| - m) <=
    |A| + |B|, because |A| + |B| <= 2m.
    """
    if enc1.bit_count() + enc2.bit_count() > m:
        return False
    try:
        kneser_bits([enc1, enc2], m)
    except CertificateError:
        return True
    return False


def exhaustive_kneser(m: int, workers: int = 1) -> Optional[tuple[ResidueSet, ResidueSet]]:
    """First nonempty pair in Z/mZ violating
    |S1+S2| >= |S1+H| + |S2+H| - |H| with H the stabilizer of the sumset
    (plus the equality case under deficiency); None means all hold.

    The first part runs over the affine-class representatives and the
    second over the rotation representatives not below it, both ascending.
    The first hit is the one a scan of all pairs finds.  Every quantity of
    the check is preserved by (A, B) -> (uA + s, uB + t) for a unit u and
    by swapping A and B (Kneser 1953), so the violating pairs V form a
    union of orbits.  Let (e1, e2) be the first pair of V in a full scan.
    Every image (u e1 + s, u e2 + t) is in V, so e1 is least in its affine
    class; every (e1, e2 + t) is in V, so e2 is least in its rotation
    class; and (e2, e1) is in V, so e1 <= e2.  The sweep reaches (e1, e2)
    after no pair of V, as every pair it visits before is one the full scan
    visits before.  The same argument, on the least pair of any orbit,
    shows the visited pairs meet every orbit.  ``workers`` selects nothing
    (the sweep is serial); it stays for callers that pass it.
    """
    check_sweep_modulus(m, KNESER_MODULUS_CAP)
    reps = _rotation_representatives(m)
    for enc1 in _affine_representatives(m, reps):
        for enc2 in reps[bisect_left(reps, enc1):]:
            if _kneser_violated(m, enc1, enc2):
                return ResidueSet(m, enc1), ResidueSet(m, enc2)
    return None


def exhaustive_kemperman_ap(
    m: int, require_nonempty_periodic_part: bool = False
) -> Optional[ResidueSet]:
    """First S with |S+S| = 2|S| - 1 whose doubling is neither periodic
    nor quasi-periodic (under the given convention) while S is not an
    arithmetic progression; None when the dichotomy holds throughout.

    The critical-pair hypothesis is tested on bits first (a set with
    2|S| - 1 > m fails it without a sumset), and the doubling it forms is
    kept for the three decisions of the dichotomy, cheapest first: S + S
    is not periodic (its stabilizer generator is m), S + S is not
    quasi-periodic (``zmod.detect_quasi_periodic``), and S is not an AP
    (``zmod.detect_arithmetic_progression``).  A set is a hit iff all three
    hold.  Of the critical rotation-class representatives, only those
    least in their affine class are decided.  Criticality, periodicity,
    quasi-periodicity and being an AP all survive x -> ux + s for a unit u
    (it maps each subgroup onto itself), so the sets that violate form a
    union of affine classes, and the first one a scan of all encodings
    finds is least in its class: it is the first hit here too.  Reducing
    only the critical sets keeps the reduction cheap: at m = 20 they are
    601 of 52487 representatives.
    """
    check_sweep_modulus(m, KEMPERMAN_MODULUS_CAP)
    critical = {}  # each critical representative -> its doubling
    for enc in _rotation_representatives(m):
        size = 2 * enc.bit_count() - 1
        if size <= m:
            doubled = cyclic_add_bits(enc, enc, m)
            if doubled.bit_count() == size:
                critical[enc] = doubled
    for enc in _affine_representatives(m, list(critical)):
        doubled = critical[enc]
        s = ResidueSet(m, enc)
        if (
            stabilizer_generator_bits(doubled, m) == m
            and detect_quasi_periodic(ResidueSet(m, doubled), require_nonempty_periodic_part)
            is None
            and detect_arithmetic_progression(s) is None
        ):
            return s
    return None


# ---------------------------------------------------------------------------
# sampled sumsets
# ---------------------------------------------------------------------------


def brute_sumset_members(xs: list[int], ys: list[int], horizon: int) -> list[int]:
    """Sorted, deduplicated pairwise sums x + y <= horizon, by nested loops
    over plain ints.  A test reference only: production sumsets go through
    ``zmod.linear_sum_bits`` and ``zmod.add_bits``, never through here.
    """
    return sorted({x + y for x in xs for y in ys if x + y <= horizon})
