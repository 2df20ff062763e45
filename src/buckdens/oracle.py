"""Plain-set references, and sweeps that run the library's checks.

Quasi-periodicity, arithmetic progressions and sampled sumsets are
recomputed from first principles with plain ints and sets: the
references use no bitmask kernel, divisor list or other helper of
:mod:`buckdens.zmod`, so agreement with the library is a genuine
two-route check.  The sweeps run
``zmod.kneser_bits`` and ``zmod.kemperman_classify`` on integer-encoded
characteristic vectors, walking rotation-class representatives in
ascending order, which pins down the first counterexample of a scan over
all encodings.
"""

from __future__ import annotations

from typing import Optional

from .zmod import CertificateError, ResidueSet, kemperman_classify, kneser_bits, rotate_bits

EXHAUSTIVE_MODULUS_CAP = 12


def _check_sweep_modulus(m: int) -> None:
    if not 1 <= m <= EXHAUSTIVE_MODULUS_CAP:
        raise ValueError(f"exhaustive sweeps support 1 <= m <= {EXHAUSTIVE_MODULUS_CAP}, got {m}")


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

    A representative is odd: rotating an even encoding down by one halves it.
    """
    return [
        e for e in range(1, 1 << m, 2) if all(rotate_bits(e, t, m) >= e for t in range(1, m))
    ]


def _kneser_violated(m: int, enc1: int, enc2: int) -> bool:
    """Whether (enc1, enc2) fails ``zmod.kneser_bits``: the Kneser bound, or
    under deficiency its equality case or the multiplicity bound."""
    try:
        kneser_bits([enc1, enc2], m)
    except CertificateError:
        return True
    return False


def exhaustive_kneser(m: int, workers: int = 1) -> Optional[tuple[ResidueSet, ResidueSet]]:
    """First nonempty pair in Z/mZ violating
    |S1+S2| >= |S1+H| + |S2+H| - |H| with H the stabilizer of the sumset
    (plus the equality case under deficiency); None means all hold.

    Translating either summand or swapping them preserves every quantity
    in the bound, so the pairs of rotation-class representatives with
    enc1 <= enc2 cover all pairs.  The first hit is the one a scan of all
    pairs finds: the least violating pair has both parts least in their
    class, and its swap also violates, so its first part is the smaller.
    ``workers`` selects nothing (the sweep is serial); it stays for callers
    that pass it.
    """
    _check_sweep_modulus(m)
    reps = _rotation_representatives(m)
    for i, enc1 in enumerate(reps):
        for enc2 in reps[i:]:
            if _kneser_violated(m, enc1, enc2):
                return ResidueSet(m, enc1), ResidueSet(m, enc2)
    return None


def exhaustive_kemperman_ap(
    m: int, require_nonempty_periodic_part: bool = False
) -> Optional[ResidueSet]:
    """First S with |S+S| = 2|S| - 1 whose doubling is neither periodic
    nor quasi-periodic (under the given convention) while S is not an
    arithmetic progression; None when the dichotomy holds throughout.

    ``zmod.kemperman_classify`` reads each S (ValueError: not critical); a
    hit has no ``base_ap``, and S + S is tagged ``none`` or, when it is an AP
    while S is not, ``arithmetic-progression``.  Every condition is unchanged
    by translating S, so only rotation-class representatives are scanned.
    """
    _check_sweep_modulus(m)
    for enc in _rotation_representatives(m):
        s = ResidueSet(m, enc)
        try:
            found = kemperman_classify(s, require_nonempty_periodic_part)
        except ValueError:
            continue
        if found.sumset_class.tag in ("none", "arithmetic-progression") and found.base_ap is None:
            return s
    return None


# ---------------------------------------------------------------------------
# sampled sumsets
# ---------------------------------------------------------------------------


def brute_sumset_members(xs: list[int], ys: list[int], horizon: int) -> list[int]:
    """Sorted, deduplicated pairwise sums x + y <= horizon, by nested loops
    over plain ints.  A test reference only: production sumsets go through
    ``zmod.add_bits``, never through here.
    """
    return sorted({x + y for x in xs for y in ys if x + y <= horizon})
