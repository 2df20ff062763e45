"""Brute-force reference implementations for cross-validation.

Everything here recomputes structure from first principles with plain
set arithmetic (no shared bitmask machinery beyond subset encoding), so
agreement with :mod:`buckdens.zmod` is a genuine two-route check.
Subsets of Z/mZ are enumerated by ascending integer-encoded
characteristic vectors, which pins down the first counterexample.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from .zmod import (
    ResidueSet,
    bit_positions,
    divisors,
    is_periodic,
    rotate_bits,
    saturate_bits,
    sumset_bits,
)

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
    # naive periodicity: any proper divisor translation fixing the set
    for d in divisors(m):
        if d < m and members == {(x + d) % m for x in members}:
            return False
    for d in divisors(m):
        if d <= 1 or d >= m:
            continue
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


def _kneser_violation_in_range(m: int, start: int, stop: int) -> Optional[tuple[int, int]]:
    """First (enc1, enc2) violating the Kneser bound with enc1 in [start, stop)."""
    divs = [d for d in divisors(m) if d < m] + [m]
    full = (1 << m) - 1
    for enc1 in range(max(start, 1), stop):
        for enc2 in range(1, full + 1):
            total = sumset_bits([enc1, enc2], m)
            for d in divs:
                if rotate_bits(total, d, m) == total:
                    break
            h_size = m // d
            lhs = total.bit_count()
            s1h = saturate_bits(enc1, d, m).bit_count()
            s2h = saturate_bits(enc2, d, m).bit_count()
            if lhs < s1h + s2h - h_size:
                return (enc1, enc2)
            if lhs < enc1.bit_count() + enc2.bit_count() - 1:
                # deficiency forces the equality case
                if lhs != s1h + s2h - h_size:
                    return (enc1, enc2)
    return None


def exhaustive_kneser(m: int, workers: int = 1) -> Optional[tuple[ResidueSet, ResidueSet]]:
    """Scan all nonempty pairs in Z/mZ for a violation of
    |S1+S2| >= |S1+H| + |S2+H| - |H| with H the stabilizer of the sumset
    (plus the equality case under deficiency); None means all hold."""
    _check_sweep_modulus(m)
    full = (1 << m) - 1
    if workers <= 1 or full < 64:
        hit = _kneser_violation_in_range(m, 1, full + 1)
    else:
        chunk = -(-full // workers)
        ranges = [(m, 1 + i * chunk, min(1 + (i + 1) * chunk, full + 1)) for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_kneser_violation_in_range, *zip(*ranges)))
        hit = None
        for r in results:  # ordered by chunk, so the lowest encoding wins
            if r is not None:
                hit = r
                break
    if hit is None:
        return None
    return ResidueSet(m, hit[0]), ResidueSet(m, hit[1])


def exhaustive_kemperman_ap(
    m: int, require_nonempty_periodic_part: bool = False
) -> Optional[ResidueSet]:
    """First S with |S+S| = 2|S| - 1 whose doubling is neither periodic
    nor quasi-periodic (under the given convention) while S is not an
    arithmetic progression; None when the dichotomy holds throughout."""
    _check_sweep_modulus(m)
    from .zmod import detect_arithmetic_progression, detect_quasi_periodic

    for enc in range(1, 1 << m):
        s = ResidueSet(m, enc)
        doubled = ResidueSet(m, sumset_bits([enc, enc], m))
        if doubled.cardinality != 2 * s.cardinality - 1:
            continue
        if is_periodic(doubled):
            continue
        if detect_quasi_periodic(doubled, require_nonempty_periodic_part) is not None:
            continue
        if detect_arithmetic_progression(s) is None:
            return s
    return None


# ---------------------------------------------------------------------------
# sampled sumsets
# ---------------------------------------------------------------------------


def brute_sumset_members(xs: list[int], ys: list[int], horizon: int) -> list[int]:
    """Sorted, deduplicated pairwise sums x + y <= horizon.

    Inputs must be ascending.  The sums are accumulated as a shifted-OR
    of membership bitmasks, which keeps dense inputs at word speed.
    """
    if horizon < 0 or not xs or not ys:
        return []
    y_bits = 0
    for y in ys:
        if y > horizon:
            break
        y_bits |= 1 << y
    if y_bits == 0:
        return []
    acc = 0
    first_y = ys[0]
    for x in xs:
        if x + first_y > horizon:
            break
        acc |= y_bits << x
    return bit_positions(acc & ((1 << (horizon + 1)) - 1))
