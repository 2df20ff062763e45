"""Exact algebra on eventually periodic subsets of N.

A member is stored in canonical form (q, T, prefix, tail): below the
threshold T membership is given by the explicit prefix, at and above T
by the tail residues mod q.  The period q is minimal for the tail and T
is the smallest multiple of q consistent with the set, which makes
structural equality coincide with set equality.  Finite unions of
arithmetic progressions a + kN, their unions, intersections,
complements, shifts and exact sumsets all stay inside the family, with
densities as exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .zmod import ResidueSet, rotate_bits, stabilizer_generator_bits


@dataclass(frozen=True)
class ModularProfile:
    """The residues mod m attained by a set: at all, infinitely often,
    and cofinitely (whole class minus a finite set)."""

    modulus: int
    attained: ResidueSet
    infinitely_attained: ResidueSet
    cofinitely_attained: ResidueSet

    def __post_init__(self) -> None:
        if not (
            self.attained.modulus
            == self.infinitely_attained.modulus
            == self.cofinitely_attained.modulus
            == self.modulus
        ):
            raise ValueError("profile components must share the modulus")
        if not self.cofinitely_attained.issubset(self.infinitely_attained):
            raise ValueError("cofinitely attained residues must be infinitely attained")
        if not self.infinitely_attained.issubset(self.attained):
            raise ValueError("infinitely attained residues must be attained")


@dataclass(frozen=True)
class EventuallyPeriodicSet:
    period: int
    threshold: int
    prefix: frozenset[int]
    tail: ResidueSet

    def __post_init__(self) -> None:
        q, t = self.period, self.threshold
        if q < 1 or t < 0 or t % q != 0:
            raise ValueError("threshold must be a nonnegative multiple of the period")
        if self.tail.modulus != q:
            raise ValueError("tail modulus must equal the period")
        if any(not 0 <= n < t for n in self.prefix):
            raise ValueError("prefix members must lie below the threshold")
        # canonical form: minimal tail period, then minimal threshold
        if self.tail.is_empty():
            if q != 1:
                raise ValueError("empty tail requires period 1")
        elif stabilizer_generator_bits(self.tail.bits, q) != q and q > 1:
            raise ValueError("tail period is not minimal")
        if t > 0:
            block_ok = all(
                (n in self.prefix) == ((n % q) in self.tail)
                for n in range(t - q, t)
            )
            if block_ok:
                raise ValueError("threshold is not minimal")

    # -- membership ----------------------------------------------------

    def __contains__(self, n: int) -> bool:
        if n < 0:
            raise ValueError("membership is defined on N only")
        if n < self.threshold:
            return n in self.prefix
        return (n % self.period) in self.tail

    def members(self, horizon: int) -> list[int]:
        """All members n <= horizon, ascending."""
        out = [n for n in sorted(self.prefix) if n <= horizon]
        for r in self.tail:
            first = self.threshold + r
            out.extend(range(first, horizon + 1, self.period))
        out.sort()
        return out

    def is_empty(self) -> bool:
        return not self.prefix and self.tail.is_empty()

    def is_finite(self) -> bool:
        return self.tail.is_empty()

    # -- exact quantities ----------------------------------------------

    def natural_density(self) -> Fraction:
        return Fraction(self.tail.cardinality, self.period)

    def modular_profile(self, m: int) -> ModularProfile:
        """Exact attained / infinitely attained / cofinitely attained residues mod m."""
        if m < 1:
            raise ValueError("modulus must be positive")
        q = self.period
        g = gcd(q, m)
        tail_mod_g = {r % g for r in self.tail}
        inf_bits = 0
        for s in range(m):
            if s % g in tail_mod_g:
                inf_bits |= 1 << s
        att_bits = inf_bits
        for n in self.prefix:
            att_bits |= 1 << (n % m)
        big = lcm(q, m)
        cof_bits = 0
        for s in range(m):
            if all(((s + m * t) % q) in self.tail for t in range(big // m)):
                cof_bits |= 1 << s
        return ModularProfile(
            m,
            ResidueSet(m, att_bits),
            ResidueSet(m, inf_bits),
            ResidueSet(m, cof_bits),
        )

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "q": self.period,
            "T": self.threshold,
            "prefix": sorted(self.prefix),
            "tail": sorted(self.tail),
        }

    def __repr__(self) -> str:
        tail = ",".join(map(str, sorted(self.tail)))
        pre = ",".join(map(str, sorted(self.prefix)))
        return f"EventuallyPeriodicSet(q={self.period}, T={self.threshold}, prefix={{{pre}}}, tail={{{tail}}} mod {self.period})"


# -- canonical construction ----------------------------------------------


def _build(q: int, t: int, prefix: Iterable[int], tail_bits: int) -> EventuallyPeriodicSet:
    """Canonicalize an arbitrary (q, T, prefix, tail) description."""
    prefix_set = set(prefix)
    if tail_bits == 0:
        # a finite set: the threshold is one past its largest member
        kept = [n for n in prefix_set if n < t]
        t = max(kept) + 1 if kept else 0
        return EventuallyPeriodicSet(1, t, frozenset(kept), ResidueSet(1, 0))
    q2 = stabilizer_generator_bits(tail_bits, q)
    tail2 = tail_bits & ((1 << q2) - 1)
    # threshold stays a multiple of the reduced period
    while t >= q2 and all(
        (n in prefix_set) == (((tail2 >> (n % q2)) & 1) == 1)
        for n in range(t - q2, t)
    ):
        t -= q2
    pruned = frozenset(n for n in prefix_set if n < t)
    return EventuallyPeriodicSet(q2, t, pruned, ResidueSet(q2, tail2))


def empty() -> EventuallyPeriodicSet:
    return _build(1, 0, (), 0)


def naturals() -> EventuallyPeriodicSet:
    return _build(1, 0, (), 1)


def from_finite(members: Iterable[int]) -> EventuallyPeriodicSet:
    members = set(members)
    if any(n < 0 for n in members):
        raise ValueError("members must be nonnegative")
    t = max(members) + 1 if members else 0
    return _build(1, t, members, 0)


def from_residues(q: int, residues: Iterable[int]) -> EventuallyPeriodicSet:
    """Union of the full classes r + qN over the given residues mod q."""
    bits = 0
    for r in residues:
        if not 0 <= r < q:
            raise ValueError(f"residue {r} not in [0, {q})")
        bits |= 1 << r
    return _build(q, 0, (), bits)


def from_progressions(terms: list[tuple[int, int]]) -> EventuallyPeriodicSet:
    """Canonical form of the union of progressions a + kN."""
    if not terms:
        raise ValueError("at least one progression is required")
    for a, k in terms:
        if k < 1:
            raise ValueError(f"progression step must be positive, got {k}")
        if a < 0:
            raise ValueError(f"progression start must be nonnegative, got {a}")
    q = 1
    for _, k in terms:
        q = lcm(q, k)
    top = max(a for a, _ in terms)
    t = -(-top // q) * q  # first multiple of q at or above every start
    tail_bits = 0
    for r in range(q):
        if any(r % k == a % k for a, k in terms):
            tail_bits |= 1 << r
    prefix = {
        n
        for a, k in terms
        for n in range(a, t, k)
    }
    return _build(q, t, prefix, tail_bits)


def from_json_dict(obj: dict) -> EventuallyPeriodicSet:
    if "progressions" in obj:
        return from_progressions([tuple(p) for p in obj["progressions"]])
    q, t = obj["q"], obj["T"]
    tail_bits = 0
    for r in obj.get("tail", []):
        if not 0 <= r < q:
            raise ValueError(f"tail residue {r} not in [0, {q})")
        tail_bits |= 1 << r
    if t < 0:
        raise ValueError(f"T must be nonnegative, got {t}")
    prefix = obj.get("prefix", [])
    for n in prefix:
        if not 0 <= n < t:
            raise ValueError(f"prefix member {n} not in [0, {t})")
    return _build(q, t, prefix, tail_bits)


# -- pointwise algebra -----------------------------------------------------


def _aligned(a: EventuallyPeriodicSet, b: EventuallyPeriodicSet):
    """Common-(q, T) raw descriptions of two sets."""
    q = lcm(a.period, b.period)
    top = max(a.threshold, b.threshold)
    t = -(-top // q) * q
    def expand(s: EventuallyPeriodicSet):
        tail_bits = 0
        for r in range(q):
            if (r % s.period) in s.tail:
                tail_bits |= 1 << r
        prefix = {n for n in range(t) if n in s}
        return prefix, tail_bits
    pa, ta = expand(a)
    pb, tb = expand(b)
    return q, t, pa, ta, pb, tb


def complement(a: EventuallyPeriodicSet) -> EventuallyPeriodicSet:
    q, t = a.period, a.threshold
    prefix = {n for n in range(t) if n not in a.prefix}
    tail_bits = a.tail.bits ^ ((1 << q) - 1)
    return _build(q, t, prefix, tail_bits)


def union(a: EventuallyPeriodicSet, b: EventuallyPeriodicSet) -> EventuallyPeriodicSet:
    q, t, pa, ta, pb, tb = _aligned(a, b)
    return _build(q, t, pa | pb, ta | tb)


def intersect(a: EventuallyPeriodicSet, b: EventuallyPeriodicSet) -> EventuallyPeriodicSet:
    q, t, pa, ta, pb, tb = _aligned(a, b)
    return _build(q, t, pa & pb, ta & tb)


def difference(a: EventuallyPeriodicSet, b: EventuallyPeriodicSet) -> EventuallyPeriodicSet:
    return intersect(a, complement(b))


def shift(a: EventuallyPeriodicSet, c: int) -> EventuallyPeriodicSet:
    """The set {n + c : n in A}."""
    if c < 0:
        raise ValueError("shift must be nonnegative")
    q = a.period
    t = -(-(a.threshold + c) // q) * q
    prefix = set()
    for n in range(t):
        if n >= c and (n - c) in a:
            prefix.add(n)
    tail_bits = rotate_bits(a.tail.bits, c, q)
    return _build(q, t, prefix, tail_bits)


def add(a: EventuallyPeriodicSet, b: EventuallyPeriodicSet) -> EventuallyPeriodicSet:
    """Exact sumset A + B inside the eventually periodic family.

    Aligned to a common period q and threshold T, every sum above
    2T + 2q comes from a tail class plus a tail class or a prefix
    element plus a tail class, so its membership depends only on the
    residue; below that bound membership is computed outright by a
    bitmask convolution.
    """
    from .zmod import sumset_bits

    if a.is_empty() or b.is_empty():
        return empty()
    q, t, pa, ta, pb, tb = _aligned(a, b)
    pa_res = 0
    for p in pa:
        pa_res |= 1 << (p % q)
    pb_res = 0
    for p in pb:
        pb_res |= 1 << (p % q)
    tail_bits = sumset_bits([ta, tb], q)
    if pa_res and tb:
        tail_bits |= sumset_bits([pa_res, tb], q)
    if pb_res and ta:
        tail_bits |= sumset_bits([pb_res, ta], q)
    bound = 2 * t + 2 * q  # all tail-backed classes have started by here
    mask = (1 << bound) - 1
    a_bits = 0
    for n in range(bound):
        if (n < t and n in pa) or (n >= t and (ta >> (n % q)) & 1):
            a_bits |= 1 << n
    b_bits = 0
    for n in range(bound):
        if (n < t and n in pb) or (n >= t and (tb >> (n % q)) & 1):
            b_bits |= 1 << n
    sum_bits = 0
    rest = a_bits
    while rest:
        low = rest & -rest
        sum_bits |= b_bits << (low.bit_length() - 1)
        rest ^= low
    sum_bits &= mask
    prefix = {n for n in range(bound) if (sum_bits >> n) & 1}
    return _build(q, bound, prefix, tail_bits)


def sumset(sets: list[EventuallyPeriodicSet]) -> EventuallyPeriodicSet:
    if not sets:
        raise ValueError("sumset of an empty list of sets")
    acc = sets[0]
    for s in sets[1:]:
        acc = add(acc, s)
    return acc

