"""Exact algebra on eventually periodic subsets of N.

A member is stored in canonical form (q, T, prefix, tail): below the
threshold T membership is given by the prefix bitmask (bit n set iff n
is a member), at and above T by the tail residues mod q.  The period q
is minimal for the tail and T is the smallest multiple of q consistent
with the set, which makes structural equality coincide with set
equality.  Every width a construction needs is checked against the
dense-vector cap before any mask is built.  Finite unions of
arithmetic progressions a + kN, their unions, intersections,
complements, shifts and exact sumsets all stay inside the family, with
densities as exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .zmod import (
    ResidueSet,
    add_bits,
    bit_positions,
    check_horizon,
    check_width,
    fold_bits,
    members_mask,
    positions_text,
    rotate_bits,
    stabilizer_generator_bits,
    tile_bits,
)


@dataclass(frozen=True)
class ModularProfile:
    """The residues mod m a set attains: at all, and cofinitely (whole
    class minus a finite set).

    Every profile oracle keeps one contract: ``attained`` is exact, and
    ``cofinitely_attained`` is a certified subset of the classes held
    cofinitely (exact for a periodic form and for ``d_k``), so a lower
    density read from it is certified.
    """

    attained: ResidueSet
    cofinitely_attained: ResidueSet

    def __post_init__(self) -> None:
        if not self.cofinitely_attained.issubset(self.attained):
            raise ValueError("cofinitely attained residues must be attained")


@dataclass(frozen=True)
class EventuallyPeriodicSet:
    period: int
    threshold: int
    prefix: int
    tail: ResidueSet

    def __post_init__(self) -> None:
        q, t = self.period, self.threshold
        if q < 1 or t < 0 or t % q != 0:
            raise ValueError("threshold must be a nonnegative multiple of the period")
        if self.tail.modulus != q:
            raise ValueError("tail modulus must equal the period")
        if self.prefix < 0 or self.prefix >> t:
            raise ValueError("prefix members must lie below the threshold")
        # canonical form: minimal tail period (1 for the empty tail), then
        # minimal threshold
        if stabilizer_generator_bits(self.tail.bits, q) != q:
            raise ValueError("tail period is not minimal")
        if t > 0 and self.prefix >> (t - q) == self.tail.bits:
            raise ValueError("threshold is not minimal")

    # -- membership ----------------------------------------------------

    def __contains__(self, n: int) -> bool:
        if n < 0:
            raise ValueError("membership is defined on N only")
        if n < self.threshold:
            return (self.prefix >> n) & 1 == 1
        return (n % self.period) in self.tail

    def members(self, horizon: int) -> list[int]:
        """All members n <= horizon, ascending."""
        return bit_positions(self.members_mask(horizon))

    def members_mask(self, horizon: int) -> int:
        """The members n <= horizon as a bitmask: the prefix, then the tail
        tiled.  A finite set's mask ends at its threshold, however far the
        horizon; an infinite set's horizon is checked before any tiling."""
        if self.tail.bits:
            check_horizon(horizon, "periodic horizon")
        width = horizon + 1 if self.tail.bits else min(horizon + 1, self.threshold)
        if width <= 0:
            return 0
        return _members_below(self, max(width, self.threshold)) & ((1 << width) - 1)

    def is_empty(self) -> bool:
        return self.prefix == 0 and self.tail.is_empty()

    # -- exact quantities ----------------------------------------------

    def natural_density(self) -> Fraction:
        return Fraction(self.tail.cardinality, self.period)

    def modular_profile(self, m: int) -> ModularProfile:
        """Exact attained and cofinitely attained residues mod m.

        With g = gcd(q, m), the tail meets the class s mod m iff some tail
        residue is s mod g, and covers it cofinitely iff every residue mod
        q that is s mod g is in the tail.
        """
        if m < 1:
            raise ValueError("modulus must be positive")
        check_width(m, "modulus")
        q = self.period
        g = gcd(q, m)
        tail = self.tail.bits
        gaps = fold_bits(tail ^ ((1 << q) - 1), g)
        cof_bits = tile_bits(gaps ^ ((1 << g) - 1), g, m)
        att_bits = tile_bits(fold_bits(tail, g), g, m) | fold_bits(self.prefix, m)
        return ModularProfile(ResidueSet(m, att_bits), ResidueSet(m, cof_bits))

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "q": self.period,
            "T": self.threshold,
            "prefix": bit_positions(self.prefix),
            "tail": bit_positions(self.tail.bits),
        }

    def __repr__(self) -> str:
        tail = positions_text(self.tail.bits, ",")
        pre = positions_text(self.prefix, ",")
        return f"EventuallyPeriodicSet(q={self.period}, T={self.threshold}, prefix={{{pre}}}, tail={{{tail}}} mod {self.period})"


def _tail_below(s: EventuallyPeriodicSet, width: int) -> int:
    """The tail members of s (those at or above its threshold) below width."""
    t = s.threshold
    return tile_bits(s.tail.bits, s.period, width) >> t << t


def _members_below(s: EventuallyPeriodicSet, width: int) -> int:
    """The members of s below width (at least its threshold), as a bitmask."""
    return s.prefix | _tail_below(s, width)


# -- canonical construction ----------------------------------------------


def _build(q: int, t: int, prefix: int, tail_bits: int) -> EventuallyPeriodicSet:
    """Canonicalize a raw (q, T, prefix, tail) description: prefix < 2^T,
    T any nonnegative integer.

    The minimal period is the tail's stabilizer (1 for a finite set), and
    the minimal threshold the first multiple of it past the highest bit
    where the prefix disagrees with the tiled tail.
    """
    q2 = stabilizer_generator_bits(tail_bits, q)
    tail2 = tail_bits & ((1 << q2) - 1)
    diff = prefix ^ tile_bits(tail2, q2, t)
    t2 = -(-diff.bit_length() // q2) * q2
    return EventuallyPeriodicSet(q2, t2, diff ^ tile_bits(tail2, q2, t2), ResidueSet(q2, tail2))


def empty() -> EventuallyPeriodicSet:
    return _build(1, 0, 0, 0)


def from_finite(members: Iterable[int]) -> EventuallyPeriodicSet:
    members = set(members)
    if any(n < 0 for n in members):
        raise ValueError("members must be nonnegative")
    t = max(members) + 1 if members else 0
    check_width(t, "threshold")
    return _build(1, t, members_mask(members, t), 0)


def from_residues(q: int, residues: Iterable[int]) -> EventuallyPeriodicSet:
    """Union of the full classes r + qN over the given residues mod q."""
    return _build(q, 0, 0, ResidueSet.of(q, residues).bits)


def from_progressions(terms: list[tuple[int, int]]) -> EventuallyPeriodicSet:
    """Canonical form of the union of progressions a + kN."""
    if not terms:
        raise ValueError("at least one progression is required")
    for a, k in terms:
        if k < 1:
            raise ValueError(f"progression step must be positive, got {k}")
        if a < 0:
            raise ValueError(f"progression start must be nonnegative, got {a}")
    q = lcm(*(k for _, k in terms))
    check_width(q, "period")
    t = max(a for a, _ in terms)  # every progression has started by here
    check_width(t, "threshold")
    prefix = tail_bits = 0
    for a, k in terms:
        prefix |= tile_bits(1, k, t - a) << a
        tail_bits |= tile_bits(1 << (a % k), k, q)
    return _build(q, t, prefix, tail_bits)


# -- JSON ------------------------------------------------------------------


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# what a JSON field may hold, keyed by the phrase an error names it with
_JSON_KINDS = {
    "an integer": _is_int,
    "a string": lambda v: isinstance(v, str),
    "a boolean": lambda v: isinstance(v, bool),
    "a number or a string": lambda v: isinstance(v, (int, float, str)) and not isinstance(v, bool),
    "a list of integers": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "a list of [start, step] pairs": lambda v: isinstance(v, list) and all(
        isinstance(p, list) and len(p) == 2 and all(map(_is_int, p)) for p in v
    ),
    "a list of objects": lambda v: isinstance(v, list) and all(isinstance(p, dict) for p in v),
}

# the kind of every field of a set description, in any family
_FIELD_KINDS = {
    **dict.fromkeys(("q", "T", "t", "m", "step", "n_base"), "an integer"),
    **dict.fromkeys(("prefix", "tail", "k_prefix", "moduli"), "a list of integers"),
    **dict.fromkeys(("bits", "rule"), "a string"),
    **dict.fromkeys(("theta", "alpha", "beta", "gamma"), "a number or a string"),
    "sparsify": "a boolean",
    "progressions": "a list of [start, step] pairs",
    "of": "a list of objects",
}

_REQUIRED = object()


def json_field(obj: dict, name: str, default: object = _REQUIRED):
    """obj[name], or ``default`` when it is absent (or null where the
    default is).  A missing required field, or a value not of the field's
    kind, is a ValueError naming the field."""
    value = obj.get(name, default)
    if value is _REQUIRED:
        raise ValueError(f"missing field {name!r}")
    kind = _FIELD_KINDS[name]
    if value is not default and not _JSON_KINDS[kind](value):
        raise ValueError(f"field {name!r} must be {kind}, got {value!r:.40}")
    return value


def from_json_dict(obj: dict) -> EventuallyPeriodicSet:
    if "progressions" in obj:
        return from_progressions([tuple(p) for p in json_field(obj, "progressions")])
    q, t = json_field(obj, "q"), json_field(obj, "T")
    tail, prefix = json_field(obj, "tail", []), json_field(obj, "prefix", [])
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    if t < 0:
        raise ValueError(f"T must be nonnegative, got {t}")
    for r in tail:
        if not 0 <= r < q:
            raise ValueError(f"tail residue {r} not in [0, {q})")
    for n in prefix:
        if not 0 <= n < t:
            raise ValueError(f"prefix member {n} not in [0, {t})")
    check_width(q, "period q")
    if not tail:  # a finite set: its threshold is one past its largest member
        t = max(prefix) + 1 if prefix else 0
    check_width(t, "threshold T")
    return _build(q, t, members_mask(prefix, t), members_mask(tail, q))


# -- pointwise algebra -----------------------------------------------------


def _aligned(a: EventuallyPeriodicSet, b: EventuallyPeriodicSet):
    """Common-(q, T) raw descriptions of two sets."""
    q = lcm(a.period, b.period)
    check_width(q, "aligned period")
    t = max(a.threshold, b.threshold)
    ta, tb = tile_bits(a.tail.bits, a.period, q), tile_bits(b.tail.bits, b.period, q)
    return q, t, _members_below(a, t), ta, _members_below(b, t), tb


def complement(a: EventuallyPeriodicSet) -> EventuallyPeriodicSet:
    q, t = a.period, a.threshold
    return _build(q, t, a.prefix ^ ((1 << t) - 1), a.tail.bits ^ ((1 << q) - 1))


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
    t = a.threshold + c
    check_width(t, "threshold")
    return _build(a.period, t, a.prefix << c, rotate_bits(a.tail.bits, c, a.period))


def add(a: EventuallyPeriodicSet, b: EventuallyPeriodicSet) -> EventuallyPeriodicSet:
    """Exact sumset A + B inside the eventually periodic family.

    Split each summand as A = P_A ∪ tail(A), with tail(A) = T_a + R_a +
    q_a·N for the tail residues R_a.  Let q = lcm(q_a, q_b), T the larger
    threshold and C = A + B.  For n >= 2T, n in C gives n + q in C: one
    summand of n is >= T, so in its tail, and adding q keeps it there.
    For n >= 2T + 2q, n in C gives n - q in C: one summand is >= its
    threshold + q, and subtracting q keeps it in its tail.  So C is
    q-periodic on [2T + q, oo), and C is known once it is known below
    bound = 2T + 2q: the tail residues are read off the window's last
    period.  Below the bound C is the union of three parts:

    - P_A + B: one shift of B's window per prefix member of A;
    - P_B + tail(A): one shift of A's tail window per prefix member of B;
    - tail(A) + tail(B) = T_a + T_b + L + q_a·N + q_b·N, with the linear
      sum L = R_a + R_b (< q_a + q_b bits, one shift per residue of the
      sparser tail) tiled by q_a and then by q_b.
    """
    if a.is_empty() or b.is_empty():
        return empty()
    q = lcm(a.period, b.period)
    check_width(q, "aligned period")
    bound = 2 * max(a.threshold, b.threshold) + 2 * q
    check_width(bound, "sumset window 2T + 2q")
    sparse, dense = sorted((a.tail, b.tail), key=lambda r: r.cardinality)
    linear = add_bits(dense.bits, bit_positions(sparse.bits))
    t = a.threshold + b.threshold
    width = bound - t
    sum_bits = (
        add_bits(_members_below(b, bound), bit_positions(a.prefix))
        | add_bits(_tail_below(a, bound), bit_positions(b.prefix))
        | tile_bits(tile_bits(linear, a.period, width), b.period, width) << t
    ) & ((1 << bound) - 1)
    return _build(q, bound, sum_bits, rotate_bits(sum_bits >> (bound - q), bound % q, q))


def sumset(sets: list[EventuallyPeriodicSet]) -> EventuallyPeriodicSet:
    if not sets:
        raise ValueError("sumset of an empty list of sets")
    acc = sets[0]
    for s in sets[1:]:
        acc = add(acc, s)
    return acc
