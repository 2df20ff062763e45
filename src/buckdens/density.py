"""Window densities and modular (Buck-type) density bounds.

Every entry point takes a :class:`SetDescription` (an eventually
periodic set goes in through ``from_periodic``).  Exact rationals are
produced for descriptions with a periodic form; the others get
chain-indexed certificates where an exact profile oracle exists and
clearly labeled sampled intervals otherwise.  The
chain moduli must divide each other so that attained-residue ratios are
nonincreasing and cofinite-residue ratios nondecreasing along the
chain; an exhaustive chain (every integer divides some element) makes
the limits the true modular densities.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import count
from math import isqrt
from typing import Callable, Optional, Union

from .generators import SetDescription
from .zmod import (
    MAX_MODULUS, LimitExceededError, ResidueSet, bit_flags, bit_positions, check_horizon,
    check_width, prime_factors,
)

CHAIN_KINDS = ("factorial", "primorial", "powers_of_two", "powers_of_four")

DEFAULT_HORIZON = 1 << 16


@dataclass(frozen=True)
class ModulusChain:
    """Divisibility chain of moduli m_1 | m_2 | ... used as sampling grid,
    under the width cap by construction: its last modulus, the largest, is
    checked."""

    kind: str
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.values, self.values[1:]):
            if b % a != 0:
                raise ValueError("chain moduli must divide their successors")
        if self.values:
            check_width(self.values[-1], "chain modulus")


def modulus_chain(kind: str, depth: int) -> ModulusChain:
    """Build a named chain; factorial and primorial chains are exhaustive.

    Plain primorials are not exhaustive (4 divides none), so the
    primorial chain uses (p_1 ... p_n)^n, the minimal natural fix.
    The moduli are formed one at a time, and the first past the width cap
    is refused, named by its depth and bit length.  From the second
    modulus on each is at least twice the one before, so at most
    MAX_MODULUS.bit_length() = 21 are formed, whatever the depth.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if kind not in CHAIN_KINDS:
        raise ValueError(f"unknown chain kind {kind!r}")
    primes = (p for p in count(2) if prime_factors(p) == [p])
    values = []
    base = 1
    for n in range(1, depth + 1):
        if kind == "factorial":
            base *= n
        elif kind == "primorial":
            base *= next(primes)
        else:
            base *= 2 if kind == "powers_of_two" else 4
        m = base**n if kind == "primorial" else base
        if m > MAX_MODULUS:
            raise LimitExceededError(
                f"depth {depth} exceeds cap {MAX_MODULUS}: the {kind} chain's modulus at depth "
                f"{n} has {m.bit_length()} bits"
            )
        values.append(m)
    return ModulusChain(kind, tuple(values))


def to_json(x):
    """The JSON form of a report value.

    A rational is {"num", "den"}, a residue set {"modulus", "members"}, a
    tuple or list a list; an object with ``to_json_dict`` goes through
    it, and anything else (None, bool, int, str, dict) is itself.
    """
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, ResidueSet):
        return {"modulus": x.modulus, "members": bit_positions(x.bits)}
    if isinstance(x, (tuple, list)):
        return [to_json(v) for v in x]
    if hasattr(x, "to_json_dict"):
        return x.to_json_dict()
    return x


class Report:
    """Base of the dataclass reports that serialize as their own fields."""

    def to_json_dict(self) -> dict:
        return {f.name: to_json(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class DensityEstimate:
    """A density value with provenance.

    kind "exact" carries a rational with no horizon dependence;
    "upper_bound_sequence" / "lower_bound_sequence" carry the min / max
    of certified chain ratios (true bounds whenever the profile oracle
    is exact); "sampled" carries an interval whose certified side, if
    any, is named in ``certified``.
    """

    value: Union[Fraction, tuple[Fraction, Fraction]]
    kind: str
    chain_kind: Optional[str] = None
    horizon: Optional[int] = None
    sequence: tuple[tuple[int, Fraction], ...] = ()
    certified: Optional[str] = None
    warnings: tuple[str, ...] = ()

    def point(self) -> tuple[Fraction, bool]:
        """(value, certified-exact): the value, or the low end of an interval."""
        if isinstance(self.value, tuple):
            return self.value[0], False
        return self.value, self.kind == "exact"

    def to_json_dict(self) -> dict:
        if isinstance(self.value, tuple):
            value = {"lo": to_json(self.value[0]), "hi": to_json(self.value[1])}
        else:
            value = to_json(self.value)
        out = {"value": value, "kind": self.kind, "sequence": to_json(self.sequence)}
        if self.chain_kind is not None:
            out["chain"] = self.chain_kind
        if self.horizon is not None:
            out["horizon"] = self.horizon
        if self.certified is not None:
            out["certified"] = self.certified
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


def attained_residues(
    desc: SetDescription, m: int, horizon: int = DEFAULT_HORIZON
) -> tuple[ResidueSet, bool]:
    """Residues mod m hit by the set: (set, certified-exact flag).

    The exact profile answers where the description has one mod m;
    otherwise the residues are read off the members up to the horizon
    (:meth:`SetDescription.residues`), which the description builds once
    however many moduli are asked.
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    prof = desc.profile(m)
    if prof is not None:
        return prof.attained, True
    check_width(m, "modulus")  # before the members are built
    return ResidueSet(m, desc.residues(m, horizon)), False


def buck_upper(
    desc: SetDescription, chain: Optional[ModulusChain] = None, horizon: int = DEFAULT_HORIZON
) -> DensityEstimate:
    """Upper modular density along a chain.

    Exact for eventually periodic sets.  With an exact profile oracle
    the chain ratios |X^(m)| / m are true upper bounds for the limit and
    the minimum is reported; otherwise the estimate is the interval
    [best sampled ratio, 1].  A sampled ratio bounds one chain term from
    below, not the limit, so neither end of that interval is certified.
    """
    if desc.periodic_form is not None:
        return DensityEstimate(desc.periodic_form.natural_density(), "exact")
    if chain is None:
        chain = modulus_chain("powers_of_two", 10)
    rows = density_chain_report(desc, chain, horizon)
    seq = tuple((row.modulus, row.ratio) for row in rows)
    if all(row.kind == "exact-profile" for row in rows):
        return DensityEstimate(
            min(r for _, r in seq),
            "upper_bound_sequence",
            chain_kind=chain.kind,
            sequence=seq,
            certified="upper",
        )
    return DensityEstimate(
        (max(r for _, r in seq), Fraction(1)),
        "sampled",
        chain_kind=chain.kind,
        horizon=horizon,
        sequence=seq,
        warnings=("no exact profile oracle on this chain; no side of a sampled interval is certified",),
    )


def buck_lower(
    desc: SetDescription, chain: Optional[ModulusChain] = None, horizon: int = DEFAULT_HORIZON
) -> DensityEstimate:
    """Lower modular density along a chain.

    Exact for eventually periodic sets.  When the description has an
    exact profile at every chain modulus, each ratio |X_*^(m)| / m over its
    cofinitely attained residues is a certified lower bound (by the profile
    contract those classes are held cofinitely, so their union sits inside
    X up to a finite set) and the maximum is reported.  Cofiniteness is not
    decidable from samples, so otherwise the result is the interval
    [0, sampled counting ratio].
    """
    if desc.periodic_form is not None:
        return DensityEstimate(desc.periodic_form.natural_density(), "exact")
    if chain is None:
        chain = modulus_chain("powers_of_two", 10)
    profs = [desc.profile(m) for m in chain.values]
    if None not in profs:
        seq = tuple(
            (m, Fraction(prof.cofinitely_attained.cardinality, m))
            for m, prof in zip(chain.values, profs)
        )
        return DensityEstimate(
            max(r for _, r in seq),
            "lower_bound_sequence",
            chain_kind=chain.kind,
            sequence=seq,
            certified="lower",
        )
    upper = Fraction(desc.positive_count(horizon), max(horizon, 1))
    return DensityEstimate(
        (Fraction(0), upper),
        "sampled",
        chain_kind=chain.kind,
        horizon=horizon,
        certified="lower",
        warnings=("cofiniteness not decidable from samples",),
    )


@dataclass(frozen=True)
class WindowDensities(Report):
    d_lower: DensityEstimate
    d_upper: DensityEstimate
    banach_lower: DensityEstimate
    banach_upper: DensityEstimate
    window_length: int


#: window starts whose counts one block forms.  A block's lanes take 2
#: (WINDOW_BLOCK + window - 1) bytes, walked by each of its ~2 log2(window)
#: shift-adds and by its two threshold tests; its fixed cost is the window -
#: 1 lanes of overlap and the tests.  The window work of weyl (golden, 2/7),
#: in process (least of five rounds of a best of 3), took 32 / 30 / 27 / 25 /
#: 25 / 28 / 32 ms at horizon 10^6 and 37 / 36 / 33 / 29 / 29 / 34 / 36 ms at
#: 2^20 - 1 for blocks of 2^12 .. 2^18 starts (2 vCPUs, Python 3.11.7);
#: 2^15 ties 2^16 with half the bytes.
WINDOW_BLOCK = 1 << 15
#: bit 0 of each of WINDOW_BLOCK 16-bit lanes
_LANE_ONES = int.from_bytes(b"\1\0" * WINDOW_BLOCK, "little")


def window_densities(desc: SetDescription, horizon: int) -> WindowDensities:
    """Asymptotic-density estimates from tail counting ratios and
    uniform-density estimates from extremal sliding windows of length
    floor(sqrt(horizon)).

    The counts are read off the members mask.  A checkpoint count is one
    ``bit_count``.  The window counts are formed for one block of
    WINDOW_BLOCK window starts at a time (a horizon with fewer starts is
    one block), as 16-bit lanes of one int: lane k of the block at ``lo``
    holds the count of X in (lo + k, lo + k + window].  The 0/1 flags of
    the block's own starts and of the window - 1 numbers after them are
    spread one per lane, and the sums of ``window`` shifted copies are
    formed by doubling.  The lanes past the block's starts hold partial
    sums; the tests below read bit 15 of the block's own lanes only, and a
    borrow moves up, so those lanes are left in place.

    The extremes start at the count of the first window and are carried
    from block to block.  Setting bit 15 of every lane and subtracting t
    from each leaves bit 15 of a lane set iff it holds at least t: one
    test, over every lane, of whether some lane is at least t or at most t
    - 1.  Each block is tested once for a lane above the max and once for
    one below the min, and only where a test holds does :func:`_last_true`
    search for the new extreme, so no list of counts is made.  A count is
    at most window, and the tests probe t in [-2 window - 1, 2 window + 1],
    so no lane borrows from the next while 3 window < 2^15; under the
    horizon cap window = isqrt(horizon) < 2^10.
    """
    if horizon < 16:
        raise ValueError("horizon must be at least 16")
    check_horizon(horizon, "window horizon")  # before the members are built
    present = desc.members_mask(horizon) >> 1  # bit n - 1 for n = 1 .. horizon
    checkpoints = [max(1, (horizon * j) // 16) for j in range(8, 17)]
    ratios = [Fraction((present & ((1 << n) - 1)).bit_count(), n) for n in checkpoints]
    window = isqrt(horizon)
    packed = present.to_bytes((horizon + 7) // 8, "little")
    starts = horizon - window + 1  # the windows (k, k + window], k = 0 .. horizon - window
    wmin = wmax = (present & ((1 << window) - 1)).bit_count()
    for lo in range(0, starts, WINDOW_BLOCK):  # a multiple of 8, so flag lo is bit 0 of a byte
        count = min(WINDOW_BLOCK, starts - lo)
        span = count + window - 1  # the flags of n = lo + 1 .. lo + span
        flags = bit_flags(int.from_bytes(packed[lo // 8 : (lo + span + 7) // 8], "little"))
        spread = bytearray(2 * span)
        spread[::2] = flags[:span].ljust(span, b"\0")
        lanes = int.from_bytes(spread, "little")
        sums, width = lanes, 1
        for digit in bin(window)[3:]:  # the binary digits of window after the first
            sums += sums >> 16 * width
            width *= 2
            if digit == "1":
                sums += lanes >> 16 * width
                width += 1
        ones = _LANE_ONES >> 16 * (WINDOW_BLOCK - count)  # bit 0 of the block's lanes
        top = ones << 15
        raised = sums | top
        at_least = lambda t: (raised - t * ones) & top != 0  # some lane >= t
        at_most = lambda t: (raised - (t + 1) * ones) & top != top  # some lane <= t
        if at_least(wmax + 1):
            wmax = _last_true(at_least, wmax + 1, 1)
        if at_most(wmin - 1):
            wmin = _last_true(at_most, wmin - 1, -1)
    sampled = lambda v: DensityEstimate(v, "sampled", horizon=horizon)
    return WindowDensities(
        d_lower=sampled(min(ratios)),
        d_upper=sampled(max(ratios)),
        banach_lower=sampled(Fraction(wmin, window)),
        banach_upper=sampled(Fraction(wmax, window)),
        window_length=window,
    )


def _last_true(holds: Callable[[int], bool], start: int, step: int) -> int:
    """The last t on the ray start, start + step, start + 2 step, ... on which
    ``holds``, given that it holds at start and, once false, stays false:
    galloping out, then bisecting."""
    reach = 1
    while holds(start + reach * step):
        start += reach * step
        reach *= 2
    low, high = 0, reach  # holds at start + low * step, fails at start + high * step
    while high - low > 1:
        mid = (low + high) // 2
        if holds(start + mid * step):
            low = mid
        else:
            high = mid
    return start + low * step


@dataclass(frozen=True)
class ChainReportRow:
    modulus: int
    count: int
    ratio: Fraction
    kind: str  # "exact-profile" | "sampled"


def density_chain_report(
    desc: SetDescription, chain: ModulusChain, horizon: int = DEFAULT_HORIZON
) -> list[ChainReportRow]:
    """One row per chain modulus: attained-residue count and ratio."""
    rows = []
    for m in chain.values:
        attained, exact = attained_residues(desc, m, horizon)
        rows.append(
            ChainReportRow(
                m,
                attained.cardinality,
                Fraction(attained.cardinality, m),
                "exact-profile" if exact else "sampled",
            )
        )
    return rows
