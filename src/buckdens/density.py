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
from itertools import count, islice
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
    """Divisibility chain of moduli m_1 | m_2 | ... used as sampling grid."""

    kind: str
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.values, self.values[1:]):
            if b % a != 0:
                raise ValueError("chain moduli must divide their successors")


def modulus_chain(kind: str, depth: int) -> ModulusChain:
    """Build a named chain; factorial and primorial chains are exhaustive.

    Plain primorials are not exhaustive (4 divides none), so the
    primorial chain uses (p_1 ... p_n)^n, the minimal natural fix.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if kind == "factorial":
        values = []
        acc = 1
        for n in range(1, depth + 1):
            acc *= n
            values.append(acc)
        return ModulusChain(kind, tuple(values))
    if kind == "primorial":
        primes = list(islice((n for n in count(2) if prime_factors(n) == [n]), depth))
        values = []
        prod = 1
        for n in range(1, depth + 1):
            prod *= primes[n - 1]
            values.append(prod**n)
        return ModulusChain(kind, tuple(values))
    if kind == "powers_of_two":
        return ModulusChain(kind, tuple(1 << n for n in range(1, depth + 1)))
    if kind == "powers_of_four":
        return ModulusChain(kind, tuple(1 << (2 * n) for n in range(1, depth + 1)))
    raise ValueError(f"unknown chain kind {kind!r}")


#: every chain's modulus at this depth exceeds the width cap: from its second
#: modulus on, each is at least twice the one before
_DEPTH_PAST_CAP = MAX_MODULUS.bit_length()


def check_chain_depth(kind: str, depth: int, what: str) -> None:
    """Refuse a chain whose largest modulus exceeds the width cap, before it is
    built: at most ``_DEPTH_PAST_CAP`` moduli are formed, and the first one
    over the cap is named by its bit length."""
    values = modulus_chain(kind, min(depth, _DEPTH_PAST_CAP)).values
    if depth >= _DEPTH_PAST_CAP or values[-1] > MAX_MODULUS:
        over = next(j for j, m in enumerate(values, start=1) if m > MAX_MODULUS)
        raise LimitExceededError(
            f"{what} {depth} exceeds cap {MAX_MODULUS}: the {kind} chain's modulus at depth "
            f"{over} has {values[over - 1].bit_length()} bits"
        )


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

    Exact for eventually periodic sets.  The chain is checked against the
    width cap before any profile is read.  When the description has an
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
    check_width(max(chain.values), "chain modulus")
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


def window_densities(desc: SetDescription, horizon: int) -> WindowDensities:
    """Asymptotic-density estimates from tail counting ratios and
    uniform-density estimates from extremal sliding windows of length
    floor(sqrt(horizon)).

    The counts are read off the members mask.  A checkpoint count is one
    ``bit_count``.  The window counts are 16-bit lanes of one int, lane k
    holding the count of X in (k, k + window]: the 0/1 flags of n = 1 ..
    horizon are spread one per lane, and the sums of ``window`` shifted
    copies are formed by doubling.  A count is at most window < 2^15, so no
    lane carries into the next.  Their extremes are found by thresholds
    (:func:`_lane_extremes`); no list of counts is made.
    """
    if horizon < 16:
        raise ValueError("horizon must be at least 16")
    check_horizon(horizon, "window horizon")  # before the members are built
    present = desc.members_mask(horizon) >> 1  # bit n - 1 for n = 1 .. horizon
    checkpoints = [max(1, (horizon * j) // 16) for j in range(8, 17)]
    ratios = [Fraction((present & ((1 << n) - 1)).bit_count(), n) for n in checkpoints]
    window = isqrt(horizon)
    spread = bytearray(2 * horizon)
    spread[::2] = bit_flags(present).ljust(horizon, b"\0")
    lanes = int.from_bytes(spread, "little")
    del spread  # the peak is the sums below, 2 (horizon + 1) bytes each
    sums, width = lanes, 1
    for digit in bin(window)[3:]:  # the binary digits of window after the first
        sums += sums >> 16 * width
        width *= 2
        if digit == "1":
            sums += lanes >> 16 * width
            width += 1
    del lanes
    starts = horizon - window + 1  # the windows (k, k + window], k = 0 .. horizon - window
    first = (present & ((1 << window) - 1)).bit_count()
    wmin, wmax = _lane_extremes(sums & ((1 << 16 * starts) - 1), starts, first)
    sampled = lambda v: DensityEstimate(v, "sampled", horizon=horizon)
    return WindowDensities(
        d_lower=sampled(min(ratios)),
        d_upper=sampled(max(ratios)),
        banach_lower=sampled(Fraction(wmin, window)),
        banach_upper=sampled(Fraction(wmax, window)),
        window_length=window,
    )


def _lane_extremes(lanes: int, count: int, first: int) -> tuple[int, int]:
    """(min, max) of the ``count`` 16-bit lanes of an int, each at most w;
    ``first`` is the value of lane 0.

    Setting bit 15 of every lane and subtracting t from each borrows from
    no lane while -2^15 < t - w and t <= 2^15, and leaves bit 15 of a lane
    set iff it holds at least t: one test, over every lane, of whether some
    lane is at least t or at most t - 1.  The max and the min are the last
    thresholds on which those tests hold, going up and down from lane 0's
    value; the search probes t in [-2w - 1, 2w + 1], so 3w < 2^15 suffices
    (w = isqrt(horizon) < 2^10 under the horizon cap).
    """
    ones = int.from_bytes(b"\1\0" * count, "little")
    top = ones << 15
    raised = lanes | top
    at_least = lambda t: (raised - t * ones) & top != 0  # some lane >= t
    at_most = lambda t: (raised - (t + 1) * ones) & top != top  # some lane <= t
    return _last_true(at_most, first, -1), _last_true(at_least, first, 1)


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
    check_width(max(chain.values), "chain modulus")
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
