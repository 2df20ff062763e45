"""Structure extraction for small-doubling sumsets.

Given descriptions X_1, ..., X_k, the analyzer looks for the smallest
modulus q at which the projected sumset of attained residues meets
Kneser's bound with equality under a trivial stabilizer (so it is
non-periodic, non-full, and of the critical size sum(r_i - 1) + 1), and
at which the upper modular density of the true sumset matches
(sum(r_i - 1) + 1) / q.  At that q the residues spread over every
refinement class ("sparse periodicity"), which is what the verification
tables certify or witness.  q = 1 is excluded as vacuous: a full
projected ring carries no structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from . import periodic as zper
from .density import (
    DEFAULT_HORIZON,
    DensityEstimate,
    Report,
    attained_residues,
    buck_lower,
    buck_upper,
)
from .generators import SetDescription, map_distinct, sumset_description
from .periodic import EventuallyPeriodicSet
from .zmod import (
    ResidueSet,
    StructureClass,
    bit_positions,
    check_width,
    classify_structure,
    cyclic_add_bits,
    divisors,
    kneser_bits,
    sumset as residue_sumset,
    tile_bits,
)

MAX_AUTO_QMAX = 1 << 12


@dataclass(frozen=True)
class SparsePeriodicityRow(Report):
    m: int
    missing: tuple[int, ...]
    passed: bool
    certified: bool  # both sides from exact profile oracles


def verify_sparse_periodicity(
    desc: SetDescription, q: int, m_max: int, horizon: int = DEFAULT_HORIZON
) -> list[SparsePeriodicityRow]:
    """Check S^(mq) = S^(q) + q{0..m-1} for each m <= m_max.

    Only the containment of the refined target in the attained residues
    needs witnesses (the reverse projection is automatic).  Rows are
    certified when both residue sets come from exact profile oracles;
    otherwise a pass is horizon-limited evidence.
    """
    if q < 1 or m_max < 1:
        raise ValueError("q and m_max must be positive")
    base, base_exact = attained_residues(desc, q, horizon)
    rows = []
    for m in range(1, m_max + 1):
        actual, actual_exact = attained_residues(desc, m * q, horizon)
        missing = tile_bits(base.bits, q, m * q) & ~actual.bits
        rows.append(
            SparsePeriodicityRow(
                m, tuple(bit_positions(missing)), missing == 0, base_exact and actual_exact
            )
        )
    return rows


@dataclass(frozen=True)
class RuzsaCheck:
    lhs: int  # |R| * |S+S|
    rhs: int  # |R+S|^2
    holds: bool


def ruzsa_counts(q: int, r: int, s: int) -> tuple[int, int]:
    """(|R||S+S|, |R+S|^2) for q-bit vectors R inside S of Z/qZ, by exact counting.

    R inside S gives S + S = (R + S) | ((S - R) + S), so S + S is R + S
    with the offsets of S - R added: two ``cyclic_add_bits`` calls, the
    second seeded with the first.  Each stops once Z/qZ is full, and a full
    R + S makes S + S full before the second call shifts anything.
    """
    if not r:
        raise ValueError("R must be nonempty")
    if r & ~s:
        raise ValueError("R must be a subset of S")
    mixed = cyclic_add_bits(s, r, q)
    doubled = cyclic_add_bits(s, s & ~r, q, acc=mixed)
    return r.bit_count() * doubled.bit_count(), mixed.bit_count() ** 2


def ruzsa_inequality_check(r: ResidueSet, s: ResidueSet) -> RuzsaCheck:
    """|R||S+S| <= |R+S|^2 for R inside S, by ``ruzsa_counts``."""
    if r.modulus != s.modulus:
        raise ValueError("modulus mismatch")
    lhs, rhs = ruzsa_counts(s.modulus, r.bits, s.bits)
    return RuzsaCheck(lhs, rhs, lhs <= rhs)


@dataclass(frozen=True)
class BuckInequalityReport(Report):
    bdo_AA: DensityEstimate
    bdo_A: DensityEstimate
    bup_AA: DensityEstimate
    margin: Fraction  # bdo(A+A)^2 - bdo(A) * bup(A+A)
    consistent: bool


def buck_inequality_report(desc: SetDescription) -> BuckInequalityReport:
    """Check bdo(A+A) >= sqrt(bdo(A) * bup(A+A)) for a set with a periodic
    form, exactly: by the sign of the rational margin
    bdo(A+A)^2 - bdo(A) * bup(A+A), compared square-free.

    Any other set is refused with a ValueError before any sum is formed.
    Its sum A + A has no periodic form either, so no estimate bounds
    bdo(A+A) from above or bup(A+A) from below with a certificate, and a
    report on it could only pass.
    """
    if desc.periodic_form is None:
        raise ValueError(
            "the doubling inequality is decided only for a set with a periodic form, "
            f"not for family {desc.family!r}"
        )
    doubled = sumset_description([desc, desc])
    bdo_aa = buck_lower(doubled)
    bdo_a = buck_lower(desc)
    bup_aa = buck_upper(doubled)
    margin = bdo_aa.value**2 - bdo_a.value * bup_aa.value
    return BuckInequalityReport(bdo_aa, bdo_a, bup_aa, margin, margin >= 0)


# ---------------------------------------------------------------------------
# minimal-modulus structure reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KneserReport(Report):
    """A structure found at modulus q, or (minimal=False) only k and sigma."""

    k: int
    sigma: Fraction
    sigma_certified: bool
    q: Optional[int] = None
    minimal: bool = False
    summand_profiles: tuple[ResidueSet, ...] = ()
    multiplicities: tuple[int, ...] = ()
    sumset_profile: Optional[ResidueSet] = None
    sum_size: Optional[int] = None
    classification: Optional[StructureClass] = None
    eta: Optional[Fraction] = None
    density_identity_holds: Optional[bool] = None
    density_identity_certified: bool = False
    q_bound: Optional[Fraction] = None
    q_bound_ok: Optional[bool] = None
    mean_gap_ok: Optional[bool] = None
    sparse_periodicity: tuple[SparsePeriodicityRow, ...] = ()
    periodic_hulls: tuple[EventuallyPeriodicSet, ...] = ()


def analyze_sumset(
    parts: Sequence[SetDescription],
    q_max: Optional[int] = None,
    horizon: int = DEFAULT_HORIZON,
) -> KneserReport:
    """Minimal-modulus structure report for X_1 + ... + X_k.

    A single input is doubled (the small-doubling case).  The search
    accepts the smallest q >= 2 whose projected sumset is non-periodic,
    non-full, of critical size, and whose density identity
    bup(sum) = (sum(r_i - 1) + 1) / q holds exactly (eventually periodic
    inputs) or is witnessed by refinement-class coverage (sampled
    inputs, checked on 4 refinement rows).  The report carries 8 rows of
    the sparse-periodicity table and the default quasi-periodicity
    convention of ``classify_structure``.  A report with minimal=False
    signals that no small-doubling structure was detected at this scale.

    The per-q test is Kneser's bound met with equality under a trivial
    stabilizer: ``kneser_bits`` on the profiles P_i, accepted iff d = q
    and |sum| = bound.  With H trivial, r_i = |P_i|, so the bound is
    sum(r_i - 1) + 1, the critical size; a full sum has d = 1 < q, so
    d = q is non-periodic and non-full at once.  ``kneser_bits`` checks
    the theorem as it goes, so a violation at any visited q raises
    CertificateError, as in the sweeps.  The projected sumset itself is
    formed only at the accepted q.

    Which q are visited.  Call a summand prunable when it has a periodic
    form (period p) whose prefix lies in its tail classes: every
    progression union and every ``b_alpha`` is.  Its profile mod q is
    then exactly {s : s mod g is a tail residue mod g}, g = gcd(p, q),
    so the profile is stable under +g.  Let G be the gcd of the periods
    of the prunable summands.  The scan visits only the divisors q of G
    with 2 <= q <= q_max, and every q in 2..q_max when no summand is
    prunable (a q_max over the width cap is refused before that linear
    scan starts).  A skipped q does not divide some prunable period p,
    so g = gcd(p, q) is a proper divisor of q.  Either some profile is
    empty, or the projected sumset is that g-stable profile plus the
    others and so is stable under +g as well (a sumset inherits the
    stabilizer of each summand; Kneser 1953), hence full or periodic.
    A scan over every q rejects all three cases, so the first accepted
    q, and with it the whole report, is unchanged.  Among the visited
    q, one where the two largest profiles P, P' have sizes r + r' > q
    is skipped before ``kneser_bits`` runs: for every residue s the
    sets s - P and P' hold r + r' > q residues in all, so they meet
    (pigeonhole), P + P' is full, and so is the projected sumset.
    """
    if q_max is not None and q_max < 2:
        raise ValueError(f"q_max must be at least 2, got {q_max}")
    descs = list(parts)
    if len(descs) == 1:
        descs = [descs[0], descs[0]]
    if len(descs) < 2:
        raise ValueError("need at least one summand")
    k = len(descs)

    # periods of the prunable summands: no prefix member outside the tail classes
    periods = [
        eps.period
        for eps in (d.periodic_form for d in descs)
        if eps is not None
        and eps.prefix & ~tile_bits(eps.tail.bits, eps.period, eps.threshold) == 0
    ]
    if not periods and q_max is not None:
        check_width(q_max, "q_max")  # the linear scan would reach a q over the cap

    sum_desc = sumset_description(descs)
    sum_exact = sum_desc.periodic_form is not None
    # the sum first: a sampled sum over the width cap exits before any summand is listed
    bup_sum_est = buck_upper(sum_desc, horizon=horizon).point()[0]

    points = map_distinct(lambda d: buck_upper(d, horizon=horizon).point(), descs)
    sigma = sum((value for value, _ in points), Fraction(0))
    sigma_certified = all(exact for _, exact in points)

    if q_max is None:
        q_max = MAX_AUTO_QMAX
        if sigma > 0:
            eta_hat = 1 - bup_sum_est / sigma
            if eta_hat > 0:
                q_max = min(MAX_AUTO_QMAX, int((2 * k - 2) / (eta_hat * sigma)) + 1)

    scan = range(2, q_max + 1)
    if periods:
        scan = [q for q in divisors(gcd(*periods)) if 2 <= q <= q_max]
    for q in scan:
        found = map_distinct(lambda d: attained_residues(d, q, horizon), descs)
        profiles = [prof for prof, _ in found]
        all_exact = all(exact for _, exact in found)
        mults = tuple(p.cardinality for p in profiles)
        if 0 in mults or sum(sorted(mults)[-2:]) > q:
            continue  # an empty part, or (pigeonhole) a full projected sumset
        d, _, size, bound, _ = kneser_bits([p.bits for p in profiles], q)
        if d != q or size != bound:
            continue  # periodic or full, or above the critical size
        target = Fraction(size, q)
        if sum_exact:
            identity = sum_desc.periodic_form.natural_density() == target
            identity_certified = True
        else:
            evidence = verify_sparse_periodicity(sum_desc, q, 4, horizon)
            identity = all(row.passed for row in evidence)
            identity_certified = all(row.certified for row in evidence) and identity and all_exact
        if not identity:
            continue

        projected = residue_sumset(profiles)
        classification = classify_structure(projected)
        eta = 1 - target / sigma if sigma > 0 else None
        q_bound = None
        q_bound_ok = None
        if eta is not None and eta > 0:
            q_bound = Fraction(2 * k - 2) / (eta * sigma)
            q_bound_ok = q <= q_bound
        mean_gap_ok = None
        if sigma_certified:
            gap = sum(Fraction(r, q) for r in mults) - sigma
            mean_gap_ok = 0 <= gap / k < Fraction(k - 1, k * q)
        hulls = tuple(zper.from_residues(q, p.members) for p in profiles)
        sparse = verify_sparse_periodicity(sum_desc, q, 8, horizon)
        return KneserReport(
            k=k,
            q=q,
            minimal=True,
            summand_profiles=tuple(profiles),
            multiplicities=mults,
            sumset_profile=projected,
            sum_size=size,
            classification=classification,
            eta=eta,
            sigma=sigma,
            sigma_certified=sigma_certified,
            density_identity_holds=identity,
            density_identity_certified=identity_certified,
            q_bound=q_bound,
            q_bound_ok=q_bound_ok,
            mean_gap_ok=mean_gap_ok,
            sparse_periodicity=tuple(sparse),
            periodic_hulls=hulls,
        )

    return KneserReport(k, sigma, sigma_certified)
