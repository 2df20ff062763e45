"""Verification suites behind the CLI `verify` subcommand.

Each suite reruns a family of desk-checkable claims and returns a
deterministic table of check rows; a suite passes iff every row does.
Randomized draws are seeded, so a fixed seed reproduces reports byte
for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod

from . import generators as gen
from . import periodic as zper
from .density import Report, attained_residues
from .generators import (
    DKDescription,
    gen_b_alpha,
    gen_d_k,
    gen_weyl,
    gen_x0,
    basis_chain,
    certify_thin_basis,
    from_periodic,
    thin_basis_refined_bound,
    thin_basis_set,
    thin_basis_shape,
    sumset_description,
    union_description,
)
from .kneser import analyze_sumset, buck_inequality_report, ruzsa_counts
from .oracle import (
    KEMPERMAN_MODULUS_CAP,
    KNESER_MODULUS_CAP,
    brute_quasi_periodic,
    check_sweep_modulus,
    exhaustive_kemperman_ap,
    exhaustive_kneser,
)
from .zmod import (
    MAX_MODULUS, CertificateError, ResidueSet, bit_positions, detect_quasi_periodic,
    linear_sum_bits, sumset,
)

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class SuiteResult(Report):
    name: str
    passed: bool
    rows: tuple[dict, ...]


def _row(check: str, passed: bool, detail: str = "") -> dict:
    return {"check": check, "passed": bool(passed), "detail": detail}


def _finish(name: str, rows: list[dict]) -> SuiteResult:
    return SuiteResult(name, all(r["passed"] for r in rows), tuple(rows))


# ---------------------------------------------------------------------------
# exhaustive finite-group suites
# ---------------------------------------------------------------------------


def suite_kneser_exhaustive(m_max: int = 10) -> SuiteResult:
    check_sweep_modulus(m_max, KNESER_MODULUS_CAP, "m_max")  # before the first sweep
    rows = []
    for m in range(1, m_max + 1):
        hit = exhaustive_kneser(m)
        pairs = ((1 << m) - 1) ** 2
        rows.append(
            _row(
                f"kneser bound, all {pairs} nonempty pairs mod {m}",
                hit is None,
                "no violation" if hit is None else f"counterexample {hit}",
            )
        )
    return _finish("kneser-exhaustive", rows)


def suite_kemperman_ap(m_max: int = 12, agree_m_max: int = 10) -> SuiteResult:
    check_sweep_modulus(m_max, KEMPERMAN_MODULUS_CAP, "m_max")  # before the first sweep
    rows = []
    validating = []
    for allow_empty_part in (False, True):
        convention = (
            "remainder-may-be-empty" if allow_empty_part else "remainder-nonempty"
        )
        hits = []
        for m in range(2, m_max + 1):
            hit = exhaustive_kemperman_ap(
                m, require_nonempty_periodic_part=not allow_empty_part
            )
            if hit is not None:
                hits.append((m, sorted(hit.members)))
        if not hits:
            validating.append(convention)
        rows.append(
            _row(
                f"critical-pair dichotomy under convention {convention}, m <= {m_max}",
                True,  # recorded, not asserted per convention
                "no counterexample" if not hits else f"counterexamples at {hits}",
            )
        )
    rows.append(
        _row(
            "at least one quasi-periodicity convention validates the dichotomy",
            bool(validating),
            f"validating conventions: {', '.join(validating) if validating else 'none'}",
        )
    )
    mismatches = 0
    checked = 0
    for m in range(1, agree_m_max + 1):
        for enc in range(1, 1 << m):
            s = ResidueSet(m, enc)
            for flag in (False, True):
                checked += 1
                fast = detect_quasi_periodic(s, flag) is not None
                slow = brute_quasi_periodic(s, flag)
                if fast != slow:
                    mismatches += 1
    rows.append(
        _row(
            f"detector/oracle quasi-periodicity agreement on {checked} cases, m <= {agree_m_max}",
            mismatches == 0,
            f"{mismatches} mismatches",
        )
    )
    return _finish("kemperman-ap", rows)


# ---------------------------------------------------------------------------
# digit families
# ---------------------------------------------------------------------------

DK_TEST_SEQUENCES = (
    ((1, 3), None, 1),
    ((0, 2, 5, 9), None, 1),
    ((1, 3, 7, 15), "double_gap", 1),
    ((2, 4, 8), "powers_of_two", 1),
    ((0, 1, 2, 3), "arithmetic", 1),
)


def _dk_complement(desc: DKDescription, bound: int) -> list[int]:
    """E_K cap [0, bound): the n < bound missed by the double sum of the members."""
    mask = desc.members_mask(bound - 1)
    doubled = linear_sum_bits(mask, mask)
    return bit_positions(~doubled & ((1 << bound) - 1))


def suite_dk_xi(max_bound: int = 1 << 16) -> SuiteResult:
    rows = []
    for prefix, rule, step in DK_TEST_SEQUENCES:
        desc = gen_d_k(prefix, rule, step)
        label = f"K={prefix}" + (f"+{rule}" if rule else "")
        prev_xi = Fraction(-1)
        for t in range(len(prefix)):
            bound = 1 << (desc.k(t) + 1)
            if bound > max_bound:
                break
            xi = desc.xi(t)
            complement = _dk_complement(desc, bound)
            rows.append(
                _row(
                    f"{label}: |E cap [0,{bound})| = xi_{t} * {bound}",
                    xi * bound == len(complement),
                    f"count {len(complement)}, xi {xi}",
                )
            )
            rows.append(
                _row(
                    f"{label}: block recurrence reproduces E cap [0,{bound})",
                    desc.z_t(t) == complement,
                    f"|Z_{t}| = {len(complement)}",
                )
            )
            rows.append(
                _row(
                    f"{label}: xi_{t} nondecreasing and delta partial complements it",
                    xi >= prev_xi and desc.delta_partial(t) == 1 - xi,
                    f"xi {xi}",
                )
            )
            prev_xi = xi
    return _finish("dk-xi", rows)


def suite_x0(m_max: int = 8) -> SuiteResult:
    rows = []
    x0 = gen_x0()
    doubled = sumset_description([x0, x0])
    for m in range(1, m_max + 1):
        modulus = 4**m
        attained = x0.profile(modulus).attained
        rows.append(
            _row(
                f"|X0 residues mod 4^{m}| = 2^{m}",
                attained.cardinality == 2**m,
                f"got {attained.cardinality}",
            )
        )
        via_profile = doubled.profile(modulus).attained
        direct = sum(
            1
            for r in range(modulus)
            if all((r >> (2 * i)) & 3 != 3 for i in range(m))
        )
        rows.append(
            _row(
                f"|(X0+X0) residues mod 4^{m}| = 3^{m}, profile and digit count agree",
                via_profile.cardinality == 3**m == direct,
                f"profile {via_profile.cardinality}, digits {direct}",
            )
        )
    return _finish("x0", rows)


# ---------------------------------------------------------------------------
# dyadic-union suite
# ---------------------------------------------------------------------------


def suite_b_alpha(horizon: int = 1 << 16) -> SuiteResult:
    rows = []
    bad_density = []
    total = 0
    for length in range(1, 9):
        for value in range(1, 1 << length):
            bits = format(value, f"0{length}b")
            total += 1
            desc = gen_b_alpha(bits)
            alpha = gen.b_alpha_value(bits)
            if desc.periodic_form.natural_density() != alpha:
                bad_density.append(bits)
    rows.append(
        _row(
            f"exact density equals the dyadic value for all {total} bit strings of length <= 8",
            not bad_density,
            "all equal" if not bad_density else f"failures: {bad_density[:5]}",
        )
    )
    for r in range(1, 7):
        bits = "0" * (r - 1) + "1"
        desc = gen_b_alpha(bits)
        doubled = sumset_description([desc, desc])
        got = doubled.members(horizon)
        reference = list(range(0, horizon + 1, 1 << r))
        excess = sorted(set(got) ^ set(reference))
        rows.append(
            _row(
                f"alpha = 2^-{r}: doubled set equals (2^{r})N up to a finite set, horizon {horizon}",
                excess == [0],
                f"symmetric difference {excess[:8]}",
            )
        )
    bad_doubling = []
    checked = 0
    for length in range(2, 7):
        for value in range(1, 1 << length):
            bits = format(value, f"0{length}b")
            if bits.count("1") < 2:
                continue  # powers of two handled above
            checked += 1
            alpha = gen.b_alpha_value(bits)
            desc = gen_b_alpha(bits)
            doubled = sumset_description([desc, desc])
            # floor(log2(1/alpha)) is floor(log2(floor(1/alpha))) for 0 < alpha < 1
            log2_inv = (alpha.denominator // alpha.numerator).bit_length() - 1
            expected = Fraction(1, 1 << log2_inv)
            if doubled.periodic_form.natural_density() != expected:
                bad_doubling.append(bits)
    rows.append(
        _row(
            f"doubled density is 2^-floor(log2(1/alpha)) for all {checked} non-dyadic-power strings of length <= 6",
            not bad_doubling,
            "all equal" if not bad_doubling else f"failures: {bad_doubling[:5]}",
        )
    )
    return _finish("b-alpha", rows)


# ---------------------------------------------------------------------------
# thin additive bases
# ---------------------------------------------------------------------------


def suite_thin_basis(m_max: int = 10**4) -> SuiteResult:
    rows = []
    failures = []
    refined_misses = []
    shape = None
    for m in range(2, m_max + 1):
        m_shape = thin_basis_shape(m)
        if m_shape != shape:  # the set and its one doubled sum depend on the shape only
            shape = m_shape
            members, reach = thin_basis_set(*shape)
        try:
            certify_thin_basis(m, members, reach)  # what thin_basis(m) checks
        except CertificateError as exc:
            failures.append((m, str(exc)))
            continue
        if len(members) > thin_basis_refined_bound(m):
            refined_misses.append(m)
    rows.append(
        _row(
            f"cover {{0..m-1}} with |A| < 2 sqrt(m) for all 2 <= m <= {m_max}",
            not failures,
            "all hold" if not failures else f"failures: {failures[:3]}",
        )
    )
    rows.append(
        _row(
            "stricter floor bound 2*floor(sqrt(m+1/4)-1/2) discrepancies (reported, not asserted)",
            True,
            f"{len(refined_misses)} moduli exceed it, e.g. {refined_misses[:8]}"
            + ("; includes m=10" if 10 in refined_misses else ""),
        )
    )
    return _finish("thin-basis", rows)


BASIS_CHAIN_CASES = (
    [2, 3],
    [2, 3, 4],
    [4, 5, 6],
    [10, 10, 10],
    [2, 2, 2, 2, 2, 2, 2],
    [3, 5, 7],
    [97, 101],
)


def suite_basis_chain() -> SuiteResult:
    rows = []
    for moduli in BASIS_CHAIN_CASES:
        total = prod(moduli)
        label = f"chain {moduli}: doubled coverage mod {total}, size bound, sparsify keeps residues"
        try:
            plain = basis_chain(moduli)  # bound/coverage checked inside
            sparse = basis_chain(moduli, sparsify=True)
        except CertificateError as exc:
            rows.append(_row(label, False, str(exc)))
            continue
        same_residues = {x % total for x in plain} == {x % total for x in sparse}
        rows.append(
            _row(label, same_residues, f"|B| = {len(plain)}, bound {2 ** len(moduli)} * sqrt({total})")
        )
    return _finish("basis-chain", rows)


# ---------------------------------------------------------------------------
# equidistributed (fractional-part) sets
# ---------------------------------------------------------------------------


def suite_weyl(horizon: int = 10**6, q_max: int = 64) -> SuiteResult:
    rows = []
    residues_by_alpha = {}
    for alpha in (Fraction(3, 10), Fraction(1, 2)):
        desc = gen_weyl("sqrt2", alpha)
        ratio = Fraction(desc.positive_count(horizon), horizon)
        rows.append(
            _row(
                f"alpha = {alpha}: counting ratio within 0.02 at horizon {horizon}",
                abs(ratio - alpha) <= Fraction(1, 50),
                f"ratio {float(ratio):.6f}",
            )
        )
        residues = [attained_residues(desc, m, horizon)[0] for m in range(1, q_max + 1)]
        uncovered = [r.modulus for r in residues if not r.is_full()]
        residues_by_alpha[alpha] = residues
        rows.append(
            _row(
                f"alpha = {alpha}: every residue class mod m <= {q_max} attained",
                not uncovered,
                "all covered" if not uncovered else f"missing at m = {uncovered[:5]}",
            )
        )
    # bounded falsification of interval-structure for the doubled set:
    # the doubling lies inside the 2*alpha set, whose longest run of
    # consecutive members stays tiny, while its residues cover every
    # class mod q <= q_max -- so no modulus q admits the long-interval
    # inclusion at this scale.
    alpha = Fraction(3, 10)
    envelope = gen_weyl("sqrt2", 2 * alpha)
    longest = max(map(len, bin(envelope.members_mask(horizon))[2:].split("0")))
    rows.append(
        _row(
            f"doubled set (alpha = {alpha}) contains no {isqrt(horizon)}-term interval up to {horizon}",
            longest < isqrt(horizon),
            f"longest run in the 2*alpha envelope: {longest}",
        )
    )
    bad_q = [r.modulus for r in residues_by_alpha[alpha] if not sumset([r, r]).is_full()]
    rows.append(
        _row(
            f"doubled set attains every class mod q <= {q_max} (so interval structure fails for every q)",
            not bad_q,
            "all covered" if not bad_q else f"missing at q = {bad_q[:5]}",
        )
    )
    return _finish("weyl", rows)


# ---------------------------------------------------------------------------
# Ruzsa-type inequality
# ---------------------------------------------------------------------------


def _ruzsa_draw(rng: random.Random, q_max: int) -> tuple[int, int, int]:
    """One seeded pair R inside S of Z/qZ as (q, r_bits, s_bits).

    q is uniform on [1, q_max]; each x < q is in S with probability 1/2 and
    each member of S in R with probability 1/2, independently, read off one
    ``getrandbits(q)`` word each.  An empty S becomes one uniform residue,
    an empty R one uniform member of S.
    """
    q = rng.randint(1, q_max)
    s = rng.getrandbits(q) or 1 << rng.randrange(q)
    r = (s & rng.getrandbits(q)) or 1 << rng.choice(bit_positions(s))
    return q, r, s


def suite_ruzsa(trials: int = 10**4, q_max: int = 200, seed: int = DEFAULT_SEED) -> SuiteResult:
    """|R||S+S| <= |R+S|^2 on ``trials`` seeded draws R inside S mod q <= q_max,
    and the exact doubling inequality bdo(A+A)^2 >= bdo(A)*bup(A+A) on three
    periodic sets, read from ``buck_inequality_report``.

    The draws are bitmasks (``_ruzsa_draw``), counted by ``ruzsa_counts``
    on the bare ints.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not 1 <= q_max <= MAX_MODULUS:
        raise ValueError(f"q_max must be in [1, {MAX_MODULUS}], got {q_max}")
    rng = random.Random(seed)
    violations = 0
    for _ in range(trials):
        lhs, rhs = ruzsa_counts(*_ruzsa_draw(rng, q_max))
        if lhs > rhs:
            violations += 1
    rows = [
        _row(
            f"|R||S+S| <= |R+S|^2 over {trials} seeded draws, q <= {q_max} (seed {seed})",
            violations == 0,
            f"{violations} violations",
        )
    ]
    for progressions, label in (
        ([(1, 2)], "odd numbers"),
        ([(0, 4), (1, 4)], "two classes mod 4"),
        ([(0, 1)], "all of N"),
    ):
        report = buck_inequality_report(from_periodic(zper.from_progressions(progressions)))
        lhs = report.bdo_AA.value**2
        rhs = report.bdo_A.value * report.bup_AA.value
        rows.append(
            _row(
                f"exact doubling inequality for {label}",
                report.consistent,
                f"bdo(A+A)^2 = {lhs}, bdo(A)*bup(A+A) = {rhs}",
            )
        )
    return _finish("ruzsa", rows)


# ---------------------------------------------------------------------------
# analyze end-to-end / sparse periodicity
# ---------------------------------------------------------------------------


def suite_sparse_periodicity(horizon: int = 1 << 16) -> SuiteResult:
    rows = []
    odds = gen_b_alpha("1")
    report = analyze_sumset([odds, odds], q_max=64, horizon=horizon)
    rows.append(
        _row(
            "odd numbers: minimal modulus q = 2 with multiplicity 1",
            report.minimal and report.q == 2 and report.multiplicities == (1, 1),
            f"q = {report.q}, r = {report.multiplicities}",
        )
    )
    rows.append(
        _row(
            "odd numbers: doubled density (2r-1)/q = 1/2 holds exactly",
            bool(report.density_identity_holds and report.density_identity_certified)
            and report.sum_size == 1,
            f"sum size {report.sum_size}",
        )
    )
    rows.append(
        _row(
            "odd numbers: refinement classes all attained for m <= 8",
            all(r.passed and r.certified for r in report.sparse_periodicity),
            f"{len(report.sparse_periodicity)} rows",
        )
    )
    # alpha > 1/2 doubles to upper density 1: only the vacuous full-ring
    # structure exists, which the analyzer reports as no structure
    rich = analyze_sumset([gen_b_alpha("11")] * 2, q_max=64, horizon=horizon)
    rows.append(
        _row(
            "bits 11 (alpha above 1/2): no nontrivial modulus reported",
            not rich.minimal,
            f"sigma = {rich.sigma}",
        )
    )
    for bits in ("1", "01", "011", "0101", "0011"):
        desc = gen_b_alpha(bits)
        rep = analyze_sumset([desc, desc], q_max=256, horizon=horizon)
        if not rep.minimal:
            rows.append(_row(f"bits {bits}: structure found", False, "no q found"))
            continue
        rows.append(
            _row(
                f"bits {bits}: doubled set spreads over refinements of q = {rep.q} (m <= 8)",
                all(r.passed and r.certified for r in rep.sparse_periodicity),
                f"identity {rep.density_identity_holds}",
            )
        )
        hulls = [from_periodic(h) for h in rep.periodic_hulls]
        again = analyze_sumset(hulls, q_max=256, horizon=horizon)
        rows.append(
            _row(
                f"bits {bits}: reanalysis of the periodic hulls reproduces q, multiplicities, class",
                again.q == rep.q
                and again.multiplicities == rep.multiplicities
                and again.classification.tag == rep.classification.tag,
                f"q = {again.q}, class {again.classification.tag}",
            )
        )
    return _finish("sparse-periodicity", rows)


# ---------------------------------------------------------------------------
# the union construction separating lower and upper doubled density
# ---------------------------------------------------------------------------


def suite_prop67(horizon: int = 1 << 16) -> SuiteResult:
    rows = []
    bits = "001"  # alpha = 1/8 < 1/4
    alpha = gen.b_alpha_value(bits)
    b = gen_b_alpha(bits)
    d = gen_d_k((1, 3, 7, 15), rule="double_gap")
    a = union_description([b, d])

    # the two "cheap" parts of A+A live in the digit set with position 1 cleared
    superset = gen_d_k((1,))
    bb = sumset_description([b, b]).members_mask(horizon)
    bd = sumset_description([b, d]).members_mask(horizon)
    outside = bit_positions((bb | bd) & ~superset.members_mask(horizon))
    rows.append(
        _row(
            f"B+B and B+D stay inside the cleared-digit superset up to {horizon}",
            not outside,
            "verified" if not outside else f"escapes: {outside[:5]}",
        )
    )
    half = superset.periodic_form.natural_density()
    rows.append(
        _row(
            "superset density is exactly 1/2, so bdo(A+A) <= 1/2",
            half == Fraction(1, 2),
            f"density {half}",
        )
    )
    # D+D misses whole blocks: certified lower-density-zero evidence
    t_top = 3
    block_lo = d.m_t(t_top)
    block_hi = 1 << (d.k(t_top) + 1)
    dd = sumset_description([d, d]).members_mask(horizon)
    interval = ((1 << block_hi) - 1) >> block_lo << block_lo
    inside_block = bit_positions(dd & interval)
    rows.append(
        _row(
            f"D+D misses the full interval [{block_lo}, {block_hi}) (length {block_hi - block_lo})",
            not inside_block,
            "interval empty" if not inside_block else f"hit at {inside_block[:5]}",
        )
    )
    bound = d.delta_lower_bound(t_top)
    rows.append(
        _row(
            "delta_K certified above 1/2 (partial product with geometric tail bound)",
            bound is not None and bound > Fraction(1, 2),
            f"bound {bound} ~ {float(bound):.6f}",
        )
    )
    rows.append(
        _row(
            "separation bdo(A+A) <= 1/2 < delta_K <= bup(A+A)",
            bound is not None and Fraction(1, 2) < bound and half <= Fraction(1, 2),
            "",
        )
    )
    # supporting rows: the union has modular density alpha
    lower = b.periodic_form.natural_density()
    prof = a.profile(1 << 16)
    upper = Fraction(prof.attained.cardinality, 1 << 16)
    rows.append(
        _row(
            "union density pinched: bdo >= alpha exactly, bup <= alpha + 2^-4 at depth 2^16",
            lower == alpha and upper <= alpha + Fraction(1, 16),
            f"lower {lower}, upper {upper}",
        )
    )
    return _finish("prop67", rows)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


#: every suite by name, in the order ``all`` runs them; the lambdas look the
#: ``suite_*`` functions up when called, so a wrapper set on the module is used
_SUITES = {
    "kneser-exhaustive": lambda seed: suite_kneser_exhaustive(),
    "kemperman-ap": lambda seed: suite_kemperman_ap(),
    "dk-xi": lambda seed: suite_dk_xi(),
    "thin-basis": lambda seed: suite_thin_basis(),
    "basis-chain": lambda seed: suite_basis_chain(),
    "b-alpha": lambda seed: suite_b_alpha(),
    "x0": lambda seed: suite_x0(),
    "weyl": lambda seed: suite_weyl(),
    "ruzsa": lambda seed: suite_ruzsa(seed=seed),
    "sparse-periodicity": lambda seed: suite_sparse_periodicity(),
    "prop67": lambda seed: suite_prop67(),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[SuiteResult]:
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return [_SUITES[n](seed) for n in (SUITE_NAMES if name == "all" else (name,))]
