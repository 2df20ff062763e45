"""Seeded case lists for the benchmark workloads.

A case is plain data: a name, a kind (which selects both the call into
buckdens and the reference check), its parameters and a time budget in
seconds.  The same (workload, seed) always yields the same list.  The
seed changes what the drawn cases contain but never how many there are
or their size class: where a size varies (a modulus, horizon or depth),
it is set by the case's index, not drawn.  So the cost of a pass stays
steady from seed to seed, and the median and tail percentile always land
on the same kind of case.

This module imports nothing from buckdens: building the case list is
part of the measured set-up, and the reference checks run in a process
that never imports the program under test.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import NamedTuple


class Case(NamedTuple):
    name: str
    kind: str
    params: dict
    budget_s: float

    @property
    def light(self) -> bool:
        """A light case takes milliseconds and is called several times per pass."""
        return self.budget_s == LIGHT_S


WORKLOADS = ("finite-sweeps", "periodic-exact", "sampled-families")

#: budget of cases that take milliseconds
LIGHT_S = 10.0
#: budget of cases that take seconds (the slowest takes about 10 s)
HEAVY_S = 60.0
#: budget of the limit probes, which run for minutes at the seed
LIMIT_S = 2.0

THETAS = ("sqrt2", "sqrt3", "sqrt5", "golden")


def build_cases(workload: str, seed: int) -> list[Case]:
    """The case list of one workload; the seed only picks the content."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "finite-sweeps":
        return _finite_sweeps(rng)
    if workload == "periodic-exact":
        return _periodic_exact(rng)
    if workload == "sampled-families":
        return _sampled_families(rng)
    raise ValueError(f"unknown workload {workload!r}")


def probes(workload: str) -> list[Case]:
    """Cases run once, untraced, after the traced pass of a --trace 1 run.

    They are the largest instances the ROADMAP names: one call each of
    several seconds, too long to repeat in every pass, and the cliff
    cases, which run for minutes at the seed and so get a short budget.
    A workload's own cases must be ones on which no case fails.
    """
    if workload == "finite-sweeps":
        return [Case(f"kneser sweep m={m}", "kneser_sweep", {"m": m}, HEAVY_S) for m in (9, 10)]
    if workload == "sampled-families":
        chain = json.dumps({"family": "d_k", "k_prefix": [1, 3], "rule": "double_gap"})
        return [
            _x0_sumset(10, HEAVY_S),
            Case("density d_k pow2 depth 25", "exit_code",
                 {"argv": ["density", chain, "--chain", "pow2", "--depth", "25"], "code": 3},
                 HEAVY_S),
        ]
    bits = "0" * 15 + "1"
    return [
        _ladder(10, HEAVY_S),
        _ladder(11, HEAVY_S),
        Case(
            "analyze b_alpha 16 bits --qmax 70000",
            "analyze",
            {"argv": ["analyze", _family("b_alpha", bits=bits), "--qmax", "70000"],
             "progressions": _b_alpha_progressions(bits), "q_max": 70000},
            LIMIT_S,
        ),
        Case(
            "sumset with aligned period near 1e9",
            "exit_code",
            {"argv": ["sumset", json.dumps({"progressions": [[1, 997], [5, 1009]]}),
                      json.dumps({"progressions": [[3, 991]]})], "code": 3},
            LIMIT_S,
        ),
    ]


def _x0_sumset(depth: int, budget: float) -> Case:
    """X0 + X0 with profiles mod 4, 16, ..., 4^depth: a 2^(2 depth)-bit mask."""
    x0 = json.dumps({"family": "x0"})
    mods = [4**j for j in range(1, depth + 1)]
    return Case(
        f"sumset x0+x0 mods to 4^{depth}", "sumset",
        {"argv": ["sumset", x0, x0, "--mods", ",".join(map(str, mods)), "--horizon", "100000"],
         "sets": [{"family": "x0"}] * 2, "mods": mods, "horizon": 100000},
        budget,
    )


def _ladder(length: int, budget: float) -> Case:
    """Single-bit b_alpha doubled: the minimal modulus is q = 2^L."""
    bits = "0" * (length - 1) + "1"
    return Case(
        f"analyze ladder L={length}", "analyze",
        {"argv": ["analyze", _family("b_alpha", bits=bits), "--qmax", str(1 << length)],
         "progressions": _b_alpha_progressions(bits), "q_max": 1 << length},
        budget,
    )


def _family(name: str, **params) -> str:
    return json.dumps({"family": name, **params}, sort_keys=True)


def _b_alpha_progressions(bits: str) -> list[list[int]]:
    """b_alpha as the union of 2^(j-1) + 2^j N over the set bits j."""
    return [[1 << (j - 1), 1 << j] for j, c in enumerate(bits, start=1) if c == "1"]


# ---------------------------------------------------------------------------
# finite-sweeps: zmod and oracle at widths of 12 bits or less
# ---------------------------------------------------------------------------

AGREE_DRAWS = 400
RUZSA_DRAWS = 300
#: enough equal-cost cases to hold the p99 rank
RUZSA_SUITES = 12
THIN_DRAWS = 100


def _finite_sweeps(rng: random.Random) -> list[Case]:
    cases = [Case(f"kneser sweep m={m}", "kneser_sweep", {"m": m}, LIGHT_S if m <= 7 else HEAVY_S)
             for m in range(1, 9)]
    for nonempty in (False, True):
        cases += [
            Case(f"kemperman sweep m={m} nonempty={nonempty}", "kemperman_sweep",
                 {"m": m, "nonempty": nonempty}, LIGHT_S)
            for m in range(2, 13)
        ]
    for i in range(AGREE_DRAWS):
        m = 3 + i % 8  # 50 sets for each m = 3..10
        params = {"m": m, "bits": rng.randrange(1, 1 << m), "nonempty": rng.random() < 0.5}
        cases.append(Case(f"detect_quasi_periodic #{i}", "detect_qp", params, LIGHT_S))
        cases.append(Case(f"brute_quasi_periodic #{i}", "brute_qp", params, LIGHT_S))
    for i in range(RUZSA_DRAWS):
        q = 1 + i * 199 // (RUZSA_DRAWS - 1)  # spread over 1..200
        s = [x for x in range(q) if rng.random() < 0.5] or [rng.randrange(q)]
        r = [x for x in s if rng.random() < 0.5] or [rng.choice(s)]
        cases.append(Case(f"ruzsa #{i}", "ruzsa", {"q": q, "r": r, "s": s}, LIGHT_S))
    cases += [
        Case(f"ruzsa suite #{i}", "ruzsa_suite",
             {"trials": 1000, "q_max": 200, "seed": rng.randrange(1 << 30)}, HEAVY_S)
        for i in range(RUZSA_SUITES)
    ]
    cases.append(Case("thin-basis suite", "thin_basis_suite", {"m_max": 10**4}, HEAVY_S))
    cases += [
        Case(f"thin_basis #{i}", "thin_basis", {"m": 2 + i * (10**4 - 2) // (THIN_DRAWS - 1)},
             LIGHT_S)
        for i in range(THIN_DRAWS)
    ]
    return cases


# ---------------------------------------------------------------------------
# periodic-exact: the analyze q-scan and eventually periodic algebra
# ---------------------------------------------------------------------------

#: periods of the algebra pairs, cycled, so every seed has the same sizes.
#: Their aligned periods (24 to 84) are spread out, so the costs of the
#: union and intersect cases form no steps that the median could straddle.
ALGEBRA_PERIODS = ((8, 12), (10, 15), (12, 18), (8, 20), (14, 21), (9, 15), (16, 6), (18, 27),
                   (8, 14), (12, 20), (9, 21), (6, 22), (10, 14), (9, 24), (12, 28))
ALGEBRA_PAIRS = 30
#: coprime periods: the aligned period is their product; enough equal-cost
#: adds to hold the p95 rank
COPRIME_PERIODS = (101, 103)
COPRIME_ADDS = 11
PROGRESSION_STEPS = (2, 3, 4, 6, 8, 12, 24)  # divisors of 24 keep every profile cheap


def _raw_eps(rng: random.Random, q: int, tail_size: int, blocks: int, prefix_share: float) -> dict:
    """An eventually periodic set in raw (q, T, prefix, tail) form."""
    threshold = q * blocks
    tail = sorted(rng.sample(range(q), tail_size))
    prefix = sorted(n for n in range(threshold) if rng.random() < prefix_share)
    return {"q": q, "T": threshold, "prefix": prefix, "tail": tail}


def _periodic_exact(rng: random.Random) -> list[Case]:
    cases = [_ladder(length, LIGHT_S if length <= 8 else HEAVY_S) for length in range(1, 10)]
    for length in range(3, 6):
        for j in range(5):
            while True:
                bits = "".join(rng.choice("01") for _ in range(length))
                if bits.count("1") >= 2:
                    break
            cases.append(Case(
                f"analyze b_alpha {bits} #{j}", "analyze",
                {"call": "analyze_b_alpha", "bits": bits,
                 "progressions": _b_alpha_progressions(bits), "q_max": 1 << length},
                LIGHT_S,
            ))
    for count in (2, 3):
        for j in range(10):
            terms = [[rng.randint(0, 30), rng.choice(PROGRESSION_STEPS)] for _ in range(count)]
            cases.append(Case(
                f"analyze progressions {terms} #{j}", "analyze",
                {"argv": ["analyze", json.dumps({"progressions": terms}), "--qmax", "48"],
                 "progressions": terms, "q_max": 48},
                LIGHT_S,
            ))
    for i in range(ALGEBRA_PAIRS):
        qa, qb = ALGEBRA_PERIODS[i % len(ALGEBRA_PERIODS)]
        a = _raw_eps(rng, qa, qa // 3, 2, 0.5)
        b = _raw_eps(rng, qb, qb // 3, 2, 0.5)
        for op in ("add", "union", "intersect"):
            cases.append(Case(f"{op} #{i}", "eps_op", {"op": op, "a": a, "b": b}, LIGHT_S))
        cases.append(Case(f"complement #{i}", "eps_op", {"op": "complement", "a": a}, LIGHT_S))
        cases.append(Case(f"shift #{i}", "eps_op",
                          {"op": "shift", "a": a, "c": rng.randint(1, 40)}, LIGHT_S))
    qa, qb = COPRIME_PERIODS
    for i in range(COPRIME_ADDS):
        a = _raw_eps(rng, qa, 2, 1, 0.02)
        b = _raw_eps(rng, qb, 2, 1, 0.02)
        cases.append(Case(f"add coprime {qa}x{qb} #{i}", "eps_op",
                          {"op": "add", "a": a, "b": b}, LIGHT_S))
    return cases


# ---------------------------------------------------------------------------
# sampled-families: member enumeration, estimators and large JSON output
# ---------------------------------------------------------------------------

SMALL_QUERIES_PER_KIND = 20
#: enough equal-size chains for the p90 rank to land among them, not at their edge
DK_CHAIN_DRAWS = 12
DK_RULES = ("double_gap", "powers_of_two", "arithmetic")


def _alpha(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    while True:
        den = rng.randint(7, 13)
        value = Fraction(rng.randint(1, den - 1), den)
        if lo <= value <= hi:
            return value


def _weyl(rng: random.Random, lo: Fraction, hi: Fraction) -> dict:
    return {"family": "weyl", "theta": rng.choice(THETAS), "alpha": str(_alpha(rng, lo, hi))}


def _d_k(rng: random.Random) -> dict:
    rule = rng.choice(DK_RULES)
    prefix = sorted(rng.sample(range(1, 7), rng.randint(1, 2)))
    out = {"family": "d_k", "k_prefix": prefix, "rule": rule}
    if rule == "arithmetic":
        out["step"] = rng.randint(1, 3)
    return out


def _cli(kind: str, argv: list[str], budget: float, **extra) -> tuple[str, dict, float]:
    return kind, {"argv": argv, **extra}, budget


def _sampled_families(rng: random.Random) -> list[Case]:
    horizon = 10**6
    specs = []  # (name, kind, params, budget)
    weyls = [_weyl(rng, Fraction(2, 7), Fraction(3, 10))]
    for w in weyls:
        text = json.dumps(w, sort_keys=True)
        specs.append((f"gen {text} --horizon 1e6", *_cli(
            "members", ["gen", text, "--horizon", str(horizon), "--format", "json"], HEAVY_S,
            set=w, horizon=horizon, format="json")))
        specs.append((f"density {text} windows 1e6", *_cli(
            "windows", ["density", text, "--mode", "windows", "--horizon", str(horizon)], HEAVY_S,
            set=w, horizon=horizon)))
    specs.append(("suite_weyl 5e4", "weyl_suite", {"horizon": 50000, "q_max": 64}, HEAVY_S))
    x0 = json.dumps({"family": "x0"})
    specs.append(("density x0 pow4 depth 10", *_cli(
        "chain", ["density", x0, "--chain", "pow4", "--depth", "10"], HEAVY_S,
        set={"family": "x0"}, base=4, depth=10)))
    specs.append(tuple(_x0_sumset(8, HEAVY_S)))
    sampled_h = 20000
    wtext = json.dumps(weyls[0], sort_keys=True)
    specs.append(("sumset weyl+x0 2e4", *_cli(
        "sumset", ["sumset", wtext, x0, "--horizon", str(sampled_h)], HEAVY_S,
        sets=[weyls[0], {"family": "x0"}], mods=[2, 4, 8, 16], horizon=sampled_h)))
    for i in range(DK_CHAIN_DRAWS):
        # nine forbidden positions below 20 (k, 5, 7, ..., 19) give every
        # chain the same size; its cost still varies by about 20% with k
        d = {"family": "d_k", "k_prefix": [rng.randint(0, 4), 5], "rule": "arithmetic", "step": 2}
        text = json.dumps(d, sort_keys=True)
        specs.append((f"density {text} pow2 depth 20 #{i}", *_cli(
            "chain", ["density", text, "--chain", "pow2", "--depth", "20"], HEAVY_S,
            set=d, base=2, depth=20)))
    hook = {"family": "hook"}
    specs.append(("gen hook 1e15", *_cli(
        "members", ["gen", json.dumps(hook), "--horizon", str(10**15)], LIGHT_S,
        set=hook, horizon=10**15, format="text")))
    specs.append(("density hook buck-upper 1e5", *_cli(
        "buck_upper_sampled", ["density", json.dumps(hook), "--horizon", "100000"], LIGHT_S,
        set=hook, horizon=100000)))
    p_t = {"family": "p_t", "t": rng.randint(1, 2)}
    specs.append((f"gen p_t t={p_t['t']} 3e4", *_cli(
        "members", ["gen", json.dumps(p_t), "--horizon", "30000"], HEAVY_S,
        set=p_t, horizon=30000, format="text")))
    three = {"family": "three_density", "alpha": str(_alpha(rng, Fraction(1, 3), Fraction(2, 3))),
             "beta": str(_alpha(rng, Fraction(1, 3), Fraction(2, 3))), "gamma": "1/2"}
    text = json.dumps(three, sort_keys=True)
    specs.append(("density three_density windows 1e4", *_cli(
        "windows", ["density", text, "--mode", "windows", "--horizon", "10000"], HEAVY_S,
        set=three, horizon=10000)))
    specs.append(("gen three_density 5e3", *_cli(
        "members", ["gen", text, "--horizon", "5000"], HEAVY_S,
        set=three, horizon=5000, format="text")))
    specs.append(("suite_prop67", "prop67_suite", {"horizon": 1 << 16}, HEAVY_S))
    for i in range(SMALL_QUERIES_PER_KIND):
        w = _weyl(rng, Fraction(1, 5), Fraction(1, 2))
        h = 5000 + 250 * i
        specs.append((f"small gen weyl #{i}", *_cli(
            "members", ["gen", json.dumps(w), "--horizon", str(h)], LIGHT_S,
            set=w, horizon=h, format="text")))
        d = _d_k(rng)
        depth = 8 + i % 5
        specs.append((f"small density d_k #{i}", *_cli(
            "chain", ["density", json.dumps(d), "--chain", "pow2", "--depth", str(depth)], LIGHT_S,
            set=d, base=2, depth=depth)))
        h = 2000 + 150 * i
        specs.append((f"small sumset x0+x0 #{i}", *_cli(
            "sumset", ["sumset", x0, x0, "--mods", "4,16,64", "--horizon", str(h)], LIGHT_S,
            sets=[{"family": "x0"}] * 2, mods=[4, 16, 64], horizon=h)))
        p = {"family": "p_t", "t": rng.randint(1, 3)}
        h = 1000 + 100 * i
        specs.append((f"small gen p_t #{i}", *_cli(
            "members", ["gen", json.dumps(p), "--horizon", str(h)], LIGHT_S,
            set=p, horizon=h, format="text")))
        specs.append((f"small phi_t #{i}", "phi_t",
                      {"k": 1000 + 200 * i, "t": rng.randint(0, 2)}, LIGHT_S))
    return [Case(*spec) for spec in specs]
