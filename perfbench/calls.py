"""The calls into buckdens that a case makes, and the plain payload of each.

``prepare`` builds a case's inputs through public constructors and
returns the callable to time, its arguments, and a function that turns
the result into plain data (ints, strings, lists, dicts) for the
reference check, which runs in a process that never imports buckdens.
Neither building the inputs nor converting the result is timed.
"""

from __future__ import annotations

import contextlib
import io

from buckdens import cli, generators, kneser, oracle, periodic, suites, zmod


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``buckdens.cli.main(argv)`` with stdout captured (stderr discarded)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _suite(result) -> dict:
    return {"passed": result.passed, "rows": [dict(row) for row in result.rows]}


def _bits_or_none(sets) -> object:
    if sets is None:
        return None
    if isinstance(sets, tuple):
        return [s.bits for s in sets]
    return sets.bits


def _qp_witness(w) -> object:
    if w is None:
        return None
    return {"d": w.subgroup.generator, "shift": w.shift,
            "trace": sorted(w.trace), "periodic_part": sorted(w.periodic_part)}


def prepare(kind: str, params: dict):
    """(callable, args, to_payload) for one case."""
    if "argv" in params:
        return run_cli, (params["argv"],), lambda r: {"code": r[0], "stdout": r[1]}
    if kind == "kneser_sweep":
        return (lambda: oracle.exhaustive_kneser(params["m"], workers=1)), (), _bits_or_none
    if kind == "kemperman_sweep":
        return oracle.exhaustive_kemperman_ap, (params["m"], params["nonempty"]), _bits_or_none
    if kind in ("detect_qp", "brute_qp"):
        s = zmod.ResidueSet(params["m"], params["bits"])
        if kind == "detect_qp":
            return zmod.detect_quasi_periodic, (s, params["nonempty"]), _qp_witness
        return oracle.brute_quasi_periodic, (s, params["nonempty"]), bool
    if kind == "ruzsa":
        q = params["q"]
        r, s = zmod.ResidueSet.of(q, params["r"]), zmod.ResidueSet.of(q, params["s"])
        return kneser.ruzsa_inequality_check, (r, s), lambda c: [c.lhs, c.rhs, c.holds]
    if kind == "ruzsa_suite":
        return (lambda: suites.suite_ruzsa(params["trials"], params["q_max"], params["seed"])), (), _suite
    if kind == "thin_basis_suite":
        return suites.suite_thin_basis, (params["m_max"],), _suite
    if kind == "thin_basis":
        return generators.thin_basis, (params["m"],), list
    if kind == "analyze":  # the API form; the CLI form carries argv
        desc = generators.gen_b_alpha(params["bits"])
        return (lambda: kneser.analyze_sumset([desc], q_max=params["q_max"])), (), \
            lambda report: report.to_json_dict()
    if kind == "eps_op":
        a = periodic.from_json_dict(params["a"])
        op = params["op"]
        if op in ("add", "union", "intersect"):
            args = (a, periodic.from_json_dict(params["b"]))
        elif op == "shift":
            args = (a, params["c"])
        else:
            args = (a,)
        return getattr(periodic, op), args, lambda e: e.to_json_dict()
    if kind == "weyl_suite":
        return suites.suite_weyl, (params["horizon"], params["q_max"]), _suite
    if kind == "prop67_suite":
        return suites.suite_prop67, (params["horizon"],), _suite
    if kind == "phi_t":
        return generators.phi_t, (params["k"], params["t"]), int
    raise ValueError(f"unknown case kind {kind!r}")
