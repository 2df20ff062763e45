"""Self-tests of the benchmark: statistics, spans, references, budgets, seeds.

Run with:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import buckdens.kneser
import buckdens.zmod
import calls
import reference
import run
import worker
from spans import Tracer
from workloads import WORKLOADS, Case, build_cases, probes

ROOT = Path(__file__).resolve().parents[2]


# -- percentile rule ---------------------------------------------------------


@pytest.mark.parametrize("n, percentile, value", [
    (20, 50.0, 10),     # rank 10, ten above
    (100, 90.0, 90),    # p95 would leave only five above
    (209, 95.0, 199),   # rank ceil(198.55) = 199, ten above
    (1000, 99.0, 990),
    (20000, 99.95, 19990),
])
def test_tail_is_highest_percentile_with_ten_cases_above(n, percentile, value):
    assert run.tail_percentile([float(i) for i in range(n, 0, -1)]) == (percentile, value)


def test_tail_needs_eleven_cases():
    with pytest.raises(ValueError):
        run.tail_percentile([1.0] * 19)


def test_case_stats_reports_count_and_percentile():
    stats = run.case_stats([0.001 * i for i in range(1, 101)])
    assert stats["cases"] == 100 and stats["tail_percentile"] == 90.0
    assert stats["case_tail_ms"] == pytest.approx(90.0)
    assert stats["wall_s"] == pytest.approx(5.05)


# -- calibration ---------------------------------------------------------------


def test_calibration_divides_by_the_mean_of_the_neighbouring_calibrations():
    ref = run.REF_CALIB_S
    records = [("calib", 0.001), (0, 0, "ok", 0.004, "a", False), (0, 1, "ok", 0.002, None, True),
               ("calib", 0.003), (0, 2, "timeout", 5.0, None, False), ("calib", 0.001)]
    out = run.calibrated(records)
    assert [r[:3] for r in out] == [(0, 0, "ok"), (0, 1, "ok"), (0, 2, "timeout")]
    assert out[0][3] == pytest.approx(0.004 * ref / 0.002)
    assert out[1][3] == pytest.approx(0.002 * ref / 0.002)
    assert out[2][3] == 5.0  # a timeout keeps its budget
    assert out[0][4:] == ("a", False) and out[1][4:] == (None, True)


def test_records_after_the_last_calibration_keep_their_times():
    records = [(1, 0, "ok", 0.5, None, False), ("probe", 0, "ok", 2.0, None, False)]
    assert run.calibrated(records) == records
    assert run.calibrated([("calib", 0.002)] + records) == records


def test_calibration_loop_is_fixed_work():
    assert worker.calibration_loop() == worker.calibration_loop()
    assert 0 < worker.calibrate() < 1


# -- spans and self time -----------------------------------------------------


def _span(tracer, group, parent, start, end):
    tracer.names.append(tracer.groups.index(group))
    tracer.parents.append(parent)
    tracer.starts.append(start)
    tracer.ends.append(end)
    return len(tracer.names) - 1


def test_self_time_subtracts_direct_children():
    t = Tracer()
    case = _span(t, "case", -1, 0, 100)
    _span(t, "zmod.sumset", case, 10, 40)
    algebra = _span(t, "periodic.algebra", case, 50, 90)
    _span(t, "zmod.sumset", algebra, 60, 70)
    self_ns = dict(zip(t.groups, t.self_times()))
    assert self_ns["case"] == 100 - 30 - 40
    assert self_ns["zmod.sumset"] == 30 + 10
    assert self_ns["periodic.algebra"] == 40 - 10
    metrics = t.metrics()
    assert metrics["zmod.sumset.calls"] == 2
    assert metrics["periodic.algebra.self_s"] == pytest.approx(30e-9)


def test_wrappers_cover_every_namespace_and_restore():
    sumset = buckdens.zmod.sumset
    rotate = buckdens.zmod.rotate_bits
    t = Tracer()
    t.install()
    try:
        assert buckdens.kneser.residue_sumset is not sumset
        assert buckdens.zmod.sumset is not sumset
        assert buckdens.zmod.rotate_bits is rotate  # too hot to wrap
        span = t.begin("case")
        desc = buckdens.generators.gen_b_alpha("01")
        report = buckdens.kneser.analyze_sumset([desc], q_max=8)
        t.end(span)
    finally:
        t.uninstall()
    assert buckdens.kneser.residue_sumset is sumset and buckdens.zmod.sumset is sumset
    assert report.q == 4
    metrics = t.metrics()
    assert metrics["kneser.analyze.calls"] == 1
    assert metrics["kneser.q_scanned"] == 3  # q = 2, 3, 4
    assert metrics["generators.build.calls"] == 2  # gen_b_alpha, sumset_description
    assert metrics["zmod.max_width"] >= 4
    assert t.stack == [-1] and t.gstack == [-1]


# -- references ----------------------------------------------------------------


def _run(case):
    fn, args, to_payload = calls.prepare(case.kind, case.params)
    result = fn(*args)
    return to_payload(result)


def _pick(workload, kind):
    return next(c for c in build_cases(workload, 7) if c.kind == kind)


@pytest.mark.parametrize("workload, kind", [
    ("finite-sweeps", "detect_qp"),
    ("finite-sweeps", "ruzsa"),
    ("finite-sweeps", "thin_basis"),
    ("periodic-exact", "eps_op"),
    ("periodic-exact", "analyze"),
])
def test_reference_accepts_right_and_rejects_injected_wrong_answer(workload, kind):
    case = _pick(workload, kind)
    payload = _run(case)
    assert reference.check(case, "ok", payload) is None
    if kind == "detect_qp":
        wrong = {"d": 1, "shift": 0, "trace": [], "periodic_part": []} if payload is None else None
    elif kind == "ruzsa":
        wrong = [payload[0] + 1, *payload[1:]]
    elif kind == "thin_basis":
        wrong = payload[:-1]
    elif kind == "eps_op":  # N or N minus {0}, whichever differs at 0
        zero_in = 0 in payload["prefix"] if payload["T"] else 0 in payload["tail"]
        wrong = {"q": 1, "T": int(zero_in), "prefix": [], "tail": [0]}
    else:
        wrong = dict(json.loads(payload["stdout"]), q=3)
        wrong = {"code": 0, "stdout": json.dumps(wrong)}
    assert reference.check(case, "ok", wrong) is not None


def test_reference_rejects_wrong_exit_code_and_errors():
    case = Case("limit", "exit_code", {"argv": [], "code": 3}, 1.0)
    assert reference.check(case, "ok", {"code": 3, "stdout": ""}) is None
    assert reference.check(case, "ok", {"code": 0, "stdout": "{}"}) is not None
    assert reference.check(case, "error", "ValueError: boom") is not None
    sweep = Case("kneser", "kneser_sweep", {"m": 3}, 1.0)
    assert reference.check(sweep, "ok", [1, 2]) is not None


def test_closed_forms():
    assert reference.analyze_reference(((1 << 5, 1 << 6),), 64)["q"] == 64
    assert len(reference.digit_set(4, (0, 1), 4**5 - 1)) == 2**5
    assert len(reference.digit_set(4, (0, 1, 2), 4**5 - 1)) == 3**5
    golden = reference.weyl_members("golden", "1/2", 50)
    assert golden == tuple(n for n in range(51) if (n * (1 + 5**0.5) / 2) % 1 < 0.5)


# -- time budgets ----------------------------------------------------------------


def _spin():
    while True:
        pass


def test_timeout_is_recorded_and_charged_its_budget():
    previous = signal.signal(signal.SIGALRM, worker._alarm)
    try:
        status, seconds, result = worker.timed_call(_spin, (), 0.05)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert (status, seconds, result) == ("timeout", 0.05, None)
    assert reference.check(_pick("finite-sweeps", "kneser_sweep"), status, result) is None


def test_cliff_probes_have_short_budgets():
    cliffs = [p for p in probes("periodic-exact") if "ladder" not in p.name]
    assert len(cliffs) == 2 and all(p.budget_s <= 2 for p in cliffs)
    assert [p.params.get("code") for p in probes("sampled-families")] == [None, 3]


# -- seeds -------------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_draw_but_not_its_shape(workload):
    first, again, other = (build_cases(workload, s) for s in (1, 1, 2))
    assert first == again
    assert first != other
    assert [c.kind for c in first] == [c.kind for c in other]


# -- refusals ------------------------------------------------------------------------


def test_refuses_optimized_python():
    done = subprocess.run([sys.executable, "-O", str(ROOT / "perfbench" / "run.py"),
                           "--workload", "finite-sweeps", "--seed", "1", "--seconds", "1"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "finite-sweeps",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
