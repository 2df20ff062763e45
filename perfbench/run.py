"""Benchmark entry point: one workload per call, closed loop, one client.

    python3 perfbench/run.py --workload finite-sweeps --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The cases run one after another in a fresh worker process (see
worker.py).  With --trace 0 the run reports the end-to-end metrics of
BENCHMARK.json; with --trace 1 it makes a traced pass between untraced
ones, runs the probes, and reports the per-layer metrics.  Every output is checked against an
independent reference (reference.py); the last line of stdout is the
JSON result, and the exit code is 1 when any output was wrong.

The times of an untraced run are calibrated: each case's time is divided
by the mean of the calibration times recorded just before and just after
it (worker.py), and multiplied by REF_CALIB_S.  The result is the case's
time at the CPU speed at which the calibration loop takes REF_CALIB_S,
so a swing in the speed of a shared host cancels out, while a change in
the program shows in full.  Set-up times, and the three passes of a
traced run behind trace.overhead_s, are calibrated the same way; the
per-layer self times and the probes are not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from reference import check  # noqa: E402
from workloads import WORKLOADS, build_cases, probes  # noqa: E402

SETUP_SAMPLES = 9
#: a typical time of the calibration loop on the host the benchmark was tuned
#: on (2 vCPUs of a shared x86-64 host, Python 3.11); times are reported at
#: this speed
REF_CALIB_S = 0.0022
#: a run that has not finished by then is killed (a run must end within 180 s)
HARD_LIMIT_S = 170
#: nearest-rank percentiles, in hundredths of a percent
PERCENTILES = (5000, 7500, 9000, 9500, 9900, 9950, 9990, 9995, 9999)


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile of PERCENTILES that
    still has at least 10 values above its nearest rank."""
    xs = sorted(values)
    n = len(xs)
    best = None
    for p in PERCENTILES:
        rank = -(-p * n // 10000)  # ceil(p/100 % of n), 1-based
        if n - rank >= 10:
            best = (p / 100, xs[rank - 1])
    if best is None:
        raise ValueError(f"{n} cases are too few for a tail with 10 cases above it")
    return best


def case_stats(seconds: list[float]) -> dict:
    p, tail = tail_percentile(seconds)
    return {"wall_s": sum(seconds), "case_p50_ms": statistics.median(seconds) * 1e3,
            "case_tail_ms": tail * 1e3, "tail_percentile": p, "cases": len(seconds)}


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in _benchmark_spec()[section]}


def _machine() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "buckdens").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "source_sha256": digest.hexdigest()}


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("BUCKDENS_THREADS", "PYTHONOPTIMIZE", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker_cmd(mode: str, workload: str, seed: int, trace: int, seconds: float = 0) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
            "--seed", str(seed), "--trace", str(trace), "--seconds", str(seconds)]


def _kill_on_alarm(proc):
    def handler(signum, frame):
        proc.kill()
        raise TimeoutError(f"run exceeded {HARD_LIMIT_S} s")

    return handler


def run_worker(workload: str, seed: int, trace: int, seconds: float):
    """Run the worker to completion; (records, summary)."""
    proc = subprocess.Popen(_worker_cmd("run", workload, seed, trace, seconds),
                            stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT)
    previous = signal.signal(signal.SIGALRM, _kill_on_alarm(proc))
    signal.alarm(HARD_LIMIT_S)
    records, summary = [], None
    try:
        while True:
            try:
                record = pickle.load(proc.stdout)
            except EOFError:
                break
            if record[0] == "summary":
                summary = record[1]
            else:
                records.append(record)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or summary is None:
        raise RuntimeError(f"worker for {workload} exited with {code}")
    return records, summary


def setup_samples(workload: str, seed: int, count: int) -> list[float]:
    """Calibrated set-up times of ``count`` fresh processes."""
    out = []
    for _ in range(count):
        done = subprocess.run(_worker_cmd("setup", workload, seed, 0), capture_output=True,
                              text=True, env=_child_env(), cwd=ROOT, timeout=60, check=True)
        seconds, calib = map(float, done.stdout.split()[-2:])
        out.append(seconds * REF_CALIB_S / calib)
    return out


def calibrated(records: list) -> list:
    """The case records, each time divided by the mean of the calibration
    records on either side of it and multiplied by REF_CALIB_S.  Records of
    a timed-out case, and records after the last calibration (the probes),
    keep their times."""
    out, pending, before = [], [], None
    for record in records:
        if record[0] != "calib":
            pending.append(record)
            continue
        for rec in pending:
            around = record[1] if before is None else (before + record[1]) / 2
            scaled = rec[3] if rec[2] == "timeout" else rec[3] * REF_CALIB_S / around
            out.append((*rec[:3], scaled, *rec[4:]))
        pending, before = [], record[1]
    return out + pending


def run_workload(workload: str, seed: int, trace: int, seconds: float) -> dict:
    cases = build_cases(workload, seed)
    probe_cases = probes(workload)
    samples = [] if trace else setup_samples(workload, seed, SETUP_SAMPLES - 1)
    records, summary = run_worker(workload, seed, trace, seconds)

    mismatches, failed, attempted = [], 0, 0
    by_pass: dict = {}
    probe_timeouts = 0
    reasons: dict = {}  # case index -> reason of its last output sent in full
    for pass_id, i, status, secs, payload, repeated in calibrated(records):
        case = probe_cases[i] if pass_id == "probe" else cases[i]
        if repeated:  # the same output as the one checked before
            reason = reasons[i]
        else:
            reason = check(case, status, payload)
            if pass_id != "probe":
                reasons[i] = reason
            if reason:
                mismatches.append(f"{case.name}: {reason}")
        if pass_id == "probe":
            probe_timeouts += status == "timeout"
            continue
        attempted += 1
        failed += bool(reason) or status == "timeout"
        by_pass.setdefault(pass_id, []).append(secs)

    passes = [by_pass[p] for p in sorted(by_pass)]
    if trace:
        units = _units("per_layer")
        values = dict(summary["layers"], **{"probes.timeouts": probe_timeouts,
                                            "probes.wall_s": summary["probe_s"],
                                            "trace.overhead_s": sum(passes[1]) - sum(passes[2])})
        stats = case_stats(passes[0])
    else:
        units = _units("end_to_end")
        medians = [statistics.median(times) for times in zip(*passes)]
        stats = case_stats(medians)
        own_setup = summary["setup_s"] * REF_CALIB_S / summary["setup_calib_s"]
        values = dict(stats, setup_s=statistics.median(samples + [own_setup]),
                      peak_rss_mb=summary["peak_rss_mb"])
    return {"workload": workload, "seed": seed, "trace": trace, "correct": not mismatches,
            "attempted": attempted, "failed": failed, "mismatches": mismatches,
            "passes": len(passes), "pass_walls": [sum(p) for p in passes], "stats": stats,
            "calib_median_s": statistics.median([r[1] for r in records if r[0] == "calib"]
                                                or [0]),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            "probes": len(probe_cases), "probe_timeouts": probe_timeouts,
            "case_seconds": {c.name: [p[i] for p in passes] for i, c in enumerate(cases)}}


def _print_report(result: dict, machine: dict) -> None:
    print(f"perfbench {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"python={machine['python']} cpus={machine['cpus']} commit={machine['commit']} "
          f"source={machine['source_sha256'][:16]}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6f} {m['unit']}")
    stats = result["stats"]
    print(f"  {stats['cases']} cases x {result['passes']} passes; case_tail_ms is "
          f"p{stats['tail_percentile']:g}; failed {result['failed']} of {result['attempted']}; "
          f"{result['probes']} probes, {result['probe_timeouts']} over budget")
    if not result["trace"]:
        print(f"  times at REF_CALIB_S = {REF_CALIB_S * 1e3:g} ms; the calibration loop took "
              f"{result['calib_median_s'] * 1e3:.3f} ms (median) in this run")
    for line in result["mismatches"][:20]:
        print(f"  MISMATCH {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="an untraced run makes passes over the case list for this long "
                             "(at least 3 passes); a traced run makes a fixed number")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: buckdens certificates are asserts",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "buckdens" / "__init__.py").is_file():
        print(f"no buckdens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    machine = _machine()
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in names:
        result = run_workload(workload, args.seed, args.trace, args.seconds)
        result["machine"] = machine
        path = OUT / f"run-{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")
        _print_report(result, machine)
        results.append(result)

    correct = all(r["correct"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
