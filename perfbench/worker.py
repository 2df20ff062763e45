"""One fresh process per measurement: import buckdens, run the cases.

``--mode setup`` times the set-up (importing buckdens and building the
seeded case list) and prints it with a calibration time.  ``--mode run``
also runs the cases, one at a time in this process, and streams one
pickled record per case to the parent on stdout; the parent checks the
outputs after this process has ended, so reference work never adds to
its memory or time.

Calibration: the CPU speed of a shared host swings by up to 50% for
seconds at a time, and a swing slows the program and other Python code
much alike.  So an untraced run also times a fixed loop of plain Python
(``calibrate``) before every case that follows at least CALIB_EVERY_S of
other work, before every heavy case and at the end of every pass, and
streams each of those times as a ``("calib", seconds)`` record between
the case records.  The parent divides each case's time by the
calibration times around it (see run.py).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import pickle
import random
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: an untraced run makes passes over the case list until --seconds are
#: used, but at least this many; a case's time is its median over the passes
MIN_PASSES = 3
#: no further pass starts if it would end after this many seconds of the run
PASS_DEADLINE_S = 120
#: a calibration is timed before a case once this much time has passed since the last
CALIB_EVERY_S = 0.05
#: the calibration loop's iterations and data: about 0.6 ms of arithmetic
#: and 1.2 ms of container work
CALIB_N = 2000
CALIB_DATA = random.Random(1).sample(range(5000), 5000)


def calibration_loop() -> int:
    """Fixed work in the style of the program: integer and bit arithmetic,
    sorting, set and dict updates, JSON encoding."""
    acc, seen, table = 0, set(), {}
    for i in range(CALIB_N):
        x = (i * 2654435761) & 0xFFFFF
        seen.add(x & 1023)
        table[x & 255] = i
        acc ^= (x << (i & 31)) >> 3
    xs = sorted(CALIB_DATA)
    tripled = {x: 3 * x for x in xs[:2000]}
    common = set(CALIB_DATA[:3000]) & set(xs[1000:4000])
    for k, v in tripled.items():
        if k in common:
            acc += v >> 2
    return acc + len(seen) + len(table) + len(json.dumps(xs[:1000]))


def calibrate() -> float:
    """The faster of two back-to-back calibration loops, in seconds."""
    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        calibration_loop()
        seconds = time.perf_counter() - t0
        best = seconds if best is None else min(best, seconds)
    return best


class CaseTimeout(BaseException):
    """Raised by the interval timer when a case exceeds its budget.

    A BaseException, so that ``except Exception`` in the program under
    test cannot swallow it.
    """


def _alarm(signum, frame):
    raise CaseTimeout


def timed_call(fn, args, budget_s: float):
    """(status, seconds, result); a timeout is charged its full budget."""
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            t0 = time.perf_counter()
            result = fn(*args)
            seconds = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CaseTimeout:
        return "timeout", budget_s, None
    except Exception as exc:  # a case raising is recorded, not fatal
        return "error", time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return "ok", seconds, result


def setup(workload: str, seed: int):
    """Import buckdens from this checkout and build the case list."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import buckdens
    import calls
    from workloads import build_cases

    cases = build_cases(workload, seed)
    seconds = time.perf_counter() - t0
    if Path(buckdens.__file__).resolve().parent != SRC / "buckdens":
        raise SystemExit(f"buckdens imported from {buckdens.__file__}, not from {SRC}")
    return seconds, cases, calls


#: a light case is called back to back until it has run this long, within
#: these call counts; its time is its fastest call
REPEAT_FOR_S = 0.005
MIN_CALLS, MAX_CALLS = 2, 30


def run_case(case, calls, repeat: bool):
    """(status, fastest seconds, payload), each call on freshly built inputs."""
    best, spent, count = None, 0.0, 0
    while True:
        try:
            fn, args, to_payload = calls.prepare(case.kind, case.params)
        except Exception as exc:
            return "error", 0.0, f"{type(exc).__name__}: {exc}"
        status, seconds, result = timed_call(fn, args, case.budget_s)
        if status != "ok":
            return status, seconds, result
        best = seconds if best is None else min(best, seconds)
        spent += seconds
        count += 1
        if not (repeat and case.light) or count >= MAX_CALLS:
            break
        if count >= MIN_CALLS and spent >= REPEAT_FOR_S:
            break
    return "ok", best, to_payload(result)


def run_pass(cases, calls, send, pass_id, tracer=None, repeat=False, calib=False,
             digests=None) -> float:
    """Each case once.  When ``repeat``, light cases run several times;
    when ``calib``, calibration records go between the case records.  With
    ``digests`` (a dict of sha256 digests kept across passes), an output
    equal to the one last sent for the same case is not sent again: its
    record carries None and the flag ``repeated``.
    """
    wall = 0.0
    last_calib = None
    for i, case in enumerate(cases):
        if calib and (last_calib is None or not case.light
                      or time.perf_counter() - last_calib >= CALIB_EVERY_S):
            send(("calib", calibrate()))
            last_calib = time.perf_counter()
        if tracer is None:
            status, seconds, payload = run_case(case, calls, repeat)
        else:
            status, seconds, payload = _traced_case(case, calls, tracer)
        repeated = False
        if digests is not None and status == "ok":
            digest = hashlib.sha256(pickle.dumps(payload, protocol=4)).digest()
            repeated = digests.get(i) == digest
            digests[i] = digest
        send((pass_id, i, status, seconds, None if repeated else payload, repeated))
        wall += seconds
    if calib:
        send(("calib", calibrate()))
    return wall


def _traced_case(case, calls, tracer):
    tracer.pause()  # input construction is not part of the case
    try:
        fn, args, to_payload = calls.prepare(case.kind, case.params)
    except Exception as exc:
        tracer.resume()
        return "error", 0.0, f"{type(exc).__name__}: {exc}"
    tracer.resume()
    span = tracer.begin("case")
    status, seconds, result = timed_call(fn, args, case.budget_s)
    tracer.end(span)
    if status != "ok":
        return status, seconds, result
    if "argv" in case.params:
        tracer.counters["cli.output_bytes"] += len(result[1].encode())
        tracer.counters["cli.exit_nonzero"] += result[0] != 0
    tracer.pause()
    try:
        return status, seconds, to_payload(result)
    finally:
        tracer.resume()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    if sys.flags.optimize:
        raise SystemExit("refusing to run under python -O: buckdens certificates are asserts")
    os.environ.pop("BUCKDENS_THREADS", None)

    before = calibrate()
    setup_s, cases, calls = setup(args.workload, args.seed)
    setup_calib = (before + calibrate()) / 2
    if args.mode == "setup":
        print(setup_s, setup_calib)
        return 0

    channel = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # stray prints from the program go to stderr
    signal.signal(signal.SIGALRM, _alarm)

    def send(record) -> None:
        pickle.dump(record, channel, protocol=pickle.HIGHEST_PROTOCOL)

    summary = {"setup_s": setup_s, "setup_calib_s": setup_calib}
    if not args.trace:
        start, digests = time.perf_counter(), {}
        for pass_id in itertools.count():
            t0 = time.perf_counter()
            run_pass(cases, calls, send, pass_id, repeat=True, calib=True, digests=digests)
            end = time.perf_counter() - start + (time.perf_counter() - t0)
            if end > PASS_DEADLINE_S or (pass_id + 1 >= MIN_PASSES and end > args.seconds):
                break  # the next pass would end after --seconds
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        from spans import Tracer
        from workloads import probes

        # a warm-up pass, then the traced pass and an untraced one to compare it with
        run_pass(cases, calls, send, 0, calib=True)
        tracer = Tracer()
        tracer.install()
        try:
            run_pass(cases, calls, send, 1, tracer, calib=True)
        finally:
            tracer.uninstall()
        run_pass(cases, calls, send, 2, calib=True)
        summary["layers"] = tracer.metrics()
        tracer.write(HERE / "out" / f"spans-{args.workload}.bin", [c.name for c in cases])
        del tracer
        summary["probe_s"] = run_pass(probes(args.workload), calls, send, "probe")
    send(("summary", summary))
    channel.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
