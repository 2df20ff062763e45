"""The benchmark's cases, run in process and checked by its own references.

``perfbench/calls.py`` builds each case's call into buckdens and
``perfbench/reference.py`` checks the answer without importing buckdens.
A deleted name, a dropped keyword or a changed output there would make a
benchmark run report wrong outputs or a failed run; here it fails Tier-1
instead.  The modules are loaded read-only from ``perfbench/``, as
``test_perfbench_names.py`` loads ``spans.py``.  Every light case of each
workload runs at seed 1, and so does the smallest case of each kind that
has no light case, and a windows case of several blocks.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1
WORKLOADS = ("finite-sweeps", "periodic-exact", "sampled-families")

#: (workload, case name): the smallest case of each kind with no light case,
#: then a windows case whose window starts span several blocks
HEAVY_ONLY = (
    ("finite-sweeps", "ruzsa suite #0"),
    ("finite-sweeps", "thin-basis suite"),
    ("sampled-families", "density three_density windows 1e4"),
    ("sampled-families", "suite_weyl 5e4"),
    ("sampled-families", "suite_prop67"),
    ("sampled-families", 'density {"alpha": "2/7", "family": "weyl", "theta": "golden"} windows 1e6'),
)


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench() -> SimpleNamespace:
    workloads = load("workloads")
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "workloads", workloads)  # reference imports Case from it
        reference = load("reference")
    return SimpleNamespace(workloads=workloads, calls=load("calls"), reference=reference)


def mismatches(bench, cases) -> list[tuple[str, str]]:
    """(name, reason) of each case whose output its reference rejects."""
    out = []
    for case in cases:
        fn, args, to_payload = bench.calls.prepare(case.kind, case.params)
        reason = bench.reference.check(case, "ok", to_payload(fn(*args)))
        if reason is not None:
            out.append((case.name, reason))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_kind_is_checked(bench, workload):
    cases = bench.workloads.build_cases(workload, SEED)
    checked = {c.kind for c in cases if c.light}
    checked |= {c.kind for c in cases if (workload, c.name) in HEAVY_ONLY}
    assert checked == {c.kind for c in cases}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_light_cases_match_their_references(bench, workload):
    cases = [c for c in bench.workloads.build_cases(workload, SEED) if c.light]
    assert cases
    assert mismatches(bench, cases) == []


@pytest.mark.parametrize("workload, name", HEAVY_ONLY)
def test_smallest_heavy_case_matches_its_reference(bench, workload, name):
    (case,) = [c for c in bench.workloads.build_cases(workload, SEED) if c.name == name]
    assert mismatches(bench, [case]) == []
