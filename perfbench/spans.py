"""Span tracing of buckdens' public functions, installed from outside.

The wrappers replace a function in every buckdens module namespace that
holds it, since modules import each other with ``from .zmod import ...``;
methods are replaced on their class.  Each outermost call into a group
records one span (group, parent span, start, end) in flat arrays that
stay in memory until ``write`` stores them.  A call nested directly in
a span of its own group (``periodic.sumset`` calling ``add``) extends
that span instead of opening a new one.  ``rotate_bits`` is never
wrapped: the m = 10 Kneser sweep calls it tens of millions of times.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from operator import sub

ROOT = -1  # parent of the case spans
OFF = -2  # on the group stack while recording is paused

#: span group -> the functions it covers, as "module.name" or "module.Class.method"
LAYERS = {
    "zmod.sumset": ["zmod.sumset", "zmod.sumset_bits"],
    "zmod.stabilizer": ["zmod.stabilizer", "zmod.stabilizer_generator_bits", "zmod.is_periodic"],
    "zmod.saturate": ["zmod.saturate_bits"],
    "zmod.detect": ["zmod.detect_arithmetic_progression", "zmod.detect_quasi_periodic",
                    "zmod.classify_structure"],
    "oracle.sweep": ["oracle.exhaustive_kneser", "oracle.exhaustive_kemperman_ap"],
    "oracle.brute": ["oracle.brute_quasi_periodic", "oracle.brute_arithmetic_progression"],
    "oracle.sumset_members": ["oracle.brute_sumset_members"],
    "periodic.profile": ["periodic.EventuallyPeriodicSet.modular_profile"],
    "periodic.algebra": ["periodic." + f for f in
                         ("add", "union", "intersect", "complement", "difference", "shift", "sumset")],
    "periodic.members": ["periodic.EventuallyPeriodicSet.members"],
    "kneser.analyze": ["kneser.analyze_sumset"],
    "kneser.sparse": ["kneser.verify_sparse_periodicity"],
    "generators.members": ["generators.SetDescription.members"],
    "generators.profile": ["generators.SetDescription.profile"],
    "generators.build": ["generators." + f for f in (
        "gen_b_alpha", "gen_d_k", "gen_x0", "gen_weyl", "gen_p_t", "gen_hook", "gen_three_density",
        "thin_basis", "basis_chain", "union_description", "sumset_description",
        "parse_description", "from_periodic")],
    "density.attained": ["density.attained_residues"],
    "density.buck": ["density.buck_upper", "density.buck_lower"],
    "density.window": ["density.window_densities"],
    "density.chain": ["density.density_chain_report", "density.modulus_chain"],
    "suites.run": ["suites.run_suite"] + ["suites.suite_" + s for s in (
        "kneser_exhaustive", "kemperman_ap", "dk_xi", "thin_basis", "basis_chain", "b_alpha",
        "x0", "weyl", "ruzsa", "sparse_periodicity", "prop67")],
    "cli.main": ["cli.main"],
}

#: modulus (bitmask width) of a zmod call, from its arguments
_WIDTH = {
    "sumset": lambda a: a[0][0].modulus,
    "sumset_bits": lambda a: a[1],
    "stabilizer_generator_bits": lambda a: a[1],
    "saturate_bits": lambda a: a[2],
}
_WIDTH_DEFAULT = lambda a: a[0].modulus  # noqa: E731  (ResidueSet first argument)

COUNTERS = ("zmod.max_width", "kneser.q_scanned", "generators.members.count",
            "cli.output_bytes", "cli.exit_nonzero")


class Tracer:
    def __init__(self) -> None:
        self.groups = ["case", *LAYERS]
        self.names = array("H")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [ROOT]
        self.gstack = [ROOT]
        self.raised = [0] * len(self.groups)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._undo: list[tuple[object, str, object]] = []

    # -- spans opened by the benchmark itself ---------------------------

    def begin(self, group: str) -> int:
        idx = len(self.names)
        self.names.append(self.groups.index(group))
        self.parents.append(self.stack[-1])
        self.ends.append(0)
        self.stack.append(idx)
        self.gstack.append(self.names[idx])
        self.starts.append(time.perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        """Close span idx and anything a timeout left open inside it."""
        self.ends[idx] = time.perf_counter_ns()
        depth = self.stack.index(idx)
        del self.stack[depth:]
        del self.gstack[depth:]

    def pause(self) -> None:
        self.gstack.append(OFF)

    def resume(self) -> None:
        self.gstack.pop()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, gid: int, before=None, after=None):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, gstack, raised = self.stack, self.gstack, self.raised
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            top = gstack[-1]
            if top == gid or top == OFF:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = len(names)
            names.append(gid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            gstack.append(gid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                raised[gid] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                gstack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self, group: str, holder: str, attr: str):
        counters = self.counters
        if group.startswith("zmod."):
            width = _WIDTH.get(attr.split(".")[-1], _WIDTH_DEFAULT)
            analyze = self.groups.index("kneser.analyze")
            # kneser's residue_sumset, called once per q the analyze scan tries
            count_q = holder == "kneser" and attr == "sumset"
            gstack = self.gstack

            def before(args):
                w = width(args)
                if w > counters["zmod.max_width"]:
                    counters["zmod.max_width"] = w
                if count_q and analyze in gstack:
                    counters["kneser.q_scanned"] += 1

            return before, None
        if group == "generators.members":
            def after(result):
                counters["generators.members.count"] += len(result)

            return None, after
        return None, None

    def install(self, package: str = "buckdens") -> None:
        """Wrap every function of LAYERS in every namespace holding it."""
        for target in (t for targets in LAYERS.values() for t in targets):
            importlib.import_module(f"{package}.{target.partition('.')[0]}")
        modules = {name.rpartition(".")[2]: mod for name, mod in list(sys.modules.items())
                   if name.startswith(package + ".")}
        modules["__init__"] = sys.modules[package]
        for group, targets in LAYERS.items():
            gid = self.groups.index(group)
            for target in targets:
                modname, _, attr = target.partition(".")
                owner = modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(orig, gid, *self._hooks(group, modname, attr)))
                    continue
                orig = getattr(owner, attr)
                for holder, mod in modules.items():
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._undo.append((mod, key, orig))
                            setattr(mod, key, self._wrap(orig, gid, *self._hooks(group, holder, attr)))

    def uninstall(self) -> None:
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per group: span time minus the time covered by child spans (ns)."""
        durations = array("q", map(sub, self.ends, self.starts))
        covered = array("q", bytes(8 * len(durations)))
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[i]
        totals = [0] * len(self.groups)
        for i, group in enumerate(self.names):
            totals[group] += durations[i] - covered[i]
        return totals

    def metrics(self) -> dict:
        calls = [0] * len(self.groups)
        for group in self.names:
            calls[group] += 1
        out = {}
        for gid, (group, ns) in enumerate(zip(self.groups, self.self_times())):
            out[f"{group}.calls"] = calls[gid]
            out[f"{group}.self_s"] = ns / 1e9
            layer = group.split(".")[0]
            out[f"{layer}.raised"] = out.get(f"{layer}.raised", 0) + self.raised[gid]
        out.update(self.counters)
        return out

    def write(self, path: str, case_names: list[str]) -> None:
        """Header line (JSON) followed by the raw span arrays."""
        header = {"groups": self.groups, "spans": len(self.names), "cases": case_names,
                  "arrays": [["group", "H"], ["parent", "q"], ["start_ns", "q"], ["end_ns", "q"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.names, self.parents, self.starts, self.ends):
                arr.tofile(fh)
