"""Command-line interface.

Subcommands: gen, density, sumset, analyze, classify, verify.  Set
descriptions are JSON, inline or from a file; rationals in reports are
always {"num", "den"} pairs.  Exit codes: 0 success / all pass,
1 verification failure or counterexample, 2 usage error, 3 internal
limit exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from functools import lru_cache
from typing import Optional, Union

from . import density as dens
from . import suites as suite_mod
from .generators import SetDescription, parse_description, sumset_description
from .kneser import analyze_sumset
from .zmod import (
    LimitExceededError, ResidueSet, bit_positions, classify_structure, positions_text,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


class UsageError(ValueError):
    pass


def _load_set(arg: str) -> SetDescription:
    """Parse inline JSON (an argument starting with "{" or "[") or a path
    to a file of it; a JSON value that is not an object is refused by
    ``parse_description``."""
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read set description {arg!r}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in set description: {exc}") from exc
    return parse_description(obj)


def _check_output(path: str) -> None:
    """Refuse an --output path that names a directory or lies in none,
    before the report is computed."""
    if os.path.isdir(path):
        raise UsageError(f"--output {path!r} is a directory")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise UsageError(f"--output {path!r}: no directory {folder!r}")


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"--output {out_path!r}: cannot write: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


#: a placeholder string, "\0" and an index, as the indenting encoder writes it
_HELD = re.compile(r'"\\u0000(\d+)"')


def _list_text(source: Union[int, list[int]], sep: str) -> str:
    """``sep.join(map(str, members))`` from a member list's source: the set
    bits of a mask (``positions_text``), or a list of ints as the C encoder
    writes it."""
    if isinstance(source, int):
        return positions_text(source, sep)
    return json.dumps(source)[1:-1].replace(", ", sep)


def _json_dumps(obj, int_lists: tuple[str, ...] = ()) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    where an int under one of the keys ``int_lists`` is the mask of a
    member list and reads as the list of its set bits.

    With ``indent`` set, ``json`` encodes in pure Python, item by item.  So
    each member list under those keys (members, residues), a mask or a
    nonempty list of ints, is held as its source and written by
    ``_list_text`` with the separator its indentation gives, and the
    indenting encoder writes the rest of the report, with a placeholder
    string for each held list.
    """
    if not int_lists:
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    held = []

    def hold(x, key=None, plain=False):
        """x with its member lists held; with ``plain``, none is held and
        each mask reads as its list."""
        if isinstance(x, dict):
            return {k: hold(v, k, plain) for k, v in x.items()}
        if key in int_lists and type(x) is int:  # a mask (a bool is not one)
            if plain or not x:
                return bit_positions(x)
            held.append(x)
            return f"\0{len(held) - 1}"
        if not isinstance(x, list):
            return x
        if key in int_lists and x and not plain and all(type(v) is int for v in x):
            held.append(x)
            return f"\0{len(held) - 1}"
        return [hold(v, None, plain) for v in x]

    parts = _HELD.split(json.dumps(hold(obj), indent=2, sort_keys=True))
    if len(parts) != 2 * len(held) + 1:  # a string of the report reads as a placeholder
        return json.dumps(hold(obj, plain=True), indent=2, sort_keys=True) + "\n"
    for i in range(1, len(parts), 2):
        line = parts[i - 1][parts[i - 1].rfind("\n") + 1 :]  # the placeholder's line, up to it
        pad = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        items = _list_text(held[int(parts[i])], "," + pad + "  ")
        parts[i] = f"[{pad}  {items}{pad}]"
    return "".join(parts) + "\n"


def _rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    desc = _load_set(args.set)
    members = desc.built_members(args.horizon)
    if args.format == "json":
        payload = {"family": desc.family, "horizon": args.horizon, "members": members}
        _emit(_json_dumps(payload, ("members",)), args.output)
    else:
        _emit(_list_text(members, "\n") + "\n", args.output)
    return EXIT_OK


_CHAIN_ALIASES = {"pow2": "powers_of_two", "pow4": "powers_of_four"}


def _cmd_density(args) -> int:
    desc = _load_set(args.set)
    if args.mode == "windows":
        if args.format == "csv":
            raise UsageError("--mode windows reports in json only")
        report = dens.window_densities(desc, args.horizon).to_json_dict()
        _emit(_json_dumps(report), args.output)
        return EXIT_OK
    if args.depth < 1:
        raise UsageError(f"--depth must be at least 1, got {args.depth}")
    chain = None  # an exact form reads no chain, so none is built for it
    if desc.periodic_form is None:
        chain = dens.modulus_chain(_CHAIN_ALIASES.get(args.chain, args.chain), args.depth)
    if args.mode == "buck-upper":
        estimate = dens.buck_upper(desc, chain, args.horizon)
    else:
        estimate = dens.buck_lower(desc, chain, args.horizon)
    if args.format == "csv":
        rows = [
            {
                "m": m,
                "count": int(r * m),
                "ratio_num": r.numerator,
                "ratio_den": r.denominator,
                "kind": estimate.kind,
            }
            for m, r in estimate.sequence
        ]
        _emit(_rows_to_csv(rows, ["m", "count", "ratio_num", "ratio_den", "kind"]), args.output)
    else:
        _emit(_json_dumps(estimate.to_json_dict()), args.output)
    return EXIT_OK


def _cmd_sumset(args) -> int:
    if len(args.sets) < 2:
        raise UsageError(f"sumset needs two or more sets, got {len(args.sets)}")
    try:
        moduli = [int(m) for m in args.mods.split(",") if m]
    except ValueError as exc:
        raise UsageError(f"--mods must be comma-separated integers: {exc}") from exc
    parts = [_load_set(s) for s in args.sets]
    total = sumset_description(parts)
    table = []
    for m in moduli:
        attained, exact = dens.attained_residues(total, m, args.horizon)
        table.append(
            {
                "m": m,
                "count": attained.cardinality,
                "residues": attained.bits,
                "kind": "exact-profile" if exact else "sampled",
            }
        )
    if args.format == "csv":  # profiles only: an exact one needs no members
        rows = [{**t, "residues": positions_text(t["residues"], " ")} for t in table]
        _emit(_rows_to_csv(rows, ["m", "count", "kind", "residues"]), args.output)
    else:
        members = total.built_members(args.horizon)
        payload = {"members": members, "profiles": table, "horizon": args.horizon}
        _emit(_json_dumps(payload, ("members", "residues")), args.output)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    parts = [_load_set(s) for s in args.sets]
    report = analyze_sumset(parts, q_max=args.qmax, horizon=args.horizon)
    _emit(_json_dumps(report.to_json_dict()), args.output)
    return EXIT_OK


def _cmd_classify(args) -> int:
    try:  # one map over the strings, not one argparse type call per value
        elems = list(map(int, args.elems))
    except ValueError as exc:
        raise UsageError(f"argument --elems: {exc}") from None
    s = ResidueSet.of(args.mod, elems)
    cls = classify_structure(s, args.require_nonempty_remainder)
    payload = {"modulus": args.mod, "members": s.bits, **cls.to_json_dict()}
    _emit(_json_dumps(payload, ("members", "trace", "periodic_part")), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = suite_mod.run_suite(args.suite, seed=args.seed)
    all_rows = []
    for res in results:
        for row in res.rows:
            all_rows.append({"suite": res.name, **row})
    if args.format == "json":
        payload = {
            "suites": [r.to_json_dict() for r in results],
            "passed": all(r.passed for r in results),
            "seed": args.seed,
        }
        _emit(_json_dumps(payload), args.output)
    elif args.format == "csv":
        _emit(_rows_to_csv(all_rows, ["suite", "check", "passed", "detail"]), args.output)
    else:
        lines = []
        for res in results:
            for row in res.rows:
                mark = "PASS" if row["passed"] else "FAIL"
                detail = f" -- {row['detail']}" if row["detail"] else ""
                lines.append(f"[{mark}] {res.name}: {row['check']}{detail}")
            lines.append(f"suite {res.name}: {'PASS' if res.passed else 'FAIL'}")
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _horizon(text: str) -> int:
    """A --horizon value: an integer n >= 0 (members are listed on [0, n])."""
    try:
        horizon = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if horizon < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {horizon}")
    return horizon


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buckdens",
        description="Exact modular-density calculus and sumset structure analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=()):
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", default=None, help="write the report to a file")

    p = sub.add_parser("gen", help="list members of a set description")
    p.add_argument("set", help="family JSON, inline or a file path")
    p.add_argument("--horizon", type=_horizon, default=dens.DEFAULT_HORIZON)
    common(p, ("text", "json"))
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("density", help="density estimates for a set description")
    p.add_argument("set")
    p.add_argument("--mode", choices=("buck-upper", "buck-lower", "windows"), default="buck-upper")
    p.add_argument(
        "--chain",
        choices=dens.CHAIN_KINDS + ("pow2", "pow4"),
        default="powers_of_two",
        help="modulus chain kind (pow2/pow4 are aliases)",
    )
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--horizon", type=_horizon, default=dens.DEFAULT_HORIZON)
    common(p, ("json", "csv"))
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("sumset", help="members and residue profiles of a sumset")
    p.add_argument("sets", nargs="+", help="two or more set descriptions")
    p.add_argument("--horizon", type=_horizon, default=dens.DEFAULT_HORIZON)
    p.add_argument("--mods", default="2,4,8,16", help="comma-separated profile moduli")
    common(p, ("json", "csv"))
    p.set_defaults(func=_cmd_sumset)

    p = sub.add_parser("analyze", help="minimal-modulus structure report for a sumset")
    p.add_argument("sets", nargs="+", help="one (doubled) or more set descriptions")
    p.add_argument("--qmax", type=int, default=None)
    p.add_argument("--horizon", type=_horizon, default=dens.DEFAULT_HORIZON)
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("classify", help="structure class of a subset of Z/mZ")
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--elems", nargs="+", required=True)
    p.add_argument("--require-nonempty-remainder", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=suite_mod.SUITE_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=suite_mod.DEFAULT_SEED)
    common(p, ("text", "json", "csv"))
    p.set_defaults(func=_cmd_verify)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing does not change it."""
    return _build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        if args.output:
            _check_output(args.output)
        return args.func(args)
    except LimitExceededError as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except RecursionError:  # only a set description nests: its JSON or its parse
        limit = sys.getrecursionlimit()
        print(
            f"limit exceeded: set description nested past the recursion limit {limit}",
            file=sys.stderr,
        )
        return EXIT_LIMIT
    except ValueError as exc:  # UsageError included: bad input, named in the message
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
