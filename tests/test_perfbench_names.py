"""Every name the perfbench span tracer wraps still resolves in buckdens.

``perfbench/spans.py`` wraps functions by name (``module.name`` or
``module.Class.method``); a rename or deletion in buckdens would make
``perfbench/run.py --trace 1`` fail, so the names are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [target for targets in spans.LAYERS.values() for target in targets]


def resolves(target: str) -> bool:
    modname, _, attr = target.partition(".")
    owner = importlib.import_module(f"buckdens.{modname}")
    if "." in attr:  # a method is wrapped on the class that defines it
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name, None)
        return cls is not None and callable(vars(cls).get(meth))
    return callable(getattr(owner, attr, None))


def test_every_traced_name_resolves():
    names = traced_names()
    assert len(names) > 40
    assert [t for t in names if not resolves(t)] == []
