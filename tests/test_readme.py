"""The README's examples run as written, and the code it names exists:
every command of its CLI block exits 0, its Python quick tour executes,
every name it qualifies by a buckdens module or class resolves, and every
bare name in its inline code occurs in the package source."""

import dataclasses
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import buckdens
from buckdens import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
SOURCE = "\n".join(p.read_text() for p in Path(buckdens.__file__).parent.glob("*.py"))

MODULES = {
    info.name: importlib.import_module(f"buckdens.{info.name}")
    for info in pkgutil.iter_modules(buckdens.__path__)
}
#: what a qualified name may start with: the package, a module, or a class of a module
ROOTS = {"buckdens": buckdens, **MODULES}
ROOTS.update(
    (name, obj)
    for module in MODULES.values()
    for name, obj in vars(module).items()
    if isinstance(obj, type) and obj.__module__.startswith("buckdens.")
)


def fenced_block(heading: str, lang: str) -> str:
    """The first ``lang`` fenced block after the line ``heading``."""
    after = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"```{lang}\n(.*?)```", after, re.S).group(1)


def cli_commands() -> list[str]:
    """The ``buckdens ...`` lines of the CLI block, continuations joined."""
    text = fenced_block("## CLI", "sh").replace("\\\n", " ")
    return [line for line in text.splitlines() if line.startswith("buckdens ")]


def code_spans() -> set[str]:
    """The names in inline code of the prose, such as ``zmod.kneser_bits`` or
    ``SetDescription.members(...)``; a call's arguments are dropped."""
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    return set(re.findall(r"`([A-Za-z_][\w.]*)(?:\(.*?\))?`", prose))


def resolves(name: str) -> bool:
    """Whether a name qualified by a root is an attribute, or a dataclass
    field, at each step."""
    head, *path = name.split(".")
    obj = ROOTS[head]
    for part in path:
        fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else ()
        if not (hasattr(obj, part) or part in fields):
            return False
        obj = getattr(obj, part, None)
    return True


def test_cli_block_is_found():
    # an empty parametrization would pass silently
    assert cli_commands()


@pytest.mark.parametrize("command", cli_commands())
def test_cli_command_exits_zero(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # for --output report.csv
    argv = shlex.split(command)[1:]
    assert cli.main(argv) == 0, capsys.readouterr().err


def test_quick_tour_runs():
    exec(compile(fenced_block("## Library quick tour", "python"), "README.md", "exec"), {})


def test_qualified_names_exist():
    # "oracle.py" names a file
    qualified = {s for s in code_spans() if s.split(".")[0] in ROOTS and "." in s}
    assert len(qualified) > 10
    assert sorted(s for s in qualified if not s.endswith(".py") and not resolves(s)) == []


def test_bare_names_occur_in_the_source():
    # a bare name may be a function, a field, a family or a JSON key: it
    # must at least occur in the package, so a deleted function fails here
    bare = {s for s in code_spans() if "." not in s}
    assert len(bare) > 10
    assert sorted(bare - set(re.findall(r"\w+", SOURCE))) == []
