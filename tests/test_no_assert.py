"""Certificates must survive ``python -O``, which strips ``assert``
statements, so no module of the package checks anything with one."""

import ast
from pathlib import Path

import buckdens


def test_no_module_of_the_package_has_an_assert_statement():
    modules = sorted(Path(buckdens.__file__).parent.rglob("*.py"))
    assert len(modules) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
