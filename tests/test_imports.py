"""Every module of the package uses each name it imports.

A stdlib-only AST check: a name bound by an import statement must be
read somewhere else in the module, as a name, the base of an attribute
or inside a string annotation.  __init__.py is skipped, since it imports
to re-export.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bellbound"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) of every import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "Form | None"
            try:
                used |= used_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return used


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{module} imports names it never uses: {', '.join(unused)}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nx: 'tau' = pi\n")
    assert [name for name, _ in imported_names(tree) if name not in used_names(tree)] == ["os"]
