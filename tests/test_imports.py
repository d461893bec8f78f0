"""Every import in `src/gradedlts/*.py` is used.

The check reads each module's syntax tree with the stdlib `ast`.  A name
that an import binds must be read somewhere in the module: in code or in an
annotation, quoted annotations included.  A mention in a comment or a
docstring does not count.  `from __future__` imports are compiler
directives and bind nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gradedlts"


def imported_names(tree: ast.AST):
    """(name, line) for each name that an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree: ast.AST) -> set[str]:
    """The names read anywhere in `tree`, the quoted annotations parsed too."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"line {line}: {name}" for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_reads_annotations_and_ignores_comments():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Mapping, NamedTuple\n"
        "from .linalg import Subspace\n"
        "from .groups import GroupElement  # GroupElement\n"
        "from .errors import InputError as Bad\n"
        "def f(x: Mapping) -> 'Subspace':\n"
        "    '''Returns a GroupElement.'''\n"
        "    return os.path.join(x)\n"
        "class R(NamedTuple):\n"
        "    field: 'list[Subspace]'\n"
    )
    assert unused_imports(source) == ["line 5: GroupElement", "line 6: Bad"]
