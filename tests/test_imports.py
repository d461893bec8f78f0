"""Every import in `src/gradedlts/*.py` is used, and every public name has a
caller outside the tests.

The checks read syntax trees with the stdlib `ast`.  A name that an import
binds must be read somewhere in the module: in code or in an annotation,
quoted annotations included.  A mention in a comment or a docstring does
not count.  `from __future__` imports are compiler directives and bind
nothing.

Each name in `gradedlts.__all__` must be read in the package (outside the
statement that defines it, and outside `__init__.py`), in `demos/` or in
`perfbench/` (its tests aside).  There a read is a name, an attribute, an
imported name or a string constant, whole or one of its dotted parts: the
benchmark's probe wraps functions that it names in strings.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import gradedlts

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gradedlts"


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


def reads(tree: ast.AST) -> set[str]:
    """Names, attributes, imported names and string constants (whole and dotted parts) in `tree`."""
    found = used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update({node.value, *node.value.split(".")})
    return found


def defined_names(statement: ast.stmt) -> set[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    # an assignment defines the names it stores to
    targets = getattr(statement, "targets", [getattr(statement, "target", None)])
    return {
        node.id
        for target in targets
        if target is not None
        for node in ast.walk(target)
        if isinstance(node, ast.Name)
    }


def reads_outside_definitions(source: str) -> set[str]:
    """What a module reads: each top-level statement's reads less the names it defines."""
    found = set()
    for statement in ast.parse(source).body:
        found |= reads(statement) - defined_names(statement)
    return found


def uncalled(names, sources) -> list[str]:
    called = set().union(*map(reads_outside_definitions, sources))
    return sorted(set(names) - called)


def test_every_public_name_has_a_caller_outside_the_tests():
    package = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    scripts = [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    paths = package + [path for path in scripts if not path.name.startswith("test_")]
    sources = [path.read_text(encoding="utf-8") for path in paths]
    assert uncalled(gradedlts.__all__, sources) == []


def test_the_caller_check_counts_reads_but_not_definitions():
    package = (
        "BUILT = (1, 2)\n"
        "def planted(n):\n"
        "    '''planted calls itself; BUILT names the fixtures.'''\n"
        "    return planted(n - 1) if n else BUILT\n"
        "class Shape:\n"
        "    def copy(self) -> 'Shape':\n"
        "        return Shape()\n"
        "def helper():\n"
        "    return 'wrapped'\n"
    )
    script = (
        "import gradedlts.imported_module\n"
        "from gradedlts import by_import\n"
        "x = gradedlts.by_attribute\n"
        "wrap('by_string.method')\n"
        "# in_comment\n"
    )
    names = [
        "planted", "Shape", "BUILT", "helper", "wrapped", "imported_module",
        "by_import", "by_attribute", "by_string", "in_comment",
    ]
    assert uncalled(names, [package, script]) == ["Shape", "helper", "in_comment", "planted"]
