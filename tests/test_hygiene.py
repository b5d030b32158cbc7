"""Source hygiene of the package, checked with `ast` alone: no module imports
a name it never uses, and no private module-level function or class is left
without a reference anywhere in the package. Deleting a caller must take its
orphaned helpers and imports with it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fourphoton"
MODULES = sorted(SRC.glob("*.py"))


def annotations(tree: ast.AST) -> list[ast.expr]:
    """The annotation expressions of a tree's arguments, returns and
    annotated assignments."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            out.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            out.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            out.append(node.annotation)
    return out


def used_names(tree: ast.AST) -> set[str]:
    """Every name a tree reads: bare names, attribute names, and the names
    inside string annotations such as "PureState"."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= used_names(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    """Names a module binds by import and never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    used = used_names(tree)
    return [name for name in bound if name not in used]


def private_definitions(source: str) -> list[str]:
    """Names of the private functions and classes defined at module level."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def referenced_names(sources: list[str]) -> set[str]:
    """Names read or imported by name anywhere in `sources`."""
    names = set()
    for source in sources:
        tree = ast.parse(source)
        names |= used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
    return names


class TestRules:
    """The rules themselves catch what they are for."""

    def test_unused_import_found(self):
        source = (
            "from __future__ import annotations\n"
            "import math\nimport numpy as np\nfrom typing import Sequence\n"
            "from .states import H, kron, mix\n"
            "def f(x: Sequence[int], y: 'np.ndarray') -> float:\n"
            "    return math.pi * kron(x, y) * len('H')\n"
        )
        # a string that is no annotation does not use a name
        assert unused_imports(source) == ["H", "mix"]

    def test_orphaned_private_helper_found(self):
        source = (
            "def _used(): pass\n"
            "def _orphan(): pass\n"
            "class _Orphan: pass\n"
            "def __getattr__(name): pass\n"
            "def public(): return _used()\n"
        )
        assert private_definitions(source) == ["_used", "_orphan", "_Orphan"]
        orphans = set(private_definitions(source)) - referenced_names([source])
        assert orphans == {"_orphan", "_Orphan"}


def test_package_modules_found():
    assert {"elements.py", "experiment.py", "states.py", "swap.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("module", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_import(module):
    # __init__ imports to re-export: its imports are the public API
    assert unused_imports(module.read_text()) == []


def test_no_orphaned_private_definition():
    sources = [p.read_text() for p in MODULES]
    referenced = referenced_names(sources)
    orphans = [
        f"{p.name}:{name}"
        for p, source in zip(MODULES, sources)
        for name in private_definitions(source)
        if name not in referenced
    ]
    assert orphans == []
