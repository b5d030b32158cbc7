"""Source hygiene of the package, checked with `ast` alone: no module imports
a name it never uses, no private module-level function or class is left
without a reference anywhere in the package, and no public function, class or
method is left without a reference anywhere in the repository's code. Deleting
a caller must take its orphaned helpers and imports with it. A public name
that only tests reference is on an explicit keep-list with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fourphoton"
MODULES = sorted(SRC.glob("*.py"))
# the code that may use a public name of the package
CODE = [p for part in ("src", "tests", "demos", "perfbench")
        for p in sorted((ROOT / part).rglob("*.py"))]
# the public names that only tests reference, each kept for a reason; any
# other public name that only tests reference is dead code and goes
TEST_ONLY_KEEP = {
    "three_photon_ghz": "the paper's three-photon GHZ state (acceptance criterion 7)",
    "project_bell": "the abstract Bell projection, reference for the 45-degree coincidence",
    "correlation": "README's one-setting correlation E(a, b), reference for chsh_value",
    "mix": "README's convex mixture of pure states, the tests' density-matrix builder",
    "fidelity": "README's <target|rho|target>, reference for the swap fidelity",
}


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


def used_names(tree: ast.AST) -> Counter:
    """Every name a tree reads, with how often: bare names, attribute names,
    and the names inside string annotations such as "PureState"."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(used_names(ast.parse(node.value, mode="eval")))
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


def referenced_names(sources: list[str], reexports: str | None = None) -> Counter:
    """Names read or imported by name anywhere in `sources`, with how often.
    The imports of the `reexports` source are no use: exporting a name from
    the package does not use it."""
    names = Counter()
    for source in sources:
        tree = ast.parse(source)
        names.update(used_names(tree))
        if source != reexports:
            names.update(
                alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
            )
    return names


def public_definitions(source: str) -> list[tuple[str, ast.AST]]:
    """The public functions and classes at module level, and the public
    methods of those classes, as (qualified name, node). A method of a
    private class, such as an overridden library hook, is not public."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            out.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                out += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                        if isinstance(sub, defs) and not sub.name.startswith("_")]
    return out


def unreferenced_public(source: str, referenced: Counter) -> list[str]:
    """The public definitions of `source` that `referenced` names nowhere
    but inside the definition itself."""
    return [
        qualname
        for qualname, node in public_definitions(source)
        if referenced[node.name] <= used_names(node)[node.name]
    ]


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
        orphans = set(private_definitions(source)) - set(referenced_names([source]))
        assert orphans == {"_orphan", "_Orphan"}

    def test_unreferenced_public_definition_found(self):
        source = (
            "def used(): pass\n"
            "def unused(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Shape:\n"
            "    def area(self): return self.area()\n"
            "    def size(self): pass\n"
            "    def _hidden(self): pass\n"
            "class _Parser:\n"
            "    def error(self): pass\n"
        )
        caller = "from shapes import Shape, used\nused()\nShape().size()\n"
        reexport = "from .shapes import unused, recursive\n"
        referenced = referenced_names([source, caller, reexport], reexports=reexport)
        # a reference inside its own definition, or a re-export, is no use
        assert unreferenced_public(source, referenced) == ["unused", "recursive", "Shape.area"]
        referenced = referenced_names([source, caller, reexport])
        assert unreferenced_public(source, referenced) == ["Shape.area"]


def test_package_modules_found():
    assert {"elements.py", "experiment.py", "states.py", "swap.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("module", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_import(module):
    # __init__ imports to re-export: its imports are the public API
    assert unused_imports(module.read_text()) == []


def test_every_public_definition_is_referenced():
    sources = {p: p.read_text() for p in CODE}
    referenced = referenced_names(list(sources.values()), reexports=sources[SRC / "__init__.py"])
    unreferenced = [
        f"{p.name}:{name}"
        for p in MODULES
        for name in unreferenced_public(sources[p], referenced)
    ]
    assert unreferenced == []


def test_public_names_only_tests_reference_are_kept_on_purpose():
    sources = {p: p.read_text() for p in CODE}
    outside_tests = [s for p, s in sources.items() if ROOT / "tests" not in p.parents]
    referenced = referenced_names(outside_tests, reexports=sources[SRC / "__init__.py"])
    test_only = {
        name for p in MODULES for name in unreferenced_public(sources[p], referenced)
    }
    assert test_only == set(TEST_ONLY_KEEP)


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
