"""Source hygiene of the package, checked with `ast` alone: no module imports
a name it never uses, no private module-level function or class is left
without a reference anywhere in the package, and no public function, class or
method is left without a reference anywhere in the repository's code. Deleting
a caller must take its orphaned helpers and imports with it. A public name
that only tests reference, and a defaulted parameter of a public function that
only tests pass, is on an explicit keep-list with its reason. No functools
memo of the package grows with calls: every `lru_cache` has an integer
`maxsize`, and `functools.cache` wraps only functions of no parameters. No
type test of an argument is written by hand: `states.check_type` alone holds
an `if not isinstance(...)` that raises. The classes that the swap chain's
memos key by identity define no value equality. Two rules import the package
rather than parse it: every module-level numpy array is read-only, as is every
array in a module-level mapping or tuple; and no module holds a random
generator, bit generator or seed sequence there, so that every stream is
local to the call that draws from it. A third reads the package after every
module is imported: its `__all__` lists, in order, the public names that
`__init__` binds, which the hostile-input table reads. One rule runs a fresh
interpreter: `import fourphoton` leaves `numpy.random` unimported, which would
add about 11 ms to every command-line run, `--help` included.
"""

import ast
import importlib
import math
import os
import subprocess
import sys
import types
from collections import Counter
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from numpy.random.bit_generator import ISeedSequence

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
    "mix": "README's way to wrap a pure state, `mix([(1.0, psi)], modes)`, for "
           "phi_plus_via_45_coincidence, which takes a density matrix only",
    "fidelity": "README's <target|rho|target> to any target; SwapResult gives the "
                "fidelity to phi+ only",
    "derive_point_seed": "numpy's own seeding of delay_scan's point i: the reference "
                         "that the scan's one-pass seeding is tested against",
}
# the defaulted parameters of public functions that only tests pass, each kept
# for a reason; any other such parameter is an option nothing uses and goes
TEST_ONLY_PARAMETERS = {
    "default_apparatus.pbs_error": "the one-call apparatus with an imperfect PBS; "
                                   "the CLI sets the rate through its config",
    "monte_carlo_counts.delay": "one table at a delay, the single point of delay_scan",
    "mix.mode_order": "the mode order of a mixture, as README's `mix([(1.0, psi)], modes)`",
    "bell_decompose.pair_a": "README's decomposition over `pair_a + pair_b`; the paper's is "
                             "(1,4) x (2,3), the default",
    "bell_decompose.pair_b": "the second pair of that decomposition",
    "phi_plus_via_45_coincidence.pair_modes": "the analyzed pair, by default the PBS outputs; "
                                              "README projects any two of four photons",
    "chsh_value.settings": "a CHSH value at any settings pair; the default is phi+'s optimum",
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


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """(qualified name, parameter, call position) of each parameter with a
    default of the public functions and methods of `source`. The position
    counts a method's arguments after `self`; a keyword-only parameter has
    none."""
    out = []
    for qualname, node in public_definitions(source):
        if isinstance(node, ast.ClassDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        skip = 1 if "." in qualname and not static else 0
        first = len(positional) - len(args.defaults)
        out += [(qualname, arg.arg, i - skip)
                for i, arg in enumerate(positional[first:], first)]
        out += [(qualname, arg.arg, None)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return out


def call_arguments(sources: list[str]) -> dict[str, list[tuple[float, set]]]:
    """Callee name -> (number of positional arguments, keyword names) of each
    call in `sources`. A `*args` passes every position, a `**kwargs` every
    keyword (the name None)."""
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append(
                (math.inf if starred else len(node.args), {k.arg for k in node.keywords}))
    return calls


def unpassed_parameters(source: str, calls: dict) -> list[str]:
    """The defaulted parameters of `source`, as "qualname.parameter", that no
    call in `calls` passes by keyword or by position."""
    return [
        f"{qualname}.{param}"
        for qualname, param, pos in defaulted_parameters(source)
        if not any(param in kws or None in kws or (pos is not None and n > pos)
                   for n, kws in calls.get(qualname.rsplit(".", 1)[-1], []))
    ]


def unbounded_caches(source: str) -> list[int]:
    """The lines of `source` where a functools memo could grow with calls: an
    `lru_cache` without an integer literal `maxsize` (bare, None or any other
    expression), and a `cache` that wraps anything but a function of no
    parameters defined in `source`."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functools"
                for alias in node.names}
    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    decorated = {id(d): f for f in functions.values() for d in f.decorator_list}
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
            name = node.attr
        elif isinstance(node, ast.Name):
            name = imported.get(node.id)
        else:
            continue
        call = calls.get(id(node))
        if name == "lru_cache":
            size = None
            if call is not None:
                size = call.args[0] if call.args else next(
                    (k.value for k in call.keywords if k.arg == "maxsize"), None)
            if not (isinstance(size, ast.Constant) and type(size.value) is int):
                lines.append(node.lineno)
        elif name == "cache":
            if call is None:
                wrapped = decorated.get(id(node))
            else:
                arg = call.args[0] if len(call.args) == 1 else None
                wrapped = functions.get(arg.id) if isinstance(arg, ast.Name) else None
            params = wrapped and wrapped.args
            if wrapped is None or (params.posonlyargs or params.args or params.vararg
                                   or params.kwonlyargs or params.kwarg):
                lines.append(node.lineno)
    return sorted(lines)


def isinstance_rejections(source: str) -> list[int]:
    """The lines of `source` where an `if not isinstance(...)`, alone or as the
    last operand of an `and` (a mapping test's plain-dict fast path), guards a
    `raise` outside a function named `check_type`: a hand-written type check."""
    tree = ast.parse(source)
    allowed = {id(node) for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef) and f.name == "check_type"
               for node in ast.walk(f)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.If) or id(node) in allowed:
            continue
        test = node.test
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            test = test.values[-1]
        negated = test.operand if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not) \
            else None
        if (isinstance(negated, ast.Call) and getattr(negated.func, "id", None) == "isinstance"
                and any(isinstance(stmt, ast.Raise) for stmt in node.body)):
            lines.append(node.lineno)
    return sorted(lines)


# the classes that a memo keys by identity: a value `__eq__` or `__hash__`
# would make two equal objects share an entry, and cost a comparison per lookup
IDENTITY_KEYED = ("PureState", "DensityMatrix")


def value_equality(source: str) -> dict[str, list[str]]:
    """Per `IDENTITY_KEYED` class defined in `source`: each base it names, and
    each `__eq__` or `__hash__` it defines or assigns, none of which it may have."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name in IDENTITY_KEYED:
            defined = []
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    defined.append(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    defined += [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            found[node.name] = [ast.unparse(base) for base in node.bases] + [
                name for name in defined if name in ("__eq__", "__hash__")]
    return found


def module_values(namespace: Mapping) -> list[tuple[str, object]]:
    """The values of `namespace`, a module's globals, and of the mappings and
    tuples it holds, each with its label: `name`, `name[key]` or `name[index]`."""
    found = []
    for name, value in namespace.items():
        if isinstance(value, Mapping):
            found += [(f"{name}[{key!r}]", v) for key, v in value.items()]
        elif isinstance(value, tuple):
            found += [(f"{name}[{i}]", v) for i, v in enumerate(value)]
        else:
            found.append((name, value))
    return found


def writable_arrays(namespace: Mapping) -> list[str]:
    """The writable numpy arrays among `module_values(namespace)`."""
    return [label for label, v in module_values(namespace)
            if isinstance(v, np.ndarray) and v.flags.writeable]


# what holds a random stream or the seed of one
STREAM_TYPES = (np.random.Generator, np.random.BitGenerator, np.random.RandomState,
                ISeedSequence)


def module_streams(namespace: Mapping) -> list[str]:
    """The random generators, bit generators and seed sequences among
    `module_values(namespace)`."""
    return [label for label, v in module_values(namespace) if isinstance(v, STREAM_TYPES)]


def modules_after(statements: str, names: list[str]) -> list[str]:
    """Those of the module `names` that `sys.modules` holds once a fresh interpreter,
    with the package's source first on its path, has run `statements`."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    code = f"import sys\n{statements}\nprint(*[n for n in {names!r} if n in sys.modules])"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    return run.stdout.split()


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


    def test_test_only_parameter_found(self):
        source = (
            "def draw(n, seed=0, scale=1.0, *, fast=False, trace=None): pass\n"
            "def _private(x=1): pass\n"
            "class Box:\n"
            "    def size(self, unit='m'): pass\n"
            "    @staticmethod\n"
            "    def make(kind='a'): pass\n"
        )
        caller = "draw(3, 1)\ndraw(4, trace=True)\nBox().size('cm')\n"
        assert unpassed_parameters(source, call_arguments([caller])) == [
            "draw.scale", "draw.fast", "Box.make.kind"]
        # a *args passes every position, a **kwargs every keyword
        caller += "draw(*xs)\nBox.make(**kw)\n"
        assert unpassed_parameters(source, call_arguments([caller])) == ["draw.fast"]


    def test_unbounded_cache_found(self):
        source = (
            "import functools\n"
            "from functools import cache, lru_cache as memo\n"
            "@memo(maxsize=16)\ndef a(x): pass\n"                     # 3: bounded
            "@functools.lru_cache(32)\ndef b(x): pass\n"              # 5: bounded
            "@memo\ndef c(x): pass\n"                                 # 7: bare
            "@functools.lru_cache(maxsize=None)\ndef d(x): pass\n"   # 9: unbounded
            "@memo(maxsize=N)\ndef e(x): pass\n"                      # 11: not a literal
            "@memo(maxsize=True)\ndef f(x): pass\n"                   # 13: a bool
            "@cache\ndef g(): pass\n"                                 # 15: no parameters
            "@functools.cache\ndef h(x): pass\n"                      # 17: a parameter
            "i = functools.cache(g)\n"                                # 19: no parameters
            "j = cache(h)\n"                                          # 20: a parameter
            "k = cache(lambda: 0)\n"                                  # 21: no function here
            "class Box:\n    @cache\n    def size(self): pass\n"     # 23: self
        )
        assert unbounded_caches(source) == [7, 9, 11, 13, 17, 20, 21, 23]

    def test_value_equality_found(self):
        source = (
            "class PureState(Base):\n    __hash__ = None\n"
            "class DensityMatrix:\n    __slots__ = ()\n    def __eq__(self, other): pass\n"
            "class Other:\n    def __eq__(self, other): pass\n"
        )
        assert value_equality(source) == {"PureState": ["Base", "__hash__"],
                                          "DensityMatrix": ["__eq__"]}

    def test_writable_module_array_found(self):
        frozen = np.zeros(2)
        frozen.setflags(write=False)
        namespace = {"A": np.zeros(2), "B": frozen, "C": 1.0,
                     "D": {"k": np.zeros(2), "f": frozen}, "T": (frozen, np.ones(1))}
        assert writable_arrays(namespace) == ["A", "D['k']", "T[1]"]

    def test_module_stream_found(self):
        namespace = {"G": np.random.default_rng(0), "B": np.random.PCG64(0),
                     "S": np.random.SeedSequence(0), "K": np.random.Generator, "N": 1,
                     "D": {"k": np.random.SeedSequence(1), "f": 1.0},
                     "T": (0, np.random.RandomState(0))}
        assert module_streams(namespace) == ["G", "B", "S", "D['k']", "T[1]"]

    def test_start_up_import_found(self):
        planted = "import fourphoton\nimport numpy.random"
        assert modules_after(planted, ["numpy", "numpy.random", "scipy"]) == [
            "numpy", "numpy.random"]

    def test_isinstance_rejection_found(self):
        source = (
            "def check_type(value, kind, message):\n"
            "    if not isinstance(value, kind):\n"                         # 2: the one reader
            "        raise StateError(message)\n"
            "def f(x, m, a, b):\n"
            "    if not isinstance(x, int):\n"                              # 5: by hand
            "        raise StateError('x')\n"
            "    if type(m) is not dict and not isinstance(m, Mapping):\n"  # 7: a mapping test
            "        raise StateError('m')\n"
            "    if not isinstance(x, str):\n"                              # 9: no raise
            "        x = str(x)\n"
            "    if not (isinstance(a, P) and isinstance(b, P)):\n"         # 11: a joint test
            "        raise StateError('a, b')\n"
            "    if isinstance(x, bool) or not isinstance(x, int):\n"       # 13: a value rule
            "        raise StateError('x')\n"
        )
        assert isinstance_rejections(source) == [5, 7]


def test_package_modules_found():
    assert {"elements.py", "experiment.py", "states.py", "swap.py"} <= {p.name for p in MODULES}


def test_all_lists_the_public_names_in_binding_order():
    # a full import: each module's import binds only the module itself on the package
    for module in MODULES:
        importlib.import_module("fourphoton" if module.stem == "__init__"
                                else f"fourphoton.{module.stem}")
    package = importlib.import_module("fourphoton")
    bound = [name for name, value in vars(package).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert package.__all__ == bound


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


def test_parameters_only_tests_pass_are_kept_on_purpose():
    outside_tests = [p.read_text() for p in CODE if ROOT / "tests" not in p.parents]
    calls = call_arguments(outside_tests)
    test_only = {name for p in MODULES for name in unpassed_parameters(p.read_text(), calls)}
    assert test_only == set(TEST_ONLY_PARAMETERS)


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_memo_is_bounded(module):
    # a memo that grows with calls grows without bound under the fuzzers
    assert unbounded_caches(module.read_text()) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_only_check_type_rejects_a_type(module):
    assert isinstance_rejections(module.read_text()) == []


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


def test_identity_keyed_classes_have_no_value_equality():
    found = value_equality((SRC / "states.py").read_text())
    assert found == {name: [] for name in IDENTITY_KEYED}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_arrays_are_read_only(module):
    # a module array is shared by every call: one caller's write would reach them all
    name = "fourphoton" if module.stem == "__init__" else f"fourphoton.{module.stem}"
    assert writable_arrays(vars(importlib.import_module(name))) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_module_level_stream(module):
    # a module stream would carry one call's draws into the next: every stream
    # is made by the call that draws from it
    name = "fourphoton" if module.stem == "__init__" else f"fourphoton.{module.stem}"
    assert module_streams(vars(importlib.import_module(name))) == []


def test_import_leaves_numpy_random_out():
    # the scan draws from `np.random` generators, made inside the calls that draw
    assert modules_after("import fourphoton", ["fourphoton", "numpy.random"]) == ["fourphoton"]
