"""Package-wide invariants: exact arithmetic, a light import and no
runtime dependencies.

The package computes with ``int`` and ``Fraction`` only, so its source
holds no float literal, names ``float`` only in ``isinstance`` tests
(the JSON reader uses them to reject floats) and takes nothing from
``math`` but ``gcd`` and ``lcm``.  It imports none of ``dataclasses``,
``typing`` and ``inspect``, which would add tens of milliseconds to
every CLI process.  ``pyproject.toml`` declares no dependencies, and
every name in ``troplag.__all__`` is listed once and exists.  Every
private definition is used, and every public one that only the tests
reach is listed with its reason in ``TEST_ONLY_PUBLIC``.  The
benchmark's layer table (``perfbench/measure.py``, read, not imported)
names package functions, but for two known gaps.
"""

import ast
import importlib
import pathlib
import re
import subprocess
import sys

import pytest

import troplag

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "troplag").glob("*.py"))
MATH_ALLOWED = {"gcd", "lcm"}
HEAVY = {"dataclasses", "typing", "inspect"}
# what `import troplag.cli` must not load, directly or through the stdlib
NOT_LOADED = HEAVY | {"ast", "dis"}


def _isinstance_types(tree):
    """The nodes that are the type argument of an isinstance call."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and len(node.args) == 2 and \
                isinstance(node.func, ast.Name) and \
                node.func.id == "isinstance":
            arg = node.args[1]
            out |= {id(n) for n in getattr(arg, "elts", [arg])}
    return out


def banned_uses(tree):
    """(line, what) in line order for each float literal, each float name
    outside an isinstance test, each math import outside MATH_ALLOWED
    and each import of a HEAVY module in a parsed module."""
    tests = _isinstance_types(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and \
                isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float" and \
                id(node) not in tests:
            found.append((node.lineno, "name float"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name.split(".")[0] in HEAVY | {"math"}]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            top = node.module.split(".")[0]
            found += [(node.lineno, f"from {node.module} import {a.name}")
                      for a in node.names
                      if top in HEAVY or
                      (top == "math" and a.name not in MATH_ALLOWED)]
    return sorted(found)


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"lattice.py", "domain.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats(path):
    assert banned_uses(ast.parse(path.read_text(), str(path))) == []


def test_checker_catches_floats():
    src = ("import math\nfrom math import gcd, sqrt\nx = 0.5\n"
           "y = float(1)\nz = 2j\nok = isinstance(x, (int, float))\n"
           "bad = isinstance(float(x), int)\n"
           "from dataclasses import dataclass\nimport typing as t\n"
           "import os, inspect\nfrom typing import Any\n"
           "from . import typing\nfrom .dataclasses import x\n")
    assert [line for line, _ in banned_uses(ast.parse(src))] == \
        [1, 2, 3, 4, 5, 7, 8, 9, 10, 11]


def test_cli_import_loads_no_heavy_module():
    """Counts modules, times nothing: under -I -S no site or environment
    adds modules of its own."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import troplag.cli; "
            "print(' '.join(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code,
                          str(ROOT / "src")], capture_output=True, text=True,
                         check=True).stdout.split()
    assert "troplag.cli" in out
    assert NOT_LOADED.isdisjoint(out), sorted(NOT_LOADED.intersection(out))


def test_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


def test_public_names_resolve_once():
    names = troplag.__all__
    assert sorted(set(names)) == sorted(names)
    assert [n for n in names if not hasattr(troplag, n)] == []


def _unreferenced(modules, wanted):
    """(module, name) for each module-level function or class of the
    parsed modules {module: tree} whose name passes `wanted` and that no
    module references (as a name, an attribute or an imported name)
    outside its own definition."""
    refs = []           # (module, line, name)
    for mod, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((mod, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((mod, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                refs += [(mod, node.lineno, a.name) for a in node.names]
    unused = []
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    wanted(node.name):
                own = range(node.lineno, node.end_lineno + 1)
                if not any(name == node.name and
                           (m != mod or line not in own)
                           for m, line, name in refs):
                    unused.append((mod, node.name))
    return sorted(unused)


def unused_private(modules):
    """The module-level _private functions and classes that nothing
    references (`_unreferenced`)."""
    return _unreferenced(modules, lambda name: name.startswith("_") and
                         not name.startswith("__"))


def unused_public(modules):
    """The module-level public functions and classes that no module but
    `__init__` references (`_unreferenced`): what only the exports and
    the tests reach."""
    return _unreferenced({m: t for m, t in modules.items()
                          if m != "__init__"},
                         lambda name: not name.startswith("_"))


def test_every_private_definition_is_used():
    modules = {p.stem: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    assert unused_private(modules) == []


def test_checker_catches_unused_private_definitions():
    a = ("def _used(): return 1\n"
         "def _self_only(n):\n    return _self_only(n - 1)\n"
         "class _Orphan:\n    pass\n"
         "def __dunder__(): pass\n"
         "def _by_attribute(): pass\n"
         "def public(): return _used()\n")
    b = ("from a import _imported_only\nimport a\nx = a._by_attribute\n")
    a += "def _imported_only(): pass\n"
    modules = {"a": ast.parse(a), "b": ast.parse(b)}
    assert unused_private(modules) == [("a", "_Orphan"), ("a", "_self_only")]


# Each public function or class that only the tests and `__init__`
# reach, with the reason it stays in the package.
TEST_ONLY_PUBLIC = {
    ("curve", "regularity_check"):
        "ROADMAP item 13: the precondition of H1 beyond trees",
    ("curve", "combinatorial_type"):
        "ROADMAP item 12: the dedupe key of the Lagrangian atlas",
    ("multiplicity", "splitting_check"):
        "ROADMAP item 8: a cross-check for the checks ledger; acceptance "
        "c11 runs it on every bounded edge of its corpus",
    ("lattice", "lattice_index"):
        "ROADMAP item 3: the product that the H1 group's divisors feed",
    ("curve", "trivalent_trees"):
        "the benchmark wraps it: removing it would grow the unresolved "
        "set of test_benchmark_layers_resolve; ROADMAP item 1 decides",
    ("topology", "self_intersections"):
        "the benchmark wraps it: removing it would grow the unresolved "
        "set of test_benchmark_layers_resolve; ROADMAP item 1 decides",
    ("curve", "extend_curve"): "a public operation of the paper, tested",
    ("domain", "classify_boundary_point"):
        "a public operation of the paper, tested",
    ("domain", "corner_basis"): "a public operation of the paper, tested",
    ("io_json", "domain_to_dict"): "the writer of the domain input format",
    ("io_json", "lines_to_dict"): "the writer of the lines input format",
}


def test_every_public_definition_is_used_or_allowed():
    """A public function that only tests reach is either put to work,
    moved into the test oracles, or listed in TEST_ONLY_PUBLIC with its
    reason; a stale entry fails too."""
    modules = {p.stem: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    assert unused_public(modules) == sorted(TEST_ONLY_PUBLIC)
    assert all(TEST_ONLY_PUBLIC.values())


def test_checker_catches_unused_public_definitions():
    a = ("def used(): return 1\n"
         "def self_only(n):\n    return self_only(n - 1)\n"
         "class Exported:\n    pass\n"
         "def _private(): pass\n"
         "def by_attribute(): pass\n"
         "def imported_only(): pass\n")
    b = ("from a import imported_only\nimport a\nx = a.by_attribute\n"
         "y = used()\n")
    init = "from .a import Exported, self_only\n__all__ = ['Exported']\n"
    modules = {"a": ast.parse(a), "b": ast.parse(b),
               "__init__": ast.parse(init)}
    assert unused_public(modules) == [("a", "Exported"), ("a", "self_only")]


def benchmark_layers():
    """The (module, attribute, layer) triples of the benchmark's LAYERS
    table, read from perfbench/measure.py without importing it."""
    path = ROOT / "perfbench" / "measure.py"
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "LAYERS"
                    for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/measure.py defines no LAYERS")


def test_benchmark_layers_resolve():
    """Every layer the benchmark wraps names a function or method of the
    package, except two that are gone from it and that ROADMAP item 1
    drops from the table: a rename or removal that would leave another
    measured layer reading zero fails here."""
    missing = []
    for mod, attr, layer in benchmark_layers():
        obj = importlib.import_module(f"troplag.{mod}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(layer)
    assert sorted(missing) == ["curve.internal_directions_from_leaves",
                               "lattice.solve_exact"]
