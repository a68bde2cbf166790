"""Every name a module imports is read somewhere in that module, every
local a package function assigns is read somewhere in that function, the
engine modules build no comprehension inside a loop and gather no
sequence through a bound ``__getitem__``, and no package module but
``graph.py`` takes a matching's ``.pairs``.

A standard-library ``ast`` scan, so the suite needs no linter.  Names listed
in a module's ``__all__`` count as read (the package root re-exports), and
``from __future__`` imports are skipped.  Locals whose names start with
``_`` are exempt, and a nested function's reads count for its outer one.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "reservematch").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
LOOPS = (ast.For, ast.AsyncFor, ast.While)
# the modules every pool runs through, per augmenting path, student and class
POOL_PATH = [ROOT / "src" / "reservematch" / name for name in ("datagen.py", "solver.py", "algorithms.py", "graph.py", "metrics.py", "model.py")]


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}  # bound name -> line
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_scan_flags_an_unused_import_only():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads as parse\n"
        "from .graph import Seat\n"
        "__all__ = ['Seat']\n"
        "def f(x: np.ndarray) -> str:\n"
        "    return dumps(os.path.sep)\n"
    )
    assert unused_imports(source) == ["line 4: parse"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_locals(source: str) -> list[str]:
    """Names the functions of ``source`` assign but never read."""
    tree = ast.parse(source)
    functions = [node for node in ast.walk(tree) if isinstance(node, FUNCTIONS)]
    nested = {id(inner) for f in functions for inner in ast.walk(f) if inner is not f and isinstance(inner, FUNCTIONS)}
    found = []
    for f in functions:
        if id(f) in nested:
            continue
        stored: dict[str, int] = {}  # assigned name -> first line
        read: set[str] = set()
        for node in ast.walk(f):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    read.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        found += [f"line {line}: {name}" for name, line in stored.items() if name not in read and name[0] != "_"]
    return found


def test_scan_flags_an_unread_local_only():
    source = (
        "LIMIT = 3\n"
        "def f(xs):\n"
        "    total, _skipped = 0, 0\n"
        "    spare = len(xs)\n"
        "    for i, x in enumerate(xs):\n"
        "        total += x * i\n"
        "    def g():\n"
        "        return total\n"
        "    return g\n"
    )
    assert unused_locals(source) == ["line 4: spare"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_function_reads_every_local(path):
    assert unused_locals(path.read_text(encoding="utf-8")) == []


def looped_comprehensions(source: str) -> list[str]:
    """Comprehensions and generator expressions of ``source`` that run once
    per pass of a loop: in the body or condition of a ``for`` or ``while``,
    or in the part of another comprehension that runs per element (all but
    its first iterable).

    On CPython 3.10 and 3.11 each of them is a call of a nested function,
    with a frame of its own, every time it is evaluated; only 3.12 inlines
    list, set and dict comprehensions (PEP 709), and never generator
    expressions.  Inside the engine's loops that cost is paid per augmenting
    path, student or class, so there a plain loop, a slice or a C-level call
    such as ``map`` or ``filter`` does the work.  A function defined inside a
    loop starts afresh: its body runs when it is called.
    """
    found: list[str] = []

    def visit(node: ast.AST, looped: bool) -> None:
        if isinstance(node, COMPREHENSIONS):
            if looped:
                found.append(f"line {node.lineno}")
            first = node.generators[0].iter
            visit(first, looped)
            for child in ast.iter_child_nodes(node):
                if child is not node.generators[0]:
                    visit(child, True)
            for child in ast.iter_child_nodes(node.generators[0]):
                if child is not first:
                    visit(child, True)
            return
        if isinstance(node, (*FUNCTIONS, ast.Lambda)):
            looped = False
        for field, value in ast.iter_fields(node):
            inner = looped or (isinstance(node, LOOPS) and field in ("body", "test"))
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, inner)

    visit(ast.parse(source), False)
    return found


def test_scan_flags_a_looped_comprehension_only():
    source = (
        "top = [x for x in range(3)]\n"
        "for row in [r for r in top]:\n"
        "    total = sum(v for v in row)\n"
        "else:\n"
        "    done = {k: 0 for k in top}\n"
        "while any(x for x in top):\n"
        "    top.pop()\n"
        "grid = [[c for c in row] for row in (r for r in top)]\n"
        "def f(rows):\n"
        "    for r in rows:\n"
        "        def g():\n"
        "            return [x for x in r]\n"
        "    return g\n"
    )
    assert looped_comprehensions(source) == ["line 3", "line 6", "line 8"]


@pytest.mark.parametrize("path", POOL_PATH, ids=lambda p: p.name)
def test_pool_path_builds_no_comprehension_in_a_loop(path):
    assert looped_comprehensions(path.read_text(encoding="utf-8")) == []


def getitem_gathers(source: str) -> list[str]:
    """Calls ``tuple(map(X.__getitem__, ...))`` and ``list(map(X.__getitem__,
    ...))`` in ``source``.

    Mapping a bound ``__getitem__`` over the indices makes one method-wrapper
    call per element, where :func:`reservematch.model.gather` takes them
    all in one C call of ``operator.itemgetter``: for 400 indices into a
    tuple, 25.9 against 6.4 microseconds on CPython 3.11 and a 2-core Xeon.
    A ``__getitem__`` bound to a name first is not followed.
    """
    found: list[str] = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("tuple", "list")
            and len(node.args) == 1
            and isinstance(inner := node.args[0], ast.Call)
            and isinstance(inner.func, ast.Name)
            and inner.func.id == "map"
            and inner.args
            and isinstance(inner.args[0], ast.Attribute)
            and inner.args[0].attr == "__getitem__"
        ):
            found.append(f"line {node.lineno}")
    return found


def test_scan_flags_a_getitem_gather_only():
    source = (
        "ids = tuple(map(order.__getitem__, positions))\n"
        "rows = {k: list(map(row.__getitem__, sorted(row))) for k, row in taken.items()}\n"
        "ok = all(map(res.__getitem__, cycle))\n"
        "kept = list(filter(pinned.__getitem__, members))\n"
        "at = order.__getitem__\n"
        "named = list(map(at, positions))\n"
        "names = tuple(map(str, positions))\n"
    )
    assert getitem_gathers(source) == ["line 1", "line 2"]


@pytest.mark.parametrize("path", POOL_PATH, ids=lambda p: p.name)
def test_pool_path_gathers_in_one_call(path):
    assert getitem_gathers(path.read_text(encoding="utf-8")) == []


def pairs_reads(source: str) -> list[str]:
    """Attributes ``.pairs`` that ``source`` takes, read or stored.

    Seat rows are the one seating form the library reads; a matching's
    ``(student, Seat)`` pairs exist only in :mod:`reservematch.graph`,
    which derives them for callers that compare matchings or check seats.
    An attribute named by a string, as in ``getattr(m, "pairs")``, is not
    followed.
    """
    lines = sorted(
        node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute) and node.attr == "pairs"
    )
    return [f"line {line}" for line in lines]


def test_scan_flags_a_pairs_attribute_only():
    source = (
        "pairs = sorted(rows)\n"
        "n = len(outcome.matching.pairs)\n"
        "for sid, seat in m.pairs:\n"
        "    seen[sid] = pairs\n"
        "rows = m.rows\n"
        "kept = getattr(m, 'pairs')\n"
    )
    assert pairs_reads(source) == ["line 2", "line 3"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "graph.py"], ids=lambda p: p.name)
def test_package_reads_seat_rows_not_pairs(path):
    assert pairs_reads(path.read_text(encoding="utf-8")) == []
