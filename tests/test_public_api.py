import ast
from pathlib import Path

import reservematch

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(reservematch.__file__).parent

# Names the benchmark under perfbench/ imports from the package root.
BENCHMARK_NAMES = (
    "ALGORITHMS",
    "SatGenConfig",
    "evaluate",
    "gen_instance",
    "RankMaximalMatcher",
    "build_graph",
    "Matching",
    "Seat",
)


def test_every_exported_name_resolves():
    missing = [name for name in reservematch.__all__ if not hasattr(reservematch, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(set(reservematch.__all__)) == len(reservematch.__all__)


def test_benchmark_names_are_exported():
    assert set(BENCHMARK_NAMES) <= set(reservematch.__all__)


def used_names(path: Path) -> set[str]:
    """Names a module reads, attributes it takes and names it imports;
    docstrings and comments do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def caller_names() -> set[str]:
    """Names used by the package's modules and the benchmark; the package's
    own re-exports are not callers."""
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    modules += (ROOT / "perfbench").glob("*.py")
    return set().union(*map(used_names, modules))


def test_every_exported_name_has_a_caller():
    assert sorted(set(reservematch.__all__) - caller_names()) == []


def public_methods(path: Path) -> set[str]:
    """Public methods and properties defined in the classes of a module."""
    return {
        item.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }


def test_every_public_method_has_a_caller():
    # a method only tests call is dead weight in the library
    methods = set().union(*map(public_methods, PACKAGE.glob("*.py")))
    assert sorted(methods - caller_names()) == []
