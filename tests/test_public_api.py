import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import reservematch

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(reservematch.__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in reservematch.__all__ if not hasattr(reservematch, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(set(reservematch.__all__)) == len(reservematch.__all__)


def test_every_exception_of_an_imported_module_is_exported():
    # callers catch what the exported functions raise by the name the
    # package root gives it
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    modules = [node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    errors = set()
    for module in map(importlib.import_module, (f"reservematch.{name}" for name in modules)):
        errors.update(
            name for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__
        )
    assert {"InstanceFormatError", "OutcomeError", "SettingsError"} <= errors
    assert sorted(errors - set(reservematch.__all__)) == []


def benchmark_reads() -> list[tuple[str, str, str, bool]]:
    """What the benchmark under perfbench/ reads of the package, as
    (file, module, name, imported): every name of a ``from
    reservematch[.module] import ...`` (imported), and every attribute
    taken of a package module imported by name, such as ``experiment``
    after ``from reservematch import experiment``."""
    reads = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> dotted module
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.partition(".")[0] == "reservematch":
                        modules[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "reservematch":
                for alias in node.names:
                    reads.append((path.name, node.module, alias.name, True))
                    if node.module == "reservematch" and (PACKAGE / f"{alias.name}.py").is_file():
                        modules[alias.asname or alias.name] = f"reservematch.{alias.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                reads.append((path.name, modules[node.value.id], node.attr, False))
    return reads


def test_benchmark_reads_only_names_that_resolve():
    reads = benchmark_reads()
    missing = [read for read in reads if not hasattr(importlib.import_module(read[1]), read[2])]
    assert reads and missing == []


def test_benchmark_names_are_exported():
    names = {name for _, module, name, imported in benchmark_reads() if imported and module == "reservematch"}
    names -= {p.stem for p in PACKAGE.glob("*.py")}
    assert names and names <= set(reservematch.__all__)


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


def attribute_reads(path: Path) -> set[str]:
    """Attributes a module takes (``x.name``); bare names do not count."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.Attribute)}


def test_every_public_method_has_a_caller():
    # a method that only its own module or the tests call is dead weight in
    # the library; a bare name, such as a local variable, calls nothing
    modules = sorted(PACKAGE.glob("*.py"))
    benchmark = set().union(*map(attribute_reads, (ROOT / "perfbench").glob("*.py")))
    uncalled = []
    for path in modules:
        callers = benchmark.union(*(attribute_reads(other) for other in modules if other != path))
        uncalled += [f"{path.stem}.{name}" for name in sorted(public_methods(path) - callers)]
    assert uncalled == []


def test_readme_library_use_prints_what_its_comments_say():
    # the block runs as written, and a print whose comment is a value
    # prints that value
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    comments = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments) == 3
    assert printed[:2] == comments[:2] == ["(1, 3, 4)", "RankSignature(rank1=2, rank2=1, rank3=0)"]
