"""The package ships only what runs.

Every top-level function, class and method in src/dfcm_topics/ has a user
in the package or in perfbench/, every name a module imports is read by that
module, and every function that the traced benchmark wraps by name exists.
The checks read the source; none runs the benchmark.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dfcm_topics"
BENCH = ROOT / "perfbench"


def _trees(directory):
    paths = sorted(directory.glob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _definitions(tree):
    """(qualified name, name) of each top-level function and class, and of each method
    but the dunders, which Python calls by protocol."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name


def _uses(tree):
    """Names a module reads, the attributes it reads, the names it imports or
    exports, and identifier strings such as bench_trace's WRAPPED entries.
    Matching is by name, so a use of any definition of a name counts."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def test_every_package_definition_is_used_by_the_package_or_the_benchmark():
    package = _trees(PACKAGE)
    trees = [*package.values(), *_trees(BENCH).values()]
    used = {name for tree in trees for name in _uses(tree)}
    unused = [
        f"{path.stem}.{qualified}"
        for path, tree in package.items()
        for qualified, name in _definitions(tree)
        if name not in used
    ]
    assert not unused, f"defined in src/dfcm_topics/, used by neither it nor perfbench/: {unused}"


def _unused_imports(tree):
    """Names an import binds that the module never reads."""
    bound = [
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_every_package_import_is_used():
    # __init__.py imports to re-export, so its imports have no reader.
    unused = [
        f"{path.stem}.{name}"
        for path, tree in _trees(PACKAGE).items() if path.name != "__init__.py"
        for name in _unused_imports(tree)
    ]
    assert not unused, f"imported in src/dfcm_topics/ but never read: {unused}"


def test_unused_import_check_flags_only_unread_names():
    tree = ast.parse("import os\nimport a.b\nfrom c import d as e, f\nos.sep\na.b\nf()\n")
    assert _unused_imports(tree) == ["e"]


def test_every_function_the_traced_benchmark_wraps_exists():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH / "bench_trace.py")
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)  # its top-level imports are the standard library's
    missing = [
        f"dfcm_topics.{module}.{attr}"
        for module, attr, _ in bench_trace.WRAPPED
        if not callable(getattr(importlib.import_module(f"dfcm_topics.{module}"), attr, None))
    ]
    assert not missing, f"perfbench/bench_trace.py wraps names the package lacks: {missing}"
