"""The package ships only what runs.

Every top-level function, class and method in src/dfcm_topics/ has a user
in the package or in perfbench/, every name a module imports is read by that
module, every function that the traced benchmark wraps by name exists, and
the attributes its spans read are there. Only the last check runs the CLI,
under the benchmark's wrappers, on a small planted corpus.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

from conftest import planted_corpus, write_planted_embeddings

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


def _bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH / "bench_trace.py")
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)  # its top-level imports are the standard library's
    return bench_trace


def test_every_function_the_traced_benchmark_wraps_exists():
    missing = [
        f"dfcm_topics.{module}.{attr}"
        for module, attr, _ in _bench_trace().WRAPPED
        if not callable(getattr(importlib.import_module(f"dfcm_topics.{module}"), attr, None))
    ]
    assert not missing, f"perfbench/bench_trace.py wraps names the package lacks: {missing}"


def test_every_attribute_the_traced_benchmark_reads_exists(tmp_path, monkeypatch):
    """vectorize and a compare over both methods under the benchmark's wrappers: a span's
    attrs read its call's arguments and result, and a missing attribute raises."""
    bench_trace = _bench_trace()
    wrapped = bench_trace.WRAPPED
    modules = {mod: importlib.import_module(f"dfcm_topics.{mod}") for mod, _, _ in wrapped}
    for mod, attr, _ in wrapped:  # each original is put back at teardown
        monkeypatch.setattr(modules[mod], attr, getattr(modules[mod], attr))
    tracer = bench_trace.Tracer()
    for mod, attr, name in wrapped:
        tracer.wrap(modules[mod], attr, name)
    sets, docs, _ = planted_corpus(0, n_docs=60)
    corpus, embeddings, vec = (tmp_path / name for name in ("corpus.jsonl", "emb.txt", "vec"))
    corpus.write_text("".join(json.dumps({"id": i, "text": " ".join(doc)}) + "\n"
                              for i, doc in enumerate(docs)))
    write_planted_embeddings(embeddings, sets)
    config = tmp_path / "compare.json"
    config.write_text(json.dumps({
        "dim": 2, "train": {"epochs": 1},
        "compare": {"methods": ["dfcm", "efcm"], "clusters": [3]},
        "paths": {"vocabulary": str(vec / "vocabulary.json"), "matrix": str(vec / "matrix.txt"),
                  "embeddings": str(embeddings), "out_dir": str(tmp_path / "out")}}))
    cli = modules["cli"]
    assert cli.main(["vectorize", "--corpus", str(corpus), "--out-dir", str(vec)]) == 0
    assert cli.main(["compare", "--config", str(config), "--seed", "1"]) == 0
    with_attrs = {span["name"] for span in tracer.spans if span.get("attrs")}
    assert with_attrs >= {
        "textprep.prepare_corpus", "textprep.load_matrix", "svd.truncated_svd", "svd.project",
        "autoencoder.pretrain_layer", "autoencoder.fine_tune", "autoencoder.encode"}
