"""End-to-end benchmark of the dfcm-topics CLI.

Run from the repository root:

    python3 perfbench/run.py --workload efcm-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A closed loop with one client: each operation is one CLI command in a
fresh child process, and the next starts only after it exits. Children
run one at a time with the BLAS thread count set to the number of usable
cores. Inputs are generated from --seed (see bench_inputs.py) and cached
under .perfbench/; generating them is never timed. Every operation's
outputs are checked; a failed check counts toward ops_failed.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run
(bench_trace.py), plus the tracing overhead against untraced runs.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_inputs  # noqa: E402
import bench_trace  # noqa: E402

RUN_DEADLINE_S = 170.0  # a run must end within 180 s
KEEP_INPUT_SETS = 6
MIN_OPS = 3
TRACE_MIN_OPS = 2
RECOVERY_FRACTION = 0.8


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "vectorize" | "detect" | "compare"
    n_docs: int
    clusters: tuple[int, ...] = ()
    method: str = ""
    dim: int = 0
    epochs: int = 0
    fcm_max_iter: int = 1000
    # Lowest topics_recovered (summed over cells) accepted as correct,
    # recorded from the unmodified program on seeds 1-10.
    recovered_floor: int = 0

    @property
    def cells(self) -> int:
        return max(1, len(self.clusters))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dfcm-train", "detect", n_docs=1000, clusters=(10,), method="dfcm",
                 dim=5, epochs=10, recovered_floor=8),
        # Uncapped, the c=40 cell takes 33 to 158 FCM iterations depending on
        # the seed, which swamps every other difference between runs. Every
        # c=40 cell reaches this cap, so the FCM work is the same on every seed.
        Workload("efcm-sweep", "compare", n_docs=12000, clusters=(10, 20, 40),
                 method="efcm", dim=10, fcm_max_iter=30, recovered_floor=30),
        Workload("ingest", "vectorize", n_docs=12000),
    )
}


# ---------------------------------------------------------------- children


class ChildTimeout(Exception):
    pass


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float


class Launcher:
    """Runs children through bench_spawn.py, one at a time."""

    def __init__(self, python: str):
        self.proc = subprocess.Popen([python, str(HERE / "bench_spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, env, cwd, log_path, deadline) -> Child:
        """Run one child to completion; kill it if it outlives the deadline."""
        budget = deadline - time.monotonic()
        if budget <= 0:
            raise ChildTimeout(f"no time left to run {argv[1:4]}")
        request = {"argv": [str(a) for a in argv], "env": env, "cwd": str(cwd),
                   "log": str(log_path), "timeout": budget}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the child launcher exited")
        reply = json.loads(line)
        if reply["timed_out"]:
            raise ChildTimeout(f"child {argv[1:4]} exceeded the run deadline")
        return Child(reply["code"], reply["wall_s"], reply["rss_mb"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def child_env(root: Path, threads: int, tmp: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["TMPDIR"] = str(tmp)
    return env


# ------------------------------------------------------------------ inputs


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _evict(inputs_dir: Path, keep: Path) -> None:
    sets = sorted(
        (p for p in inputs_dir.iterdir() if p.is_dir() and p != keep),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    )
    for stale in sets[KEEP_INPUT_SETS - 1 :]:
        shutil.rmtree(stale, ignore_errors=True)


@dataclass
class Inputs:
    corpus: Path
    embeddings: Path | None = None
    vocabulary: Path | None = None
    matrix: Path | None = None


def prepare_inputs(wl: Workload, seed: int, ctx) -> Inputs:
    """Generate (or reuse) the workload's input files; never timed."""
    base = ctx.work / "inputs"
    base.mkdir(parents=True, exist_ok=True)
    dset = base / f"n{wl.n_docs}-s{seed}"
    dset.mkdir(exist_ok=True)
    os.utime(dset)
    _evict(base, dset)
    inputs = Inputs(dset / "corpus.jsonl")
    # A marker file is written only once its input is complete.
    if not (dset / "corpus.done").exists():
        bench_inputs.write_corpus(inputs.corpus, seed, wl.n_docs)
        (dset / "corpus.done").write_text("ok\n")
    if wl.command == "vectorize":
        return inputs
    if wl.command == "compare":
        inputs.embeddings = dset / "embeddings.txt"
        if not (dset / "embeddings.done").exists():
            bench_inputs.write_embeddings(inputs.embeddings, seed)
            (dset / "embeddings.done").write_text("ok\n")
    # The matrix and vocabulary come from this checkout's own vectorize,
    # so they follow whatever format the program writes.
    art = dset / f"vectorized-{ctx.src_digest}"
    if not (art / "done").exists():
        shutil.rmtree(art, ignore_errors=True)
        argv = ctx.cli + ["vectorize", "--corpus", str(inputs.corpus),
                          "--stopwords", "en", "--out-dir", str(art)]
        res = ctx.run(argv, dset / "vectorize.log")
        if res.code != 0:
            raise RuntimeError(f"vectorize failed preparing inputs (exit {res.code}); "
                               f"see {dset / 'vectorize.log'}")
        (art / "done").write_text("ok\n")
    inputs.vocabulary = art / "vocabulary.json"
    inputs.matrix = art / "matrix.txt"
    return inputs


def write_config(wl: Workload, inputs: Inputs, out_dir: Path, path: Path) -> None:
    cfg = {
        "method": wl.method,
        "dim": wl.dim,
        "clusters": wl.clusters[0],
        "top_n": 10,
        "fcm": {"max_iter": wl.fcm_max_iter},
        "paths": {
            "vocabulary": str(inputs.vocabulary),
            "matrix": str(inputs.matrix),
            "out_dir": str(out_dir),
        },
    }
    if wl.method == "dfcm":
        cfg["train"] = {"epochs": wl.epochs, "batch_size": 256}
    if wl.command == "compare":
        cfg["paths"]["embeddings"] = str(inputs.embeddings)
        cfg["compare"] = {"methods": [wl.method], "clusters": list(wl.clusters)}
    path.write_text(json.dumps(cfg, indent=2) + "\n")


def op_argv(wl: Workload, inputs: Inputs, config: Path, out_dir: Path, seed: int) -> list[str]:
    if wl.command == "vectorize":
        return ["vectorize", "--corpus", str(inputs.corpus), "--stopwords", "en",
                "--out-dir", str(out_dir)]
    return [wl.command, "--config", str(config), "--seed", str(seed)]


SETUP_CODE = """\
import sys
from dfcm_topics import coherence, textprep
kind, *paths = sys.argv[1:]
if kind == "vectorize":
    textprep.read_corpus_jsonl(paths[0])
else:
    textprep.load_vocabulary(paths[0])
    textprep.load_matrix(paths[1])
    if kind == "compare":
        coherence.load_word_vectors(paths[2])
"""


def setup_argv(wl: Workload, inputs: Inputs, python: str) -> list[str]:
    if wl.command == "vectorize":
        paths = [inputs.corpus]
    else:
        paths = [inputs.vocabulary, inputs.matrix, inputs.embeddings]
    return [python, "-c", SETUP_CODE, wl.command, *map(str, paths)]


# ------------------------------------------------------------------ checks


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name} does not parse: {exc}") from exc


def check_memberships(path: Path, c: int, n_docs: int) -> None:
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().split()
            values = np.array(fh.read().split(), dtype=np.float64)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path} does not parse: {exc}") from exc
    _require(header == [str(c), str(n_docs)], f"{path.name} header {header} != {c} {n_docs}")
    _require(values.size == c * n_docs, f"{path.name} holds {values.size} values")
    M = values.reshape(c, n_docs)
    _require(np.all(np.isfinite(M)) and M.min() >= 0.0 and M.max() <= 1.0,
             f"{path.name} has memberships outside [0, 1]")
    worst = float(np.abs(M.sum(axis=0) - 1.0).max())
    _require(worst <= 1e-9, f"{path.name} columns sum to 1 only within {worst:.3g}")


def check_topics(path: Path, c: int, method: str) -> list[list[str]]:
    payload = _read_json(path)
    _require(payload.get("method") == method, f"{path} method {payload.get('method')!r}")
    topics = payload.get("topics")
    _require(isinstance(topics, list) and len(topics) == c,
             f"{path} holds {len(topics) if isinstance(topics, list) else '?'} topics, not {c}")
    words = []
    for t in topics:
        ws = t.get("words")
        _require(isinstance(ws, list) and 0 < len(ws) <= 10, f"{path}: bad topic word list")
        words.append([w["term"] for w in ws])
    return words


def check_detection(cell_dir: Path, c: int, n_docs: int, method: str) -> list[list[str]]:
    words = check_topics(cell_dir / "topics.json", c, method)
    check_memberships(cell_dir / "memberships.txt", c, n_docs)
    trace = _read_json(cell_dir / "objective_trace.json")
    _require(len(trace["objective_trace"]) == trace["iterations"] >= 1,
             f"{cell_dir.name}: objective trace length != iterations")
    if method == "dfcm":
        with open(cell_dir / "model.bin", "rb") as fh:
            _require(fh.read(8) == b"DAEMODL1", "model.bin has no checkpoint header")
        _read_json(cell_dir / "model.bin.json")
    return words


def check_vectorize(out: Path, n_docs: int) -> None:
    vocab = _read_json(out / "vocabulary.json")
    terms = vocab["terms"]
    _require(terms == sorted(terms) and len(set(terms)) == len(terms),
             "vocabulary terms are not sorted and unique")
    planted = {w for s in bench_inputs.planted_sets() for w in s}
    _require(planted <= set(terms), "a planted topic word is missing from the vocabulary")
    _require(not set(bench_inputs.STOPWORDS) & set(terms), "a stopword survived")
    _require(not any(t.startswith(("@", "http", "#")) for t in terms), "web noise survived")
    try:
        with open(out / "matrix.txt", encoding="utf-8") as fh:
            header = [int(x) for x in fh.readline().split()]
            body = np.array(fh.read().split(), dtype=np.float64)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"matrix.txt does not parse: {exc}") from exc
    _require(len(header) == 3 and header[:2] == [n_docs, len(terms)],
             f"matrix.txt header {header} != [{n_docs}, {len(terms)}, nnz]")
    _require(body.size == 3 * header[2], "matrix.txt entry count != header nnz")
    trip = body.reshape(-1, 3)
    rows, cols = trip[:, 0].astype(np.int64), trip[:, 1].astype(np.int64)
    _require(rows.min() >= 0 and rows.max() < n_docs and cols.min() >= 0
             and cols.max() < len(terms), "matrix.txt index out of range")
    _require(np.all(np.isfinite(trip[:, 2])) and trip[:, 2].min() > 0,
             "matrix.txt weights must be positive")
    _require(np.unique(rows).size == n_docs, "a document has no terms")


def recovered(topic_words: list[list[str]]) -> int:
    """Planted topics matched by a topic with >= 0.8 of its words from the set."""
    sets = [set(s) for s in bench_inputs.planted_sets()]
    hit = set()
    for words in topic_words:
        for i, s in enumerate(sets):
            if sum(w in s for w in words) >= RECOVERY_FRACTION * len(words):
                hit.add(i)
    return len(hit)


def tc_w2v(words: list[str], vectors: dict) -> float | None:
    known = [vectors[w] for w in words if w in vectors]
    if len(known) < 2:
        return None
    V = np.array(known)
    V = V / np.linalg.norm(V, axis=1, keepdims=True)
    S = V @ V.T
    n = len(known)
    return float((S.sum() - np.trace(S)) / (n * (n - 1)))


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(out)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class Quality:
    recovered: int = 0
    tc_w2v_mean: float = float("nan")


def check_outputs(wl: Workload, out: Path, vectors) -> Quality:
    """Validate one operation's outputs; raise CheckFailed on any defect."""
    if wl.command == "vectorize":
        check_vectorize(out, wl.n_docs)
        return Quality()
    if wl.command == "detect":
        cells = [(out, wl.clusters[0])]
    else:
        cells = []
        for c in wl.clusters:
            found = sorted(out.glob(f"{wl.method}_c{c}_e*"))
            _require(len(found) == 1,
                     f"expected one output directory for c={c}, found {len(found)}")
            cells.append((found[0], c))
    total_recovered, cell_means = 0, []
    for cell_dir, c in cells:
        words = check_detection(cell_dir, c, wl.n_docs, wl.method)
        total_recovered += recovered(words)
        scores = [s for s in (tc_w2v(ws, vectors) for ws in words) if s is not None]
        cell_means.append(float(np.mean(scores)) if scores else float("nan"))
    if wl.command == "compare":
        with open(out / "compare.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        _require(len(rows) == len(cells), f"compare.csv has {len(rows)} rows")
        for row, ours in zip(rows, cell_means):
            _require(row["status"] == "ok", f"compare cell failed: {row['status']}")
            theirs = float(row["mean_score"])
            _require(abs(theirs - ours) <= 1e-9,
                     f"compare.csv mean_score {theirs} != recomputed TC-W2V {ours}")
    _require(total_recovered >= wl.recovered_floor,
             f"recovered {total_recovered} planted topics, floor {wl.recovered_floor}")
    return Quality(total_recovered, float(np.mean(cell_means)))


# ----------------------------------------------------------------- machine


def machine_record(root: Path, threads: int) -> dict:
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=False)
        if res.returncode == 0:
            commit = res.stdout.strip()
    return {
        "nproc": threads,
        "cpu_model": cpu,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {v: str(threads) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
    }


# ----------------------------------------------------------- per-layer math


IO_WRITTEN = ("vocabulary.json", "matrix.txt", "topics.json", "memberships.txt",
              "objective_trace.json", "model.bin", "compare.csv")


def _sum_dims(layers) -> int:
    return sum(i * o for i, o in layers)


def _steps(attrs) -> int:
    return attrs["epochs"] * -(-attrs["n"] // attrs["batch"])


def layer_metrics(doc: dict, inputs: Inputs, out: Path) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    Counts marked "computed" come from shapes, not from counting inside
    the program: a training step costs 6 FLOP per weight per sample
    (forward 2, backward 4) and inference 2; bias and optimizer arithmetic
    are not counted. A randomized SVD makes 2 + 2 * power_iters sparse
    products with an l-column block, each 2 * nnz * l FLOP.
    """
    spans = doc["spans"]
    by_name: dict[str, list[dict]] = {}
    for span, own in zip(spans, bench_trace.self_times(spans)):
        span["self"] = own
        by_name.setdefault(span["name"], []).append(span)

    def secs(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def attrs(name):
        return [s["attrs"] for s in by_name.get(name, ()) if "attrs" in s]

    m: dict[str, float] = {}
    main_s = secs("cli.main")
    layer_self = bench_trace.layer_self_seconds(spans)
    for layer in bench_trace.LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.self_share"] = layer_self[layer] / main_s if main_s else 0.0

    # textprep
    for name in ("read_corpus_jsonl", "prepare_corpus", "save_matrix", "load_matrix"):
        m[f"textprep.{name}_s"] = secs(f"textprep.{name}")
    matrix_out = out / "matrix.txt"
    m["textprep.save_matrix_mb"] = matrix_out.stat().st_size / 1e6 if by_name.get(
        "textprep.save_matrix") else 0.0
    load_s = m["textprep.load_matrix_s"]
    m["textprep.load_matrix_mb_per_s"] = (
        inputs.matrix.stat().st_size / 1e6 / load_s if load_s else 0.0)
    shape = (attrs("textprep.prepare_corpus") + attrs("textprep.load_matrix") or [{}])[0]
    m["textprep.nnz"] = shape.get("nnz", 0)
    m["textprep.n_terms"] = shape.get("n_terms", 0)

    # svd
    for name in ("truncated_svd", "project", "back_project"):
        m[f"svd.{name}_s"] = secs(f"svd.{name}")
    products, flop = 0, 0
    for a in attrs("svd.truncated_svd"):
        k = 2 + 2 * a["power_iters"]
        products += k
        flop += k * 2 * a["nnz"] * a["l"]
    for a in attrs("svd.project"):
        products += 1
        flop += 2 * a["nnz"] * a["p"]
    flop += sum(2 * a["c"] * a["p"] * a["m"] for a in attrs("svd.back_project"))
    m["svd.products"] = products
    m["svd.gflop"] = flop / 1e9

    # fcm
    for name in ("kmeans_init", "fcm_fit", "update_memberships", "update_centroids", "objective"):
        m[f"fcm.{name}_s"] = secs(f"fcm.{name}")
    iters = sum(a["iterations"] for a in attrs("fcm.fcm_fit"))
    m["fcm.cells"] = len(by_name.get("fcm.fcm_fit", ()))
    m["fcm.iterations"] = iters
    m["fcm.ms_per_iter"] = 1e3 * m["fcm.fcm_fit_s"] / iters if iters else 0.0

    # autoencoder
    pre = by_name.get("autoencoder.pretrain_layer", [])
    gflop_total, steps = 0.0, 0
    for i in range(4):
        m[f"autoencoder.pretrain_layer{i}_s"] = 0.0
        m[f"autoencoder.pretrain_layer{i}_gflop"] = 0.0
    for i, span in enumerate(pre):
        a = span["attrs"]
        weights = a["dims"][0] * a["dims"][1]
        g = (a["epochs"] * a["n"] * 6 * 2 * weights + 2 * a["n"] * weights) / 1e9
        m[f"autoencoder.pretrain_layer{i}_s"] = span["end"] - span["start"]
        m[f"autoencoder.pretrain_layer{i}_gflop"] = g
        gflop_total += g
        steps += _steps(a)
    for name in ("greedy_pretrain", "fine_tune", "encode", "decode", "save_checkpoint"):
        m[f"autoencoder.{name}_s"] = secs(f"autoencoder.{name}")
    ft = attrs("autoencoder.fine_tune")
    ft_gflop = sum(a["epochs"] * a["n"] * 6 * _sum_dims(a["layers"]) for a in ft) / 1e9
    ft_steps = sum(_steps(a) for a in ft)
    m["autoencoder.fine_tune_gflop"] = ft_gflop
    m["autoencoder.fine_tune_ms_per_step"] = (
        1e3 * m["autoencoder.fine_tune_s"] / ft_steps if ft_steps else 0.0)
    gflop_total += ft_gflop
    for name in ("encode", "decode"):
        gflop_total += sum(2 * a["n"] * _sum_dims(a["layers"])
                           for a in attrs(f"autoencoder.{name}")) / 1e9
    m["autoencoder.params"] = sum(i * o + o for a in ft for i, o in a["layers"])
    m["autoencoder.steps"] = steps + ft_steps
    m["autoencoder.gflop"] = gflop_total
    busy = sum(m[f"autoencoder.{n}_s"]
               for n in ("greedy_pretrain", "fine_tune", "encode", "decode"))
    m["autoencoder.gflops_achieved"] = gflop_total / busy if busy else 0.0
    rss = attrs("autoencoder.greedy_pretrain")
    m["autoencoder.rss_after_pretrain_mb"] = rss[0]["rss_mb"] if rss else 0.0

    # topics
    m["topics.detect_s"] = secs("topics.detect")
    m["topics.detect_self_s"] = sum(s["self"] for s in by_name.get("topics.detect", ()))
    m["topics.save_topic_set_s"] = secs("topics.save_topic_set")

    # coherence
    m["coherence.load_word_vectors_s"] = secs("coherence.load_word_vectors")
    loaded = attrs("coherence.load_word_vectors")
    m["coherence.embedding_mb"] = inputs.embeddings.stat().st_size / 1e6 if loaded else 0.0
    m["coherence.words_loaded"] = sum(a["words"] for a in loaded)
    m["coherence.evaluate_s"] = secs("coherence.evaluate")

    # cli and per-file bytes
    m["cli.main_s"] = main_s
    written = {}
    for path in out.rglob("*"):
        if path.is_file():
            written[path.name] = written.get(path.name, 0) + path.stat().st_size
    m["cli.bytes_written"] = sum(written.values())
    reads = {"corpus.jsonl": inputs.corpus} if by_name.get("textprep.read_corpus_jsonl") else {}
    if by_name.get("textprep.load_matrix"):
        reads.update({"vocabulary.json": inputs.vocabulary, "matrix.txt": inputs.matrix})
    if loaded:
        reads["embeddings.txt"] = inputs.embeddings
    for fname in ("corpus.jsonl", "vocabulary.json", "matrix.txt", "embeddings.txt"):
        key = fname.replace(".", "_")
        m[f"io.{key}_read_bytes"] = reads[fname].stat().st_size if fname in reads else 0
    for fname in IO_WRITTEN:
        m[f"io.{fname.replace('.', '_')}_written_bytes"] = written.get(fname, 0)
    return m


# -------------------------------------------------------------------- loop


@dataclass
class Context:
    root: Path
    work: Path
    python: str
    cli: list[str]
    env: dict
    deadline: float
    src_digest: str
    launcher: Launcher

    def run(self, argv, log_path) -> Child:
        return self.launcher.run(argv, self.env, self.root, log_path, self.deadline)


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    report: list[str] = field(default_factory=list)
    samples: dict = field(default_factory=dict)


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, ctx: Context) -> RunResult:
    inputs = prepare_inputs(wl, seed, ctx)
    vectors = bench_inputs.vocabulary_vectors(seed) if wl.command != "vectorize" else None
    wdir = ctx.work / "runs" / wl.name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    out = wdir / "out"
    config = wdir / "run.json"
    if wl.command != "vectorize":
        write_config(wl, inputs, out, config)
    args = op_argv(wl, inputs, config, out, seed)
    setup = setup_argv(wl, inputs, ctx.python)

    # Warm-up: compiles the package's bytecode and pages the inputs in.
    warm = ctx.run(setup, wdir / "warmup.log")
    if warm.code != 0:
        raise RuntimeError(f"set-up child failed (exit {warm.code}); see {wdir / 'warmup.log'}")

    res = RunResult()
    walls, rss, setups, traced_walls, layer_samples = [], [], [], [], []
    quality, reference = Quality(), None
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 0
        if not trace:
            s = ctx.run(setup, wdir / "setup.log")
            if s.code != 0:
                raise RuntimeError(f"set-up child failed (exit {s.code}); see {wdir / 'setup.log'}")
            setups.append(s.wall_s)
        shutil.rmtree(out, ignore_errors=True)
        spans_path = wdir / "spans.json"
        argv = ([ctx.python, str(HERE / "bench_trace.py"), str(spans_path), "--"] + args
                if traced else ctx.cli + args)
        child = ctx.run(argv, wdir / "op.log")
        res.attempted += 1
        try:
            _require(child.code == 0, f"exit code {child.code} (see {wdir / 'op.log'})")
            q = check_outputs(wl, out, vectors)
            digest = _digest(out)
            reference = reference or digest
            _require(digest == reference, "outputs differ from the run's first operation")
            quality = q
            if traced:
                layer_samples.append(layer_metrics(json.loads(spans_path.read_text()), inputs, out))
        except (CheckFailed, KeyError, TypeError, ValueError, OSError) as exc:
            # Malformed output counts against the operation, not the harness.
            res.failed += 1
            res.errors.append(f"{type(exc).__name__}: {exc}")
        (traced_walls if traced else walls).append(child.wall_s)
        if not traced:
            rss.append(child.rss_mb)
        i += 1
        elapsed = time.perf_counter() - start
        per_op = elapsed / i
        min_ops = TRACE_MIN_OPS if trace else MIN_OPS
        if i >= min_ops and elapsed + per_op > seconds:
            break
        if time.monotonic() + per_op > ctx.deadline:
            break

    docs = wl.n_docs * wl.cells
    res.samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss,
                   "traced_wall_s": traced_walls}
    if trace:
        for name in layer_samples[0] if layer_samples else ():
            res.metrics[name] = _median([s[name] for s in layer_samples])
        res.metrics["trace.traced_wall_s"] = _median(traced_walls)
        res.metrics["trace.untraced_wall_s"] = _median(walls)
        res.metrics["trace.overhead_s"] = _median(traced_walls) - _median(walls)
        res.report.append(
            f"  traced ops {len(traced_walls)}, untraced ops {len(walls)}, tracing overhead "
            f"{res.metrics['trace.overhead_s']:+.3f} s on "
            f"{res.metrics['trace.untraced_wall_s']:.3f} s")
        shares = ", ".join(f"{layer} {res.metrics.get(f'{layer}.self_share', 0):.1%}"
                           for layer in bench_trace.LAYERS)
        res.report.append(f"  self-time share of cli.main: {shares}")
    else:
        wall = _median(walls)
        res.metrics = {
            "wall_s": wall,
            "docs_per_s": docs / wall,
            "setup_s": _median(setups),
            "peak_rss_mb": _median(rss),
        }
        res.report += [
            f"  {'wall_s':18s} {wall:12.4f} s       median of {len(walls)} ops "
            f"(min {min(walls):.4f}, max {max(walls):.4f})",
            f"  {'docs_per_s':18s} {docs / wall:12.2f} docs/s  "
            f"{wl.n_docs} docs x {wl.cells} cells / wall_s",
            f"  {'setup_s':18s} {_median(setups):12.4f} s       median of {len(setups)} set-ups",
            f"  {'peak_rss_mb':18s} {_median(rss):12.1f} MB      "
            f"median ru_maxrss of {len(rss)} ops",
        ]
    if wl.command != "vectorize":
        res.report += [
            f"  {'tc_w2v_mean':18s} {quality.tc_w2v_mean:12.6f} cosine  "
            f"mean over {wl.cells} cells, planted embeddings",
            f"  {'topics_recovered':18s} {quality.recovered:12d} count   "
            f"of {10 * wl.cells} planted-topic matches (floor {wl.recovered_floor})",
        ]
    res.report.append(f"  {'ops_failed':18s} {res.failed / res.attempted:12.4f} share   "
                      f"{res.failed} of {res.attempted} operations")
    for err in res.errors:
        res.report.append(f"  FAILED: {err}")
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dfcm_topics" / "cli.py").is_file():
        print(f"error: {root} has no src/dfcm_topics; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    work = root / ".perfbench"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    threads = len(os.sched_getaffinity(0))
    python = sys.executable
    machine = machine_record(root, threads)
    ctx = Context(root, work, python, [python, "-m", "dfcm_topics.cli"],
                  child_env(root, threads, work / "tmp"), 0.0, _src_digest(root),
                  Launcher(python))
    try:
        return run_all(args, ctx, machine, units)
    finally:
        ctx.launcher.close()


def run_all(args, ctx: Context, machine: dict, units: dict) -> int:
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        wl = WORKLOADS[name]
        ctx.deadline = time.monotonic() + RUN_DEADLINE_S
        try:
            res = run_workload(wl, args.seed, args.seconds, bool(args.trace), ctx)
        except (RuntimeError, ChildTimeout) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        attempted += res.attempted
        failed += res.failed
        print(f"workload {name} (seed {args.seed}, trace {args.trace})")
        print("\n".join(res.report))
        prefix = f"{name}." if len(names) > 1 else ""
        for key, unit in units.items():
            metrics[prefix + key] = {"value": res.metrics.get(key, 0.0), "unit": unit}
        results = ctx.work / "results"
        results.mkdir(exist_ok=True)
        (results / f"{name}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(
            {"workload": name, "seed": args.seed, "machine": machine, "metrics": res.metrics,
             "samples": res.samples, "attempted": res.attempted, "failed": res.failed,
             "errors": res.errors}, indent=2) + "\n")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
