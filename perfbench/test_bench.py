"""Tests of the benchmark's own code: input determinism and span arithmetic.

Run with: python3 -m pytest perfbench
"""

import types

import numpy as np
import pytest

import bench_inputs
import bench_trace


def test_corpus_is_a_function_of_seed_and_size(tmp_path):
    a, b, c = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
    bench_inputs.write_corpus(a, 7, 300)
    bench_inputs.write_corpus(b, 7, 300)
    bench_inputs.write_corpus(c, 8, 300)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    assert len(a.read_text().splitlines()) == 300


def test_documents_draw_topic_words_from_their_planted_set():
    docs = bench_inputs.corpus_docs(3, 40)
    sets = bench_inputs.planted_sets()
    for d, doc in enumerate(docs):
        words = {w.lstrip("#") for w in doc["text"].split() if "word" in w}
        assert words and words <= set(sets[d % bench_inputs.N_TOPICS])


@pytest.fixture
def small_embeddings(monkeypatch):
    monkeypatch.setattr(bench_inputs, "EMBED_WORDS", 3500)
    monkeypatch.setattr(bench_inputs, "EMBED_DIM", 16)


def test_embedding_file_is_deterministic_and_matches_vectors(tmp_path, small_embeddings):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    bench_inputs.write_embeddings(a, 5)
    bench_inputs.write_embeddings(b, 5)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "3500 16"
    assert len(lines) == 3501
    vectors = bench_inputs.vocabulary_vectors(5)
    parsed = {}
    for line in lines[1:]:
        term, *values = line.split()
        parsed[term] = np.array([float(v) for v in values])
    for term, vec in vectors.items():
        assert np.array_equal(parsed[term], vec)
    assert sum(t.startswith("pad") for t in parsed) == 3500 - len(vectors)


def test_planted_words_are_closer_within_a_topic():
    vectors = bench_inputs.vocabulary_vectors(2)

    def cos(u, v):
        return u @ v / np.linalg.norm(u) / np.linalg.norm(v)

    t0, t1 = bench_inputs.topic_words(0), bench_inputs.topic_words(1)
    within = np.mean([cos(vectors[t0[0]], vectors[w]) for w in t0[1:]])
    across = np.mean([cos(vectors[t0[0]], vectors[w]) for w in t1])
    assert within > 0.6 > 0.3 > abs(across)


def _span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_children_once_and_clips_them():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("fcm.fcm_fit", 1.0, 3.0, 0),
        _span("fcm.kmeans_init", 2.0, 5.0, 0),  # overlaps the previous child
        _span("svd.project", 9.0, 12.0, 0),  # runs past its parent's end
        _span("fcm.objective", 1.5, 2.5, 1),
    ]
    own = bench_trace.self_times(spans)
    assert own == pytest.approx([10.0 - 4.0 - 1.0, 1.0, 3.0, 3.0, 1.0])


def test_layer_self_time_sums_by_span_prefix():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("topics.detect", 1.0, 9.0, 0),
        _span("fcm.fcm_fit", 2.0, 6.0, 1),
        _span("fcm.update_memberships", 3.0, 4.0, 2),
        _span("fcm.objective", 4.0, 4.5, 2),
    ]
    layers = bench_trace.layer_self_seconds(spans)
    assert layers["cli"] == pytest.approx(2.0)
    assert layers["topics"] == pytest.approx(4.0)
    assert layers["fcm"] == pytest.approx(4.0)
    assert layers["autoencoder"] == 0.0
    assert sum(layers.values()) == pytest.approx(10.0)


def test_tracer_records_nesting_and_returns_results():
    ticks = iter(range(100))
    tracer = bench_trace.Tracer(clock=lambda: float(next(ticks)))
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    tracer.wrap(mod, "inner", "fcm.inner")
    tracer.wrap(mod, "outer", "topics.outer")
    assert mod.outer(3) == 8
    outer, inner = tracer.spans
    assert (outer["name"], outer["parent"]) == ("topics.outer", None)
    assert (inner["name"], inner["parent"]) == ("fcm.inner", 0)
    assert (outer["start"], inner["start"], inner["end"], outer["end"]) == (0, 1, 2, 3)
    assert bench_trace.self_times(tracer.spans) == [2.0, 1.0]


def test_tracer_closes_spans_when_the_call_raises():
    tracer = bench_trace.Tracer()
    mod = types.SimpleNamespace(fail=lambda: 1 / 0)
    tracer.wrap(mod, "fail", "cli.fail")
    with pytest.raises(ZeroDivisionError):
        mod.fail()
    assert tracer.spans[0]["end"] >= tracer.spans[0]["start"]
    assert tracer._stack == []


def test_traced_run_reports_every_per_layer_metric_in_benchmark_json(tmp_path):
    import json
    from pathlib import Path

    import run

    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    doc = {"spans": [_span("cli.main", 0.0, 1.0)]}
    inputs = run.Inputs(tmp_path / "corpus.jsonl")
    metrics = run.layer_metrics(doc, inputs, tmp_path)
    trace_keys = {"trace.traced_wall_s", "trace.untraced_wall_s", "trace.overhead_s"}
    assert set(metrics) | trace_keys == names
    assert metrics["cli.self_share"] == 1.0


def test_launcher_reports_the_childs_own_peak_rss_and_enforces_the_deadline(tmp_path):
    import os
    import sys
    import time

    import run

    ballast = np.ones(150_000_000 // 8)  # the harness's peak must not leak into the child's
    launcher = run.Launcher(sys.executable)
    try:
        child = launcher.run([sys.executable, "-c", "pass"], dict(os.environ), tmp_path,
                             tmp_path / "log", time.monotonic() + 60)
        assert child.code == 0 and child.wall_s > 0
        assert child.rss_mb < 100
        with pytest.raises(run.ChildTimeout):
            launcher.run([sys.executable, "-c", "import time; time.sleep(60)"], dict(os.environ),
                         tmp_path, tmp_path / "log", time.monotonic() + 0.5)
    finally:
        launcher.close()
    assert launcher.proc.returncode == 0
    del ballast
