"""Acceptance gate: one test per release criterion, each printing a
PASS line with its measured figure of merit (run with -s or check the
captured output)."""

import json
import math
import time

import numpy as np
import pytest

from dfcm_topics import autoencoder as ae
from dfcm_topics import coherence, fcm, svd, textprep, topics
from dfcm_topics.autoencoder import TrainConfig
from dfcm_topics.cli import main
from dfcm_topics.fcm import FcmConfig

from conftest import (
    blob_dataset,
    dense_truncated_svd,
    planted_corpus,
    planted_matrix,
    reconstruction_loss,
    topic_recovery,
    write_planted_embeddings,
)
from test_autoencoder import finite_difference_check
from test_fcm import best_label_agreement, lloyd_oracle


def test_criterion_1_fcm_unit_oracles():
    # Warm up numpy dispatch before timing.
    fcm.update_memberships(np.zeros((1, 1)), np.ones((2, 1)), 2.0)
    start = time.perf_counter()
    M = fcm.update_memberships(np.array([[0.0]]), np.array([[1.0], [2.0]]), 2.0)
    Q = fcm.update_centroids(
        np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([[0.75, 0.25]]), 2.0
    )
    elapsed = time.perf_counter() - start
    assert abs(M[0, 0] - 0.8) < 1e-12 and abs(M[1, 0] - 0.2) < 1e-12
    assert abs(Q[0, 0] - 0.2) < 1e-12 and abs(Q[0, 1]) < 1e-12
    assert elapsed < 1e-3
    print(f"\nPASS criterion 1: FCM unit oracles match to 1e-12 ({elapsed*1e6:.0f} us)")


def test_criterion_2_fcm_descent_and_kmeans_agreement():
    X, _, _ = blob_dataset()
    start = time.perf_counter()
    cfg = FcmConfig(c=3, f=2.0, max_iter=1000, eps=1e-6, seed=0)
    res = fcm.fcm_fit(X, cfg, fcm.kmeans_init(X, cfg.c, cfg.init_runs, cfg.seed))
    elapsed = time.perf_counter() - start
    for prev, cur in zip(res.objective_trace, res.objective_trace[1:]):
        assert cur <= prev + 1e-10 * abs(prev)
    np.testing.assert_allclose(res.memberships.sum(axis=0), 1.0, atol=1e-9)
    oracle = lloyd_oracle(X, 3, runs=10, seed=99)
    agreement = best_label_agreement(res.memberships.argmax(axis=0), oracle, 3)
    assert agreement >= 0.95
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 2: J nonincreasing, columns stochastic, "
        f"k-means agreement {agreement:.0%} ({elapsed:.2f} s)"
    )


def test_criterion_3_hard_membership_limit():
    X, _, _ = blob_dataset()
    cfg = FcmConfig(c=3, f=1.001, max_iter=1000, eps=1e-6, seed=0)
    res = fcm.fcm_fit(X, cfg, fcm.kmeans_init(X, cfg.c, cfg.init_runs, cfg.seed))
    min_max = res.memberships.max(axis=0).min()
    assert min_max >= 0.99
    print(f"\nPASS criterion 3: f=1.001 memberships near-hard (min max = {min_max:.6f})")


def test_criterion_4_gradient_check():
    rng = np.random.default_rng(7)
    model = ae.build_autoencoder(7, 3, seed=0, hidden_dims=(5,))
    batch = rng.standard_normal((6, 7))
    start = time.perf_counter()
    worst = finite_difference_check(model, batch, rng, samples_per_layer=10, step=1e-5)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-4
    assert elapsed < 1.0
    print(f"\nPASS criterion 4: gradient check max rel err {worst:.2e} ({elapsed:.2f} s)")


def test_criterion_5_autoencoder_overfit():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((32, 50))
    start = time.perf_counter()
    model = ae.build_autoencoder(50, 5, seed=1)
    loss0 = reconstruction_loss(model, X)
    ae.greedy_pretrain(X, model, TrainConfig(epochs=10, batch_size=256, seed=2))
    ae.fine_tune(
        model=model, X=X, cfg=TrainConfig(epochs=500, batch_size=256, seed=2)
    )
    loss1 = reconstruction_loss(model, X)
    elapsed = time.perf_counter() - start
    assert loss1 <= 0.1 * loss0
    for layer in model.layers:
        assert np.all(np.isfinite(layer.weights)) and np.all(np.isfinite(layer.bias))
    assert elapsed < 30.0
    print(
        f"\nPASS criterion 5: overfit MSE {loss1:.4f} <= 10% of {loss0:.4f} "
        f"({elapsed:.1f} s)"
    )


def test_criterion_6_truncated_svd_oracle():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((30, 20))
    start = time.perf_counter()
    randomized = svd.truncated_svd(A, 5, seed=1)
    elapsed = time.perf_counter() - start
    oracle = dense_truncated_svd(A, 5)
    rel = np.max(
        np.abs(randomized.singular_values - oracle.singular_values)
        / oracle.singular_values
    )
    gram_err = np.max(
        np.abs(randomized.right_vectors.T @ randomized.right_vectors - np.eye(5))
    )
    assert rel <= 1e-6
    assert gram_err <= 1e-8
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 6: singular values within {rel:.2e}, "
        f"orthonormality {gram_err:.2e} ({elapsed:.2f} s)"
    )


def test_criterion_7_planted_topic_recovery(tmp_path):
    start = time.perf_counter()
    seeds = range(5)
    results = {"dfcm": [], "efcm": []}
    recovered_sets = []
    for seed in seeds:
        sets, vocab, dtm, _ = planted_matrix(seed)
        for method in ("dfcm", "efcm"):
            cfg = topics.PipelineConfig(
                method, p=5, c=3,
                fcm=FcmConfig(c=3, f=1.1, max_iter=1000, eps=0.005),
                train=TrainConfig(epochs=15, batch_size=256), top_n=10, seed=seed,
            )
            _, topic_set, _ = topics.detect(dtm, vocab, cfg)
            ok, _ = topic_recovery(topic_set, sets, min_fraction=0.8)
            results[method].append(ok)
            if ok:
                recovered_sets.append((sets, topic_set))
    assert sum(results["dfcm"]) >= 4, results["dfcm"]
    assert sum(results["efcm"]) >= 4, results["efcm"]

    # Planted embeddings: recovered topics must be coherent.
    sets = recovered_sets[0][0]
    emb_path = tmp_path / "embeddings.txt"
    write_planted_embeddings(emb_path, sets)
    store = coherence.load_word_vectors(emb_path)
    for _, topic_set in recovered_sets[:2]:
        report = coherence.evaluate(topic_set, store)
        assert all(score >= 0.8 for _, score, _ in report.per_topic)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"\nPASS criterion 7: recovery DFCM {sum(results['dfcm'])}/5, "
        f"EFCM {sum(results['efcm'])}/5, planted TC-W2V >= 0.8 ({elapsed:.0f} s)"
    )


def test_criterion_8_tc_w2v_oracle():
    s = 1.0 / math.sqrt(2.0)
    store = {
        "a": np.array([1.0, 0.0]),
        "b": np.array([0.0, 1.0]),
        "c": np.array([s, s]),
    }
    score, _ = coherence.tc_w2v(["a", "b", "c"], store)
    assert abs(score - 0.47140452) <= 1e-6
    rng = np.random.default_rng(0)
    words = ["a", "b", "c"]
    for _ in range(100):
        rng.shuffle(words)
        shuffled, _ = coherence.tc_w2v(words, store)
        assert abs(shuffled - score) < 1e-12
        assert -1.0 <= shuffled <= 1.0
    print(f"\nPASS criterion 8: TC-W2V oracle {score:.8f}, permutation invariant")


def test_criterion_9_preprocessing_conformance():
    assert (
        textprep.clean_text("Check https://x.co NOW @bob #energy")
        == "check now energy"
    )
    assert textprep.clean_text("see www.news.com today") == "see today"
    assert textprep.clean_text("ping @alice about #Solar") == "ping about solar"
    assert textprep.clean_text("soooo cooool") == "soo cool"
    once = textprep.clean_text("MiXeD CaSe!!! loooud")
    assert textprep.clean_text(once) == once
    assert textprep.frequency_threshold(5000) == 10
    assert textprep.frequency_threshold(50304) == 50
    print("\nPASS criterion 9: preprocessing rules conform")


def test_criterion_10_cli_determinism(tmp_path):
    sets, docs, _ = planted_corpus(0)
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w") as fh:
        for i, toks in enumerate(docs):
            fh.write(json.dumps({"id": f"doc{i}", "text": " ".join(toks)}) + "\n")
    emb = tmp_path / "embeddings.txt"
    write_planted_embeddings(emb, sets)
    vec = tmp_path / "vec"
    assert main(["vectorize", "--corpus", str(corpus), "--out-dir", str(vec)]) == 0

    def config(out_dir):
        return {
            "method": "dfcm",
            "dim": 5,
            "clusters": 3,
            "train": {"epochs": 3, "batch_size": 256},
            "paths": {
                "vocabulary": str(vec / "vocabulary.json"),
                "matrix": str(vec / "matrix.txt"),
                "embeddings": str(emb),
                "out_dir": str(out_dir),
            },
            "compare": {"methods": ["dfcm", "efcm"], "clusters": [3], "epochs": [2]},
        }

    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"detect_{run}"
        cfg_path = tmp_path / f"cfg_{run}.json"
        cfg_path.write_text(json.dumps(config(out)))
        assert main(["detect", "--config", str(cfg_path), "--seed", "13"]) == 0
        outputs.append((out / "topics.json").read_bytes())
    assert outputs[0] == outputs[1]

    csvs = []
    for run in ("a", "b"):
        out = tmp_path / f"compare_{run}"
        cfg_path = tmp_path / f"ccfg_{run}.json"
        cfg_path.write_text(json.dumps(config(out)))
        assert main(["compare", "--config", str(cfg_path), "--seed", "13"]) == 0
        csvs.append((out / "compare.csv").read_bytes())
    assert csvs[0] == csvs[1]
    print("\nPASS criterion 10: detect and compare outputs byte-identical across runs")
