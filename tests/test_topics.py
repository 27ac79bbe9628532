import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dfcm_topics import fcm, topics
from dfcm_topics.autoencoder import TrainConfig
from dfcm_topics.errors import DimensionMismatchError, NonFiniteInputError
from dfcm_topics.fcm import FcmConfig
from dfcm_topics.textprep import Vocabulary

from conftest import csr, dense, planted_matrix, token_stream, topic_recovery


def _vocab(terms):
    return Vocabulary(sorted(terms), {t: 1 for t in terms}, 0)


class TestExtractTopWords:
    def test_one_hot(self):
        vocab = _vocab(["a", "b", "c"])
        words = topics.extract_top_words(np.array([0.0, 1.0, 0.0]), vocab, 2)
        assert words == [("b", 1.0)]  # fewer than n strictly positive weights

    def test_tie_breaks_lexicographically(self):
        vocab = _vocab(["b", "a", "c"])
        words = topics.extract_top_words(np.array([0.5, 0.5, 0.1]), vocab, 2)
        assert [w for w, _ in words] == ["a", "b"]

    def test_sort_oracle(self):
        vocab = _vocab(["a", "b", "c", "d"])
        words = topics.extract_top_words(np.array([0.1, 0.9, 0.5, 0.0]), vocab, 2)
        assert words == [("b", 0.9), ("c", 0.5)]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            topics.extract_top_words(np.ones(2), _vocab(["a", "b", "c"]), 1)

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.sampled_from([0.0, -1.0, 5e-324, 0.25, 0.5, 1.0, 3.0, np.nan]),
                         min_size=1, max_size=12),
        n=st.integers(1, 6),
    )
    def test_matches_full_sort_reference(self, weights, n):
        vocab = _vocab([f"t{j:02d}" for j in range(len(weights))])
        mu = np.array(weights)
        assert topics.extract_top_words(mu, vocab, n) == reference_top_words(mu, vocab, n)


def reference_top_words(mu, vocab, n):
    """The full sort of every positive weight extract_top_words used to run: its oracle."""
    positive = [(float(mu[j]), vocab.terms[j]) for j in np.nonzero(mu > 0)[0]]
    positive.sort(key=lambda wt: (-wt[0], wt[1]))
    return [(term, weight) for weight, term in positive[:n]]


def _pipeline_cfg(method, seed, epochs=15):
    train = TrainConfig(epochs=epochs, batch_size=256, learning_rate=1e-3)  # efcm drops it
    return topics.PipelineConfig(
        method, p=5, c=3, fcm=FcmConfig(c=3, f=1.1), train=train, top_n=10, seed=seed
    )


class TestEfcmPipeline:
    def test_planted_recovery(self):
        sets, vocab, dtm, _ = planted_matrix(0)
        _, topic_set, _ = topics.detect(dtm, vocab, _pipeline_cfg("efcm", 0))
        ok, fractions = topic_recovery(topic_set, sets)
        assert ok, f"per-topic matched fractions {fractions}"

    def test_nonnegative_weights(self):
        sets, vocab, dtm, _ = planted_matrix(1)
        _, topic_set, _ = topics.detect(dtm, vocab, _pipeline_cfg("efcm", 1))
        assert all(w > 0 for topic in topic_set.topics for _, w in topic)
        for topic in topic_set.topics:
            assert all(w >= 0 for _, w in topic)

    def test_smallest_instance(self):
        vocab = _vocab(["a", "b"])
        from dfcm_topics.textprep import vectorize_tfidf

        dtm = vectorize_tfidf(token_stream([["a"], ["b"]]), vocab)
        cfg = topics.PipelineConfig(
            "efcm", p=1, c=1, fcm=FcmConfig(c=1, f=1.1), top_n=10, seed=0
        )
        _, topic_set, _ = topics.detect(dtm, vocab, cfg)
        assert len(topic_set.topics) == 1

    def test_fcm_fixed_point_consistency(self):
        # Rerunning FCM from the returned centroids barely moves M.
        sets, vocab, dtm, _ = planted_matrix(2)
        cfg = _pipeline_cfg("efcm", 2)
        _, _, fit = topics.detect(dtm, vocab, cfg)
        rerun = fcm.fcm_fit(
            topics.represent(dtm, cfg).codes,
            FcmConfig(c=3, f=1.1, max_iter=1000, eps=cfg.fcm.eps),
            init=fit.centroids,
        )
        delta = np.linalg.norm(rerun.memberships - fit.memberships)
        assert delta < cfg.fcm.eps


def test_cluster_topics_rejects_nonfinite_codes():
    # A diverged representation must fail as a numerical error (exit 3),
    # not in k-means++'s sampling as a ValueError.
    codes = np.random.default_rng(0).normal(size=(20, 2))
    codes[7, 1] = np.nan
    rep = topics.Representation(codes, lambda C: C)
    with pytest.raises(NonFiniteInputError):
        topics.cluster_topics(rep, _vocab(["a", "b"]), _pipeline_cfg("efcm", 0))


def test_each_short_topic_gets_one_warning():
    # Back-mapped rows: all negative, one positive weight of two, all positive.
    codes = np.random.default_rng(0).normal(size=(20, 2))
    rows = np.array([[-1.0, -2.0], [0.5, -1.0], [1.0, 2.0]])
    rep = topics.Representation(codes, lambda C: rows)
    topic_set, _ = topics.cluster_topics(rep, _vocab(["a", "b"]), _pipeline_cfg("efcm", 0))
    assert topic_set.topics == [[], [("a", 0.5)], [("b", 2.0), ("a", 1.0)]]
    assert topic_set.warnings == [
        "topic 0: only 0 strictly positive weights available",
        "topic 1: only 1 strictly positive weights available",
        "topic 2: only 2 strictly positive weights available",  # top_n is 10
    ]


def test_a_topic_with_top_n_positive_weights_gets_no_warning():
    # With top_n 2, rows holding two or three positive weights are full topics.
    codes = np.random.default_rng(0).normal(size=(20, 2))
    rows = np.array([[-1.0, -2.0, -3.0], [0.5, -1.0, -1.0], [1.0, 2.0, -1.0], [1.0, 2.0, 3.0]])
    rep = topics.Representation(codes, lambda C: rows)
    cfg = dataclasses.replace(_pipeline_cfg("efcm", 0), top_n=2)
    topic_set, _ = topics.cluster_topics(rep, _vocab(["a", "b", "c"]), cfg)
    assert [len(words) for words in topic_set.topics] == [0, 1, 2, 2]
    assert topic_set.warnings == [
        "topic 0: only 0 strictly positive weights available",
        "topic 1: only 1 strictly positive weights available",
    ]


def test_cluster_topics_seeds_fcm_once_through_the_topics_module(monkeypatch):
    # The traced benchmark times seeding and fitting by wrapping these two names
    # on the topics module; fcm_fit must not seed itself behind them.
    calls = []

    def recording(name, real):
        def call(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append((name, args, kwargs, result))
            return result
        return call

    monkeypatch.setattr(topics, "kmeans_init", recording("kmeans_init", fcm.kmeans_init))
    monkeypatch.setattr(topics, "fcm_fit", recording("fcm_fit", fcm.fcm_fit))
    monkeypatch.setattr(fcm, "kmeans_init", recording("fcm.kmeans_init", fcm.kmeans_init))
    rep = topics.Representation(np.random.default_rng(0).normal(size=(20, 2)), lambda C: C)
    topics.cluster_topics(rep, _vocab(["a", "b"]), _pipeline_cfg("efcm", 0))
    assert [name for name, *_ in calls] == ["kmeans_init", "fcm_fit"]
    (_, _, _, seeds), (_, args, kwargs, _) = calls
    init = kwargs["init"] if "init" in kwargs else args[2]
    assert init is seeds


def test_cluster_topics_result_does_not_keep_the_representation_alive():
    # What cluster_topics returns must not hold the back-map, and through it
    # a DFCM model, once the caller drops the representation.
    def representation(codes):
        basis = np.eye(codes.shape[1])  # referenced only by the back-map
        return topics.Representation(codes, lambda C: C @ basis), weakref.ref(basis)

    rep, basis = representation(np.random.default_rng(0).normal(size=(20, 2)))
    topic_set, fit = topics.cluster_topics(rep, _vocab(["a", "b"]), _pipeline_cfg("efcm", 0))
    assert len(topic_set.topics) == len(fit.centroids) == 3
    del rep
    gc.collect()
    assert basis() is None


class TestDfcmPipeline:
    def test_planted_recovery(self):
        sets, vocab, dtm, _ = planted_matrix(0)
        _, topic_set, _ = topics.detect(dtm, vocab, _pipeline_cfg("dfcm", 0))
        ok, fractions = topic_recovery(topic_set, sets)
        assert ok, f"per-topic matched fractions {fractions}"
        assert all(w > 0 for topic in topic_set.topics for _, w in topic)

    def test_single_topic_degenerate_count(self):
        sets, vocab, dtm, _ = planted_matrix(3, n_docs=90)
        train = TrainConfig(epochs=5, batch_size=256)
        cfg = topics.PipelineConfig(
            "dfcm", p=2, c=1, fcm=FcmConfig(c=1, f=1.1), train=train, top_n=10, seed=3
        )
        _, topic_set, _ = topics.detect(dtm, vocab, cfg)
        assert len(topic_set.topics) == 1

    def test_serialization_round_trip(self, tmp_path):
        sets, vocab, dtm, _ = planted_matrix(4)
        _, topic_set, _ = topics.detect(dtm, vocab, _pipeline_cfg("efcm", 4))
        path = tmp_path / "topics.json"
        topics.save_topic_set(topic_set, path)
        loaded = topics.load_topic_set(path)
        assert loaded.method == topic_set.method
        assert loaded.topics == topic_set.topics

    def test_end_to_end_determinism(self):
        sets, vocab, dtm, _ = planted_matrix(5)
        cfg = _pipeline_cfg("dfcm", 5, epochs=3)
        _, a_topics, a_fit = topics.detect(dtm, vocab, cfg)
        _, b_topics, b_fit = topics.detect(dtm, vocab, cfg)
        assert a_topics.topics == b_topics.topics
        np.testing.assert_array_equal(
            a_fit.memberships, b_fit.memberships
        )


class TestRepresent:
    @pytest.mark.parametrize("method", ["efcm", "dfcm"])
    def test_codes_do_not_depend_on_c(self, method):
        _, vocab, dtm, _ = planted_matrix(7)
        train = TrainConfig(epochs=2, batch_size=256)
        reps = [
            topics.represent(dtm, topics.PipelineConfig(method, p=5, c=c, train=train, seed=7))
            for c in (2, 3)
        ]
        assert reps[0].codes.tobytes() == reps[1].codes.tobytes()
        centroids = np.random.default_rng(0).normal(size=(2, 5))
        assert np.array_equal(reps[0].back_map(centroids), reps[1].back_map(centroids))
        if method == "dfcm":
            assert reps[0].train_trace == reps[1].train_trace


def test_pipeline_config_trains_for_dfcm_only():
    efcm, dfcm = (topics.PipelineConfig(m, train=TrainConfig(epochs=3), seed=2)
                  for m in ("efcm", "dfcm"))
    assert efcm.train is None
    assert dfcm.train == TrainConfig(epochs=3, seed=topics.PipelineConfig(seed=2).train.seed)


class TestPermutationInvariance:
    def test_document_shuffle_preserves_topic_content(self):
        # EFCM's stages depend on the point multiset, not document order.
        sets, vocab, dtm, _ = planted_matrix(6)
        _, topic_set, _ = topics.detect(dtm, vocab, _pipeline_cfg("efcm", 6))
        rng = np.random.default_rng(0)
        perm = rng.permutation(dtm.n_docs)
        shuffled = csr(dense(dtm)[perm])
        _, topic_set_p, _ = topics.detect(shuffled, vocab, _pipeline_cfg("efcm", 6))
        # Initialization samples points by index, so converged weights can
        # differ in the last digits; the recovered topic partition of the
        # planted vocabularies must not.
        ok, _ = topic_recovery(topic_set, sets)
        ok_p, _ = topic_recovery(topic_set_p, sets)
        assert ok and ok_p
