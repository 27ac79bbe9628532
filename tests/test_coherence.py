import math

import numpy as np
import pytest

from dfcm_topics import coherence
from dfcm_topics.errors import (
    MalformedLineError,
    TooFewKnownWordsError,
    ZeroVectorError,
)
from dfcm_topics.topics import Topic, TopicSet


def _store(pairs):
    return coherence.WordVectorStore(
        len(next(iter(pairs.values()))),
        {k: np.asarray(v, dtype=float) for k, v in pairs.items()},
    )


class TestLoadWordVectors:
    def test_with_header(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1 0\n")
        store = coherence.load_word_vectors(path)
        assert store.dim == 3 and len(store) == 2
        np.testing.assert_array_equal(store.vectors["a"], [1, 0, 0])

    def test_headerless(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0 0\nb 0 1 0\n")
        store = coherence.load_word_vectors(path)
        assert store.dim == 3 and len(store) == 2

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0 0\nb 1 0\n")
        with pytest.raises(MalformedLineError) as err:
            coherence.load_word_vectors(path)
        assert err.value.line_number == 2
        assert str(path) in str(err.value)

    def test_expected_dim_mismatch(self, tmp_path):
        # The header's dim is the expected length of every vector.
        path = tmp_path / "vec.txt"
        path.write_text("2 5\na 1 0 0\nb 0 1 0\n")
        with pytest.raises(MalformedLineError, match="expected 5 values, got 3") as err:
            coherence.load_word_vectors(path)
        assert err.value.line_number == 2
        assert str(path) in str(err.value)

    def test_duplicate_keeps_first(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0\na 0 1\n")
        store = coherence.load_word_vectors(path)
        np.testing.assert_array_equal(store.vectors["a"], [1, 0])


class TestCosine:
    """The pairwise cosine inside tc_w2v, on two-word topics."""

    def test_self_similarity(self):
        v = [1.0, 2.0, -1.0]
        score, _ = coherence.tc_w2v(["a", "b"], _store({"a": v, "b": v}))
        assert score == pytest.approx(1.0)

    def test_orthogonal(self):
        score, _ = coherence.tc_w2v(["a", "b"], _store({"a": [1.0, 0.0], "b": [0.0, 1.0]}))
        assert score == 0.0

    def test_hand_value(self):
        score, _ = coherence.tc_w2v(["a", "b"], _store({"a": [3.0, 4.0], "b": [4.0, 3.0]}))
        assert score == pytest.approx(24.0 / 25.0, abs=1e-12)

    def test_zero_vector(self):
        store = _store({"a": [1.0, 0.0], "b": [1.0, 1.0], "z": [0.0, 0.0]})
        for words in (["z", "b"], ["a", "b", "z"], ["zzz", "a", "z"]):
            with pytest.raises(ZeroVectorError):
                coherence.tc_w2v(words, store)


def reference_tc_w2v(topic_words, store):
    """The pairwise loop tc_w2v used to run: its oracle up to rounding."""
    known = [store.vectors[w] for w in topic_words if w in store]
    total = 0.0
    for j in range(1, len(known)):
        for i in range(j):
            u, v = known[i], known[j]
            total += float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
    return total / (len(known) * (len(known) - 1) / 2)


class TestTcW2v:
    def test_identical_vectors_score_one(self):
        store = _store({"a": [1, 2], "b": [1, 2], "c": [1, 2]})
        score, n = coherence.tc_w2v(["a", "b", "c"], store)
        assert score == pytest.approx(1.0)
        assert n == 3

    def test_three_word_hand_oracle(self):
        s = 1.0 / math.sqrt(2.0)
        store = _store({"a": [1, 0], "b": [0, 1], "c": [s, s]})
        score, _ = coherence.tc_w2v(["a", "b", "c"], store)
        assert score == pytest.approx(0.47140452, abs=1e-6)

    def test_two_words_is_single_cosine(self):
        store = _store({"a": [1, 0], "b": [1, 1]})
        score, _ = coherence.tc_w2v(["a", "b"], store)
        assert score == pytest.approx(1.0 / math.sqrt(2.0))

    def test_unknown_words_skipped(self):
        store = _store({"a": [1, 0], "b": [0, 1]})
        score, n = coherence.tc_w2v(["a", "b", "zzz"], store)
        assert n == 2
        assert score == pytest.approx(0.0)

    def test_too_few_known_words(self):
        store = _store({"a": [1, 0]})
        with pytest.raises(TooFewKnownWordsError):
            coherence.tc_w2v(["a", "zzz"], store)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        store = _store({f"w{i}": rng.normal(size=4) for i in range(6)})
        words = [f"w{i}" for i in range(6)]
        base, _ = coherence.tc_w2v(words, store)
        for _ in range(100):
            rng.shuffle(words)
            score, _ = coherence.tc_w2v(words, store)
            assert score == pytest.approx(base, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        store = _store({f"w{i}": rng.normal(size=3) for i in range(8)})
        score, _ = coherence.tc_w2v(list(store.vectors), store)
        assert -1.0 <= score <= 1.0

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(2)
        store = _store({f"w{i}": rng.normal(size=50) for i in range(30)})
        for _ in range(100):
            words = list(rng.choice(list(store.vectors), size=rng.integers(2, 12)))
            score, _ = coherence.tc_w2v(words, store)
            assert score == pytest.approx(reference_tc_w2v(words, store), abs=1e-15)

    def test_duplicate_words_contribute_unit_pairs(self):
        store = _store({"a": [1, 0], "b": [0, 1]})
        score, n = coherence.tc_w2v(["a", "a", "b"], store)
        # pairs: (a,a)=1, (a,b)=0, (a,b)=0 -> 1/3
        assert n == 3
        assert score == pytest.approx(1.0 / 3.0)


def _topic_set(word_lists):
    topics = [Topic([(w, 1.0) for w in words]) for words in word_lists]
    return TopicSet(topics, "efcm", {})


class TestEvaluate:
    def test_identical_topics_mean_equals_score(self):
        store = _store({"a": [1, 0], "b": [1, 1]})
        report = coherence.evaluate(_topic_set([["a", "b"], ["a", "b"]]), store)
        assert report.mean_score == pytest.approx(report.per_topic[0][1])

    def test_skipped_topic_excluded_from_mean(self):
        store = _store({"a": [1, 0], "b": [1, 0], "c": [0, 1]})
        report = coherence.evaluate(
            _topic_set([["a", "b"], ["zzz", "yyy"], ["a", "c"]]), store
        )
        assert report.skipped_topics == [1]
        scores = [s for _, s, _ in report.per_topic]
        assert report.mean_score == pytest.approx(float(np.mean(scores)))

    def test_report_round_trip(self, tmp_path):
        store = _store({"a": [1, 0], "b": [1, 1]})
        report = coherence.evaluate(_topic_set([["a", "b"]]), store)
        path = tmp_path / "report.json"
        coherence.save_report(report, path)
        import json

        payload = json.loads(path.read_text())
        assert payload["mean_score"] == pytest.approx(report.mean_score)
        assert payload["per_topic"][0]["words_found"] == 2
