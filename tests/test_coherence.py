import functools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dfcm_topics import coherence, textprep
from dfcm_topics.errors import (
    MalformedLineError,
    TooFewKnownWordsError,
    ZeroVectorError,
)
from dfcm_topics.topics import TopicSet


def _store(pairs):
    return {k: np.asarray(v, dtype=float) for k, v in pairs.items()}


class TestLoadWordVectors:
    def test_with_header(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1 0\n")
        store = coherence.load_word_vectors(path)
        assert list(store) == ["a", "b"] and store["b"].shape == (3,)
        np.testing.assert_array_equal(store["a"], [1, 0, 0])

    def test_headerless(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0 0\nb 0 1 0\n")
        store = coherence.load_word_vectors(path)
        assert list(store) == ["a", "b"] and store["b"].shape == (3,)

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
        np.testing.assert_array_equal(store["a"], [1, 0])


def reference_load_word_vectors(path):
    """The whole-file line loop that the chunked loader must agree with."""
    vectors = {}
    count = dim = None
    found = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if lineno == 1 and len(fields) == 2 and all(p.isdecimal() for p in fields):
                try:
                    count, dim = int(fields[0]), int(fields[1])
                except ValueError as exc:
                    raise MalformedLineError(f"{path}: line 1: bad header ({exc})", 1) from exc
                if not dim:
                    raise MalformedLineError(f"{path}: line 1: embedding dimension is 0", 1)
                continue
            if not fields:
                continue
            found += 1
            term, values = fields[0], fields[1:]
            if dim is None:
                dim = len(values)
                if not dim:
                    raise MalformedLineError(
                        f"{path}: line {lineno}: embedding dimension is 0", lineno
                    )
            if len(values) != dim:
                raise MalformedLineError(
                    f"{path}: line {lineno}: expected {dim} values, got {len(values)}", lineno
                )
            if term in vectors:
                coherence.log.warning("duplicate term %r at line %d ignored", term, lineno)
                continue
            try:
                vectors[term] = np.array(values, dtype=np.float64)
            except ValueError as exc:
                raise MalformedLineError(
                    f"{path}: line {lineno}: non-numeric value ({exc})", lineno
                ) from exc
            if not np.isfinite(vectors[term]).all():
                raise MalformedLineError(f"{path}: line {lineno}: non-finite value", lineno)
    if dim is None or not vectors:
        raise MalformedLineError(f"{path}: embedding file is empty")
    if count is not None and count != found:
        raise MalformedLineError(f"{path}: header says {count} vectors, found {found}")
    return vectors


def _load_outcome(load, path, caplog):
    """What a loader returns or raises, with the warnings it logs; values as bits."""
    caplog.clear()
    try:
        store = load(path)
        result = (list(store), [v.tobytes() for v in store.values()])
    except MalformedLineError as exc:
        result = (type(exc), str(exc), exc.line_number)
    return result, [r.getMessage() for r in caplog.records]


def _restricted(outcome, words):
    """A loader outcome with its vectors restricted to words, in file order."""
    result, logs = outcome
    if not isinstance(result[0], list):  # an error is the same error
        return outcome
    terms, bits = result
    kept = [i for i, term in enumerate(terms) if term in words]
    return ([terms[i] for i in kept], [bits[i] for i in kept]), logs


def assert_chunked_load_matches_reference(path, caplog, words=None):
    """Every chunk size gives the reference's outcome, and a load of words
    (by default every other term of the file) gives it restricted to them."""
    expected = _load_outcome(reference_load_word_vectors, path, caplog)
    if words is None:
        words = set(expected[0][1][::2]) if isinstance(expected[0][0], int) else set()
    filtered = _restricted(expected, words)
    for chunk in (1, 2, 3, 64):
        with mock.patch.object(coherence, "VECTOR_CHUNK", chunk):
            assert _load_outcome(coherence.load_word_vectors, path, caplog) == expected, chunk
            load = functools.partial(coherence.load_word_vectors, words=words)
            assert _load_outcome(load, path, caplog) == filtered, chunk
    return expected[0]


_TERMS = ["a", "b", "c", "d", "e", "ä", "日本", "1", "x_y"]
_GOOD_VALUES = ["0", "1", "-0", "+1.5", "-2.25e-3", "5e-324"]
_NON_FINITE = ["nan", "-nan", "inf", "1e400"]  # numbers that no embedding may hold
_ODD_VALUES = ["1_0", "١٢", "１", "x", "0x10", "1e"]  # loadtxt takes none
_SEPARATORS = [" ", "  ", "\t", "\x0c", "\x1c", "\x85", "\xa0", "\u3000"]
_LONG = [f"w{i} {i} 1" for i in range(1, 71)]  # 70 lines; chunks end after 64


def _with_line(lines, lineno, text):
    return "\n".join(lines[: lineno - 1] + [text] + lines[lineno:]) + "\n"


@st.composite
def embedding_texts(draw):
    dim = draw(st.integers(0, 3))
    value = st.sampled_from(_GOOD_VALUES) | st.sampled_from(_ODD_VALUES + _NON_FINITE)
    term = st.sampled_from(_TERMS)
    line = st.one_of(
        st.tuples(term, st.lists(value, min_size=dim, max_size=dim)),
        st.tuples(term, st.lists(st.sampled_from(_GOOD_VALUES), min_size=dim, max_size=dim)),
        st.tuples(term, st.lists(value, max_size=4)),
        st.sampled_from(["", " "]),
    )
    sep = draw(st.sampled_from(_SEPARATORS))
    lines = [x if isinstance(x, str) else sep.join([x[0], *x[1]]) for x in draw(st.lists(line))]
    count = sum(1 for x in lines if x.strip())  # non-blank lines
    header = draw(st.sampled_from(["", f"{count} {dim}", f"{len(lines)} {dim}", "2 0", "3 2"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(([header] if header else []) + lines)
    return text + draw(st.sampled_from([newline, ""]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=embedding_texts())
@example(text="a 1_0 2\nb \u0661\u0662 3\n")
@example(text="a 1 2\nb 3 4\na 5 6\nc 7 8\n")  # a duplicate within a chunk of 64
def test_chunked_load_matches_line_loop(tmp_path, caplog, text):
    path = tmp_path / "vec.txt"
    path.write_bytes(text.encode("utf-8"))
    assert_chunked_load_matches_reference(path, caplog)


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=embedding_texts(), words=st.sets(st.sampled_from([*_TERMS, "w1", "zzz"])))
@example(text=_with_line(_LONG, 66, "w2 9 9"), words={"w2", "w66"})  # a skipped duplicate
def test_filtered_load_matches_line_loop(tmp_path, caplog, text, words):
    path = tmp_path / "vec.txt"
    path.write_bytes(text.encode("utf-8"))
    assert_chunked_load_matches_reference(path, caplog, words)


@pytest.mark.parametrize("text, error_line", [
    ("a 1_0 2\nb \u0661\u0662 3\n", None),
    ("a 1 2\nb 3 4\na 5 6\n", None),
    (_with_line(_LONG, 66, "w2 9 9"), None),  # a duplicate across the chunk boundary
    ("\na 1 2\n\n  \nb 3 4\n\n", None),
    ("a 1 2\r\nb 3 4\r\n", None),
    ("a 1 2\nb 3 4", None),
    ("2 2\na 1 2\nb 3 4\n", None),
    ("2 2\na 1 2\nb 3\n", 3),
    *[(f"a{sep}1{sep}2\nb{sep}3{sep}4\n", None)
      for sep in ["\t", " ", "\x0c", "\x1c", "\x85", "\xa0", "\u3000"]],
    *[(_with_line(_LONG, n, f"w{n} x 1"), n) for n in (64, 65, 66)],
    ("2 0\na\nb\n", 1),
    ("a\nb\n", 1),
    ("a 1 2\nb nan 4\n", 2),
    ("a 1 2\na inf 4\n", None),  # a repeated term is skipped unparsed
    *[(_with_line(_LONG, n, f"w{n} 1e400 1"), n) for n in (64, 65)],
], ids=["underscore-arabic-digits", "duplicate-in-chunk", "duplicate-across-chunks",
        "blank-lines", "crlf", "no-final-newline", "header", "header-short-line",
        "tab", "space", "form-feed", "file-separator", "next-line", "no-break-space",
        "ideographic-space", "bad-line-64", "bad-line-65", "bad-line-66", "zero-dim-header",
        "zero-dim-terms", "nan", "inf-duplicate", "overflow-64", "overflow-65"])
def test_chunked_load_examples(tmp_path, caplog, text, error_line):
    path = tmp_path / "vec.txt"
    path.write_bytes(text.encode("utf-8"))
    result = assert_chunked_load_matches_reference(path, caplog)
    if error_line is None:
        assert isinstance(result[0], list)
    else:
        assert result[0] is MalformedLineError and result[2] == error_line


def test_regular_chunks_skip_the_line_loop(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("3 2\n\u65e5\u672c 1 2\n\u00e4 3 4\nb 5 6\n", encoding="utf-8")
    with mock.patch.object(coherence, "_take_lines", side_effect=AssertionError):
        store = coherence.load_word_vectors(path)
    assert list(store) == ["\u65e5\u672c", "\u00e4", "b"]
    assert all(v.base is not None for v in store.values())  # row views of one block


def test_filtered_load_retains_the_kept_vectors_not_the_file(tmp_path):
    # One requested term per 64-line chunk, over 40 chunks.
    dim, chunks = 200, 40
    rng = np.random.default_rng(0)
    path = tmp_path / "vec.txt"
    with open(path, "w") as fh:
        for i in range(chunks * coherence.VECTOR_CHUNK):
            fh.write(f"w{i} {' '.join(map(repr, rng.normal(size=dim).tolist()))}\n")
    words = {f"w{i * coherence.VECTOR_CHUNK + 7}" for i in range(chunks)}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = coherence.load_word_vectors(path, words)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sorted(store) == sorted(words)
    kept = len(words) * dim * 8  # 64 kB, against 4.1 MB for the whole file
    assert kept <= retained < 1.5 * kept


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
    known = [store[w] for w in topic_words if w in store]
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
        score, _ = coherence.tc_w2v(list(store), store)
        assert -1.0 <= score <= 1.0

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(2)
        store = _store({f"w{i}": rng.normal(size=50) for i in range(30)})
        for _ in range(100):
            words = list(rng.choice(list(store), size=rng.integers(2, 12)))
            score, _ = coherence.tc_w2v(words, store)
            assert score == pytest.approx(reference_tc_w2v(words, store), abs=1e-15)

    def test_duplicate_words_contribute_unit_pairs(self):
        store = _store({"a": [1, 0], "b": [0, 1]})
        score, n = coherence.tc_w2v(["a", "a", "b"], store)
        # pairs: (a,a)=1, (a,b)=0, (a,b)=0 -> 1/3
        assert n == 3
        assert score == pytest.approx(1.0 / 3.0)


def _topic_set(word_lists):
    topics = [[(w, 1.0) for w in words] for words in word_lists]
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
        payload = json.loads(path.read_text())
        assert payload["mean_score"] == pytest.approx(report.mean_score)
        assert payload["per_topic"][0]["words_found"] == 2

    def test_no_scored_topic_writes_null_mean(self, tmp_path):
        store = _store({"a": [1, 0], "b": [1, 1]})
        report = coherence.evaluate(_topic_set([["a", "zzz"], ["yyy"]]), store)
        path = tmp_path / "report.json"
        coherence.save_report(report, path)
        payload = json.loads(path.read_text(), parse_constant=textprep.reject_non_finite)
        assert payload["mean_score"] is None
        assert payload["per_topic"] == [] and payload["skipped_topics"] == [0, 1]
