import copy
import functools
import json
import math
import os
import tempfile
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dfcm_topics import coherence, textprep, topics
from dfcm_topics.errors import EmptyVocabularyError, MalformedLineError

from conftest import (MATRIX_HEADER_CASES, MATRIX_HEADER_IDS, csr, dense, planted_corpus,
                      reference_vectorize_tfidf, token_stream)


def collapse_oracle(token):
    """Character-scan reference for the >=3-repeat -> 2 rule."""
    out = []
    for ch in token:
        if len(out) >= 2 and ch.isalpha() and out[-1] == ch and out[-2] == ch:
            continue
        out.append(ch)
    return "".join(out)


class TestCleanText:
    def test_url_mention_hashtag(self):
        assert (
            textprep.clean_text("Check https://x.co NOW @bob #energy")
            == "check now energy"
        )

    def test_empty(self):
        assert textprep.clean_text("") == ""

    def test_repeat_collapse(self):
        assert textprep.clean_text("soooo cooool") == "soo cool"

    def test_www_and_http_prefixes(self):
        assert textprep.clean_text("visit www.example.com or http://a.b") == "visit or"

    def test_digits_not_collapsed(self):
        assert textprep.clean_text("paid 10000 dollars") == "paid 10000 dollars"

    @given(st.text(alphabet="abco #@/:.wht123", max_size=40))
    def test_idempotent(self, s):
        once = textprep.clean_text(s)
        assert textprep.clean_text(once) == once

    @given(st.text(alphabet="abcdefgh", max_size=30))
    def test_collapse_matches_scan_oracle(self, tok):
        assert textprep.clean_text(tok) == collapse_oracle(tok)

    # Letter runs, hashtags, mentions, URL prefixes (one exposed only by the
    # collapse), digits, '_', letters whose case mapping changes length,
    # whitespace that str.split() breaks on but a plain space test would miss,
    # and punctuation that tokenize strips or keeps.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([
        "a", "aaa", "B", "BBBB", "ß", "ßßß", "İ", "İİİ", "#", "@", "www.", "wwww.",
        "http://", "https://", "htttp://", "htttps://", "hhttp://", "1", "111", "_", "___",
        ".", "x", " ", "\xa0", "\u3000", "\x1c", "\n", "!", "'", "-", "’", "…",
    ]), max_size=16).map("".join))
    def test_matches_per_token_reference(self, raw):
        assert textprep.clean_text(raw) == reference_clean_text(raw)
        # tokenize_corpus's id stream reads back the tokens of the cleaned text.
        stream = textprep.tokenize_corpus([raw])
        tokens = list(stream.index)
        assert [tokens[i] for i in stream.ids] == textprep.tokenize(reference_clean_text(raw))
        assert stream.starts.tolist() == [0, len(stream.ids)]

    # The first drop pass takes "www.x" before the collapse makes it "ww.x";
    # the second looks at the collapsed text, where "http" first appears in
    # "htttp://x". "wwww.x" and "a@b" hold the literals but start no dropped token.
    @pytest.mark.parametrize("raw, cleaned", [
        ("a htttp://x b", "a b"), ("a www.x b", "a b"), ("a wwww.x b", "a ww.x b"),
        ("a a@b b", "a a@b b"), ("a @@b #@x b", "a b"), ("hhttp://x y", "hhttp://x y"),
        ("wwwx htttx", "wwx httx"),
    ])
    def test_drop_passes_around_the_collapse(self, raw, cleaned):
        assert textprep.clean_text(raw) == cleaned == reference_clean_text(raw)


def reference_clean_text(raw):
    """The per-token loop clean_text used to run, one collapse per token: its oracle."""
    out = []
    for token in raw.lower().split():
        token = token.lstrip("#")
        if token.startswith(("www.", "http://", "https://", "@")):
            continue
        token = textprep._REPEAT_RE.sub(r"\1\1", token)
        if token.startswith(("www.", "http://", "https://", "@")):
            continue
        if token:
            out.append(token)
    return " ".join(out)


class TestTokenize:
    def test_punctuation_strip(self):
        assert textprep.tokenize("topic detection, again.") == [
            "topic",
            "detection",
            "again",
        ]

    def test_repeated_whitespace(self):
        assert textprep.tokenize("a  b") == ["a", "b"]

    def test_interior_apostrophe_kept(self):
        assert textprep.tokenize("don't stop") == ["don't", "stop"]


class TestThreshold:
    def test_small_corpus_floor(self):
        assert textprep.frequency_threshold(5000) == 10

    def test_large_corpus(self):
        assert textprep.frequency_threshold(50304) == 50


class TestBuildVocabulary:
    def test_pruning_on_toy_corpus(self):
        # "energy" in 11 of 12 docs; "solar" in 9; threshold is 10.
        docs = [["energy", "solar"] for _ in range(9)]
        docs += [["energy"], ["energy"], ["wind"]]
        vocab = textprep.build_vocabulary(token_stream(docs), set())
        assert vocab.terms == ["energy"]
        assert vocab.doc_freq == {"energy": 11}
        assert vocab.threshold == 10

    def test_stopwords_removed_before_threshold(self):
        docs = [["the", "energy"] for _ in range(12)]
        vocab = textprep.build_vocabulary(token_stream(docs), {"the"})
        assert vocab.terms == ["energy"]

    def test_empty_vocabulary_raises(self):
        with pytest.raises(EmptyVocabularyError):
            textprep.build_vocabulary(token_stream([["rare"]]), set())

    def test_terms_sorted_and_indexed(self):
        docs = [["b", "a"] for _ in range(10)]
        vocab = textprep.build_vocabulary(token_stream(docs), set())
        assert vocab.terms == ["a", "b"]
        assert vocab.index == {"a": 0, "b": 1}

    @pytest.mark.parametrize("terms", [["b", "a"], ["a", "a"], ["a", 1], ("a", "b"), "ab"],
                             ids=["unsorted", "repeated", "not-a-string", "tuple", "string"])
    def test_terms_must_be_unique_sorted_strings(self, terms):
        with pytest.raises(TypeError, match="^terms must be unique strings in sorted order$"):
            textprep.Vocabulary(terms, {}, 0)


def _unpruned_vocab(corpus):
    terms = sorted({t for doc in corpus for t in doc})
    df = {t: sum(1 for doc in corpus if t in doc) for t in terms}
    return textprep.Vocabulary(terms, df, 0)


class TestVectorizeTfidf:
    def test_hand_oracle_3x3(self):
        corpus = [["a", "a", "b"], ["a", "c"], ["b", "c"]]
        vocab = _unpruned_vocab(corpus)
        dtm = textprep.vectorize_tfidf(token_stream(corpus), vocab)
        # Independent spreadsheet-style computation.
        idf = {t: math.log((1 + 3) / (1 + vocab.doc_freq[t])) + 1 for t in "abc"}
        expected = np.array(
            [
                [2 * idf["a"], 1 * idf["b"], 0.0],
                [1 * idf["a"], 0.0, 1 * idf["c"]],
                [0.0, 1 * idf["b"], 1 * idf["c"]],
            ]
        )
        np.testing.assert_allclose(dense(dtm), expected, rtol=1e-15)

    def test_ubiquitous_term_idf_is_one(self):
        corpus = [["x"], ["x"], ["x"]]
        vocab = _unpruned_vocab(corpus)
        dtm = textprep.vectorize_tfidf(token_stream(corpus), vocab)
        np.testing.assert_allclose(dense(dtm), [[1.0], [1.0], [1.0]])

    def test_out_of_vocab_row_is_zero(self):
        corpus = [["a"], ["z"]]
        vocab = _unpruned_vocab([["a"]])
        dtm = textprep.vectorize_tfidf(token_stream(corpus), vocab)
        assert np.diff(dtm.indptr).tolist() == [1, 0]

    def test_nonnegative_and_no_stored_zeros(self):
        corpus = [["a", "b"], ["b", "c"], ["a", "c"]]
        vocab = _unpruned_vocab(corpus)
        dtm = textprep.vectorize_tfidf(token_stream(corpus), vocab)
        assert np.all(dtm.data > 0)

    def test_permutation_stability(self):
        corpus = [["a", "a", "b"], ["a", "c"], ["b", "c"]]
        vocab = _unpruned_vocab(corpus)
        base = dense(textprep.vectorize_tfidf(token_stream(corpus), vocab))
        perm = [2, 0, 1]
        shuffled = textprep.vectorize_tfidf(token_stream([corpus[i] for i in perm]), vocab)
        np.testing.assert_array_equal(dense(shuffled), base[perm])


def reference_build_vocabulary(corpus, stopwords):
    """The per-token counting loop build_vocabulary used to run: its oracle."""
    threshold = textprep.frequency_threshold(len(corpus))
    doc_freq = {}
    for tokens in corpus:
        for term in set(tokens):
            if term not in stopwords:
                doc_freq[term] = doc_freq.get(term, 0) + 1
    kept = sorted(t for t, df in doc_freq.items() if df >= threshold)
    return kept, {t: doc_freq[t] for t in kept}, threshold


def reference_tfidf(corpus, vocab):
    """The per-document count dict and triplet lists vectorize_tfidf used to
    build: its oracle."""
    n_docs, n_terms = len(corpus), len(vocab)
    idf = np.empty(n_terms)
    for term, j in vocab.index.items():
        idf[j] = np.log((1.0 + n_docs) / (1.0 + vocab.doc_freq[term])) + 1.0
    rows, cols, vals = [], [], []
    for d, tokens in enumerate(corpus):
        counts = {}
        for tok in tokens:
            j = vocab.index.get(tok)
            if j is not None:
                counts[j] = counts.get(j, 0) + 1
        for j, tf in counts.items():
            rows.append(d)
            cols.append(j)
            vals.append(tf * idf[j])
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(n_docs, n_terms), dtype=np.float64)
    mat.eliminate_zeros()
    return csr(mat)


def assert_canonical(mat):
    """The package's CSR dtypes and row pointers, and columns increasing within each row."""
    assert (mat.data.dtype, mat.indices.dtype, mat.indptr.dtype) == (np.float64, np.int32, np.int64)
    assert mat.indptr[0] == 0 and mat.indptr[-1] == len(mat.data) == len(mat.indices)
    assert len(mat.indptr) == mat.shape[0] + 1 and np.all(np.diff(mat.indptr) >= 0)
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    assert np.all((np.diff(rows) > 0) | (np.diff(mat.indices) > 0))


def assert_matches_reference(corpus, stopwords, vocab=None):
    """build_vocabulary (unless vocab is given) and vectorize_tfidf equal the
    reference loops exactly, errors included."""
    stream = token_stream(corpus)
    if vocab is None:
        expected = reference_build_vocabulary(corpus, stopwords)
        if not expected[0]:
            with pytest.raises(EmptyVocabularyError):
                textprep.build_vocabulary(stream, stopwords)
            return
        vocab = textprep.build_vocabulary(stream, stopwords)
        assert (vocab.terms, vocab.doc_freq, vocab.threshold) == expected
    got, want = textprep.vectorize_tfidf(stream, vocab), reference_tfidf(corpus, vocab)
    assert got.shape == want.shape
    assert_canonical(got)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestMatchesReferenceLoops:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("stopwords", [set(), {"topic0word00", "topic2word19", "absent"}])
    def test_planted_corpus(self, seed, stopwords):
        _, docs, _ = planted_corpus(seed)
        assert_matches_reference(docs, stopwords)

    @settings(max_examples=60, deadline=None)
    @given(
        corpus=st.lists(
            st.lists(st.sampled_from(["a", "b", "c", "the", "of", "rare"]), max_size=8),
            min_size=1, max_size=40,
        ),
        stopwords=st.sets(st.sampled_from(["a", "the", "of"])),
        block=st.sampled_from([1, 2, 5, textprep.ROW_BLOCK]),
    )
    def test_repeated_tokens_empty_documents_and_stopwords(self, corpus, stopwords, block):
        with mock.patch.object(textprep, "ROW_BLOCK", block):  # rows sorted a block at a time
            assert_matches_reference(corpus, stopwords)
            # A vocabulary from the first half leaves later documents without a term.
            assert_matches_reference(corpus, stopwords,
                                     _unpruned_vocab(corpus[: len(corpus) // 2 + 1]))


_WORDS = ["alpha", "beta", "gamma", "the", "of", "#tag", "sooo", "so", "www.x.y", "@bob",
          "htttp://x", "beta!", "İ"]


class TestPrepareCorpusMatchesOracle:
    # Ten documents at least, since a term needs ten to be kept; the examples
    # are an empty corpus and one whose only frequent terms are stopwords.
    @settings(max_examples=50, deadline=None)
    @given(texts=st.lists(st.lists(st.sampled_from(_WORDS), max_size=12).map(" ".join),
                          min_size=10, max_size=30),
           stopwords=st.sets(st.sampled_from(["the", "of", "alpha"])))
    @example(texts=[], stopwords=set())
    @example(texts=["the of beta"] * 10 + ["gamma"], stopwords={"the", "of", "beta"})
    def test_vocabulary_and_matrix_bits(self, texts, stopwords):
        with tempfile.TemporaryDirectory() as tmp:  # a fresh file per example
            path = os.path.join(tmp, "corpus.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps({"id": i, "text": t}) + "\n" for i, t in enumerate(texts))
            token_lists = [textprep.tokenize(textprep._clean(t)) for t in texts]
            terms, doc_freq, threshold = reference_build_vocabulary(token_lists, stopwords)
            if not terms:  # an empty corpus, or no term kept
                what = (f"no term occurs in at least {threshold} documents" if texts
                        else "corpus is empty")
                with pytest.raises(EmptyVocabularyError, match=f"^{what}$"):
                    textprep.prepare_corpus(path, stopwords)
                return
            got_vocab, got = textprep.prepare_corpus(path, stopwords)
        assert (got_vocab.terms, got_vocab.doc_freq, got_vocab.threshold) == (
            terms, doc_freq, threshold)
        vocab = textprep.Vocabulary(terms, doc_freq, threshold)
        want = reference_vectorize_tfidf(token_lists, vocab)
        assert got.shape == want.shape
        assert_canonical(got)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_traced_peak_per_token(self, tmp_path):
        # 1,000 documents of 40 tokens drawn from 300 distinct words, read from
        # a file. Read as one dict per line, then one token list per document,
        # the traced peak of read plus prepare was about 53 bytes per token; with
        # the texts read alone and freed once they are ids, it is about 22, and
        # about 21 with the package's own CSR build, which sorts its keys 2,048
        # entries at a time (28 at 8,192 entries a block).
        rng = np.random.default_rng(0)
        words = [f"term{j:03d}" for j in range(300)]
        n_docs, doc_len = 1000, 40
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(
            json.dumps({"id": d, "text": " ".join(rng.choice(words, size=doc_len))}) + "\n"
            for d in range(n_docs)))
        tracemalloc.start()
        try:
            textprep.prepare_corpus(path, set())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 30 * n_docs * doc_len


class TestCsrMatrix:
    @settings(max_examples=50, deadline=None)
    @given(shape=st.tuples(st.integers(0, 6), st.integers(1, 5)), density=st.floats(0, 1),
           data=st.data())
    def test_rows_match_scipys_dense_rows(self, shape, density, data):
        X = csr(sp.random(*shape, density=density, random_state=data.draw(st.integers(0, 99))))
        index = data.draw(st.lists(st.integers(0, max(shape[0] - 1, 0)), max_size=8)
                          if shape[0] else st.just([]))
        start, stop = data.draw(st.integers(0, shape[0])), data.draw(st.integers(0, shape[0]))
        for picked in (np.array(index, dtype=np.int64), slice(start, stop), slice(None),
                       slice(start, stop, 2), slice(stop, start, -1)):
            got = X.rows(picked)
            assert got.dtype == np.float64 and got.shape[1] == shape[1]
            assert np.array_equal(got, dense(X)[picked])


def reference_save_matrix(m, path):
    """The per-entry writer save_matrix used to run, one write per line: its oracle."""
    coo = sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape).tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m.n_docs} {m.n_terms} {coo.nnz}\n")
        for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{r} {c} {v:.17g}\n")


class TestSerialization:
    @pytest.mark.parametrize("chunk", [1, 2, 3, textprep.WRITE_CHUNK])
    @pytest.mark.parametrize("data, indices, indptr, shape", [
        ([5e-324, 0.1, 1e300, 2.5], [3, 0, 2, 1], [0, 0, 3, 3, 4, 4], (5, 4)),
        ([1.0, 1 / 3, 7.0], [2, 0, 1], [0, 3, 3], (2, 3)),
        ([], [], [0, 0, 0], (2, 3)),
    ], ids=["empty-rows-unsorted-tiny-huge", "unsorted-row", "zero-nnz"])
    def test_matrix_written_in_chunks_as_per_entry(self, tmp_path, monkeypatch,
                                                    chunk, data, indices, indptr, shape):
        dtm = csr((np.array(data), indices, indptr), shape=shape)
        reference_save_matrix(dtm, tmp_path / "want.txt")
        monkeypatch.setattr(textprep, "WRITE_CHUNK", chunk)
        textprep.save_matrix(dtm, tmp_path / "got.txt")
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()

    def test_matrix_round_trip(self, tmp_path):
        corpus = [["a", "a", "b"], ["a", "c"], ["b", "c"]]
        vocab = _unpruned_vocab(corpus)
        dtm = textprep.vectorize_tfidf(token_stream(corpus), vocab)
        path = tmp_path / "matrix.txt"
        textprep.save_matrix(dtm, path)
        loaded = textprep.load_matrix(path)
        assert loaded.n_docs == 3 and loaded.n_terms == 3
        np.testing.assert_array_equal(dense(loaded), dense(dtm))

    def test_traced_load_peak_per_entry(self, tmp_path):
        # A canonical file, as save_matrix writes it. The parsed entries take 24 bytes
        # each; scipy's build on top of them peaked at about 54 bytes per entry, and
        # the package's CSR arrays, with one comparison for the order, at about 38.
        rng = np.random.default_rng(0)
        X = csr(sp.random(2000, 300, density=0.05, random_state=rng))
        path = tmp_path / "matrix.txt"
        textprep.save_matrix(X, path)
        tracemalloc.start()
        try:
            loaded = textprep.load_matrix(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.data, X.data)
        assert peak < 40 * len(X.data)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(entries=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                      st.integers(0, 8).map(lambda w: w / 4)), max_size=14))
    def test_any_entry_order_loads_or_names_the_first_repeat(self, tmp_path, entries):
        """Against scipy's build of the same triplets, and the first line that repeats
        an earlier (row, col), found as np.unique's first occurrences: the oracles the
        loader used before it built its own arrays."""
        path = tmp_path / "matrix.txt"
        path.write_text(f"4 4 {len(entries)}\n" + "".join(f"{r} {c} {w}\n" for r, c, w in entries))
        keys = np.array([(r, c) for r, c, _ in entries], dtype=np.int64).reshape(-1, 2)
        _, first = np.unique(keys, axis=0, return_index=True)
        repeat = np.ones(len(entries), dtype=bool)
        repeat[first] = False
        if repeat.any():
            line = int(np.argmax(repeat)) + 2
            r, c, _ = entries[line - 2]
            with pytest.raises(MalformedLineError) as err:
                textprep.load_matrix(path)
            assert str(err.value) == f"{path}: line {line}: duplicate entry ({r}, {c})"
            assert err.value.line_number == line
            return
        got = textprep.load_matrix(path)
        assert_canonical(got)
        rows, cols, vals = zip(*entries) if entries else ((), (), ())
        want = csr((vals, (rows, cols)), shape=(4, 4))
        for name in ("data", "indices", "indptr"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_repeated_entry_is_summed_written_and_read_back(self, tmp_path):
        dtm = csr(([0.25, 2.0, 0.5], [1, 0, 1], [0, 3, 3]), shape=(2, 2))
        assert dtm.nnz == 2
        path = tmp_path / "matrix.txt"
        textprep.save_matrix(dtm, path)
        assert path.read_text() == "2 2 2\n0 0 2\n0 1 0.75\n"
        np.testing.assert_array_equal(dense(textprep.load_matrix(path)),
                                      [[2.0, 0.75], [0.0, 0.0]])

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 40)), max_size=6),
                         min_size=1, max_size=4))
    def test_every_matrix_round_trips(self, tmp_path, rows):
        """Unsorted indices and repeats included; quarter weights sum exactly in any order."""
        indptr = np.cumsum([0] + [len(row) for row in rows])
        entries = [entry for row in rows for entry in row]
        cols = np.array([col for col, _ in entries], dtype=np.int64)
        data = np.array([w / 4 for _, w in entries], dtype=np.float64)
        mat = csr((data, cols, indptr), shape=(len(rows), 4))
        path = tmp_path / "matrix.txt"
        textprep.save_matrix(mat, path)
        loaded = textprep.load_matrix(path)
        assert_canonical(loaded)
        np.testing.assert_array_equal(dense(loaded), dense(mat))

    @pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 12])
    @pytest.mark.parametrize("ending", ["\n", "\r\n", ""], ids=["lf", "crlf", "no-final-newline"])
    def test_matrix_parsed_in_chunks(self, tmp_path, monkeypatch, chunk, ending):
        lines = ["3 4 5", "0 0 0.5", "0 3 1e-3", "1 1 2", "2 0 0.25", "2 2 7.125"]
        path = tmp_path / "matrix.txt"
        path.write_bytes(((ending or "\n").join(lines) + ending).encode())
        monkeypatch.setattr(textprep, "ENTRY_CHUNK", chunk)
        got = dense(textprep.load_matrix(path))
        expected = np.zeros((3, 4))
        for line in lines[1:]:
            r, c, v = line.split()
            expected[int(r), int(c)] = float(v)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("chunk", [2, 1 << 12])
    @pytest.mark.parametrize("body, line, named", [
        ("0 0 0.5\n0 3 0.001 1\n1 2\n2 0 0.25\n2 2 7.125\n", 3, "expected 'row col weight'"),
        ("0 0 0.5\n0 3 0.001\n\n1 1 2\n2 0 0.25\n", 4, "expected 'row col weight'"),
        ("0 0 0.5\n0 3 0.001 ; 1 1 2\n2 0 0.25\n2 2 7.125\n", 3, "expected 'row col weight'"),
        ("0 0 0.5\n0 3 0.001\n1 1 2\n2.0 0 0.25\n2 2 7.125\n", 5, "2.0"),
    ], ids=["field-moved-across-lines", "blank-line", "semicolon", "float-index"])
    def test_off_matrix_line_is_named(self, tmp_path, monkeypatch, chunk, body, line, named):
        path = tmp_path / "matrix.txt"
        path.write_text("3 4 5\n" + body)
        monkeypatch.setattr(textprep, "ENTRY_CHUNK", chunk)
        with pytest.raises(MalformedLineError, match=named) as err:
            textprep.load_matrix(path)
        assert err.value.line_number == line

    @pytest.mark.parametrize("text, named", MATRIX_HEADER_CASES, ids=MATRIX_HEADER_IDS)
    def test_header_checked_before_entries_are_allocated(self, tmp_path, monkeypatch,
                                                         text, named):
        path = tmp_path / "matrix.txt"
        path.write_text(text)
        for name in ("loadtxt_chunk", "_parse_entries"):
            monkeypatch.setattr(textprep, name, mock.Mock(side_effect=AssertionError(name)))
        tracemalloc.start()
        try:
            with pytest.raises(MalformedLineError, match=named) as err:
                textprep.load_matrix(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(err.value).startswith(f"{path}: line 1: ")
        assert err.value.line_number == 1
        assert peak < 1 << 20

    def test_matrix_read_from_a_pipe(self, tmp_path):
        path = tmp_path / "matrix.fifo"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=("2 2 2\n0 0 1\n1 1 2\n",))
        writer.start()
        try:
            assert dense(textprep.load_matrix(path)).tolist() == [[1, 0], [0, 2]]
        finally:
            writer.join()

    def test_header_nnz_at_its_bounds_is_accepted(self, tmp_path):
        path = tmp_path / "matrix.txt"
        path.write_text("1 2 2\n0 0 1\n0 1 1")  # nnz = n_docs * n_terms; 6 * nnz < 17 bytes
        assert dense(textprep.load_matrix(path)).tolist() == [[1.0, 1.0]]

    def test_extra_field_on_unterminated_last_line_is_named(self, tmp_path):
        path = tmp_path / "matrix.txt"
        path.write_text("2 2 2\n0 0 0.5\n1 1 2 5")
        with pytest.raises(MalformedLineError, match="expected 'row col weight'") as err:
            textprep.load_matrix(path)
        assert err.value.line_number == 3

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        lines=st.lists(
            st.lists(st.sampled_from(["0", "1", "3", "0.5", "1e-3", "nan", "-1", "x", ";", "1_0"]),
                     max_size=5),
            max_size=8,
        ),
        sep=st.sampled_from([" ", "\t", "  "]),
        extra_nnz=st.integers(-2, 1),
        tail=st.sampled_from(["\n", "", "\n\n", "\n \n", "\n1 1 1\n"]),
    )
    def test_chunked_parse_agrees_with_line_loop(self, tmp_path, lines, sep, extra_nnz, tail):
        nnz = max(0, len(lines) + extra_nnz)
        body = "\n".join(sep.join(fields) for fields in lines)
        path = tmp_path / "matrix.txt"
        path.write_text(f"4 4 {nnz}\n{body}{tail}")

        def outcome():
            try:
                m = textprep.load_matrix(path)
                return m.indptr.tolist(), m.indices.tolist(), m.data.tolist()
            except MalformedLineError as exc:
                return str(exc), exc.line_number

        with mock.patch.object(textprep, "loadtxt_chunk", return_value=None):
            expected = outcome()  # the line loop alone
        for chunk in (1, 2, 1 << 12):
            with mock.patch.object(textprep, "ENTRY_CHUNK", chunk):
                assert outcome() == expected, chunk

    @pytest.mark.parametrize("chunk", [1, 2, 1 << 12])
    @pytest.mark.parametrize("entry, parsed", [
        ("1_0 0 0.5", (10, 0, 0.5)),  # int() and float() take these; numpy's reader does not
        ("0 \u0661\u0661 0.5", (0, 11, 0.5)),
        ("1 0 1_0.5", (1, 0, 10.5)),
        ("99999999999999999999 0 0.5", "Python int too large"),  # OverflowError in the loop
    ], ids=["underscore-index", "arabic-indic-index", "underscore-weight", "index-past-int64"])
    def test_entries_only_the_line_loop_reads(self, tmp_path, monkeypatch, chunk, entry, parsed):
        path = tmp_path / "matrix.txt"
        path.write_text(f"12 12 3\n0 0 1\n{entry}\n2 2 1\n", encoding="utf-8")
        monkeypatch.setattr(textprep, "ENTRY_CHUNK", chunk)
        if isinstance(parsed, str):
            with pytest.raises(MalformedLineError, match=parsed) as err:
                textprep.load_matrix(path)
            assert err.value.line_number == 3
            assert str(err.value).startswith(f"{path}: line 3: ")
        else:
            mat = textprep.load_matrix(path)
            assert len(mat.data) == 3 and dense(mat)[parsed[0], parsed[1]] == parsed[2]

    def test_regular_entries_skip_the_line_loop(self, tmp_path, monkeypatch):
        path = tmp_path / "entries.txt"
        path.write_text("3 3 3\n0 0 0.5\n1 2 3\n2 1 1e-3\n")
        monkeypatch.setattr(textprep, "ENTRY_CHUNK", 2)
        monkeypatch.setattr(textprep, "_parse_entries", mock.Mock(side_effect=AssertionError))
        mat = textprep.load_matrix(path)
        assert mat.indptr.tolist() == [0, 1, 2, 3] and mat.indices.tolist() == [0, 2, 1]
        assert mat.data.tolist() == [0.5, 3.0, 1e-3]

    def test_bad_line_in_last_chunk_reparses_only_that_chunk(self, tmp_path, monkeypatch):
        path = tmp_path / "matrix.txt"
        path.write_text("6 6 5\n0 0 1\n1 1 1\n2 2 1\n3 3 1\n4 4 x\n")
        monkeypatch.setattr(textprep, "ENTRY_CHUNK", 2)
        chunk_reader = mock.Mock(wraps=textprep.loadtxt_chunk)
        line_parser = mock.Mock(wraps=textprep._parse_entries)
        monkeypatch.setattr(textprep, "loadtxt_chunk", chunk_reader)
        monkeypatch.setattr(textprep, "_parse_entries", line_parser)
        with pytest.raises(MalformedLineError, match="line 6: could not convert") as err:
            textprep.load_matrix(path)
        assert err.value.line_number == 6
        assert chunk_reader.call_count == 3  # chunks of 2, 2 and 1 entries
        line_parser.assert_called_once_with(path, ["4 4 x\n"], 6)

    def test_vocabulary_round_trip(self, tmp_path):
        docs = [["b", "a"] for _ in range(10)]
        vocab = textprep.build_vocabulary(token_stream(docs), set())
        path = tmp_path / "vocab.json"
        textprep.save_vocabulary(vocab, path)
        loaded = textprep.load_vocabulary(path)
        assert loaded.terms == vocab.terms
        assert loaded.doc_freq == vocab.doc_freq
        assert loaded.threshold == vocab.threshold


class TestReadCorpus:
    def test_ids_equal_as_strings_collide(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": 5, "text": "a"}\n{"id": "5", "text": "b"}\n')
        with pytest.raises(MalformedLineError, match="line 2") as err:
            textprep.read_corpus_jsonl(path)
        assert err.value.line_number == 2
        assert str(path) in str(err.value)

    def test_integer_id_zero_is_the_id_0(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": 0, "text": "a b"}\n{"id": 1, "text": "c"}\n')
        assert textprep.read_corpus_jsonl(path) == ["a b", "c"]
        path.write_text('{"id": 0, "text": "a b"}\n{"id": "0", "text": "c"}\n')
        with pytest.raises(MalformedLineError, match='line 2: duplicate or empty document id "0"$'):
            textprep.read_corpus_jsonl(path)

    @pytest.mark.parametrize("empty", ['""', "null"])
    def test_empty_or_null_id_is_named(self, tmp_path, empty):
        path = tmp_path / "corpus.jsonl"
        path.write_text(f'{{"id": 0, "text": "a"}}\n{{"id": {empty}, "text": "b"}}\n')
        with pytest.raises(MalformedLineError) as err:
            textprep.read_corpus_jsonl(path)
        assert str(err.value) == f"{path}: line 2: duplicate or empty document id {empty}"
        assert err.value.line_number == 2

    def test_numeric_ids_read_as_their_string(self, tmp_path):
        # 1.0 and 1 are two ids: a number is read through str(), not compared as a
        # number. So "1", "1.0" and "1000.0" each repeat one of them.
        path = tmp_path / "corpus.jsonl"
        lines = '{"id": 1, "text": "a"}\n{"id": 1.0, "text": "b"}\n{"id": 1e3, "text": "c"}\n'
        path.write_text(lines)
        assert textprep.read_corpus_jsonl(path) == ["a", "b", "c"]
        for repeat in ['"1"', '"1.0"', '"1000.0"']:
            path.write_text(lines + f'{{"id": {repeat}, "text": "d"}}\n')
            with pytest.raises(MalformedLineError,
                               match=f"line 4: duplicate or empty document id {repeat}$"):
                textprep.read_corpus_jsonl(path)

    @pytest.mark.parametrize("line, constant", [
        ('{"id": NaN, "text": "a"}', "NaN"), ('{"id": 2, "text": Infinity}', "Infinity"),
        ('{"id": 2, "text": -Infinity}', "-Infinity"),
    ])
    def test_non_finite_constant_is_named(self, tmp_path, line, constant):
        path = tmp_path / "corpus.jsonl"
        path.write_text(f'{{"id": 1, "text": "a"}}\n{line}\n')
        with pytest.raises(MalformedLineError) as err:
            textprep.read_corpus_jsonl(path)
        assert str(err.value) == f"{path}: line 2: invalid JSON (non-finite number {constant})"
        assert err.value.line_number == 2


class TestStopwords:
    def test_packaged_defaults(self):
        en = textprep.load_stopwords("en")
        idn = textprep.load_stopwords("id")
        assert "the" in en and "and" in en
        assert "yang" in idn and "dan" in idn

    def test_file_list(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_text("foo\nbar\n\n")
        assert textprep.load_stopwords(path) == {"foo", "bar"}


_FRAGMENTS = ['{"id": 1, "text": "a b"}', '{"id": "", "text": 1}', '{"id": [1]}', "[]",
              "2 3", "w 1 0 0", "w 1e400 nan -0 1_0", "\u00b3", "\u0661\u0662", "0x10",
              "1" * 4400, "\n", "\r\n", " ", "\t", '"', "{", "}", ":", ","]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)
_VALID_JSON = [  # one valid payload of each JSON input
    {"id": 1, "text": "a b"},
    {"terms": ["a", "b"], "doc_freq": {"a": 10, "b": 12}, "threshold": 10},
    {"method": "efcm", "config": {"c": 1}, "warnings": [],
     "topics": [{"index": 0, "words": [{"term": "a", "weight": 0.5}]}]},
]


@st.composite
def _near_valid(draw, value):
    """value with one entry, at any depth, dropped or replaced by arbitrary JSON."""
    if not (isinstance(value, (dict, list)) and value) or not draw(st.integers(0, 4)):
        return draw(_JSON)
    value = copy.copy(value)
    key = draw(st.sampled_from(list(value) if isinstance(value, dict) else range(len(value))))
    if draw(st.integers(0, 4)):  # mostly deeper
        value[key] = draw(_near_valid(value[key]))
    else:
        del value[key]
    return value


@pytest.mark.parametrize("load", [textprep.read_corpus_jsonl, coherence.load_word_vectors,
                                  textprep.load_vocabulary, topics.load_topic_set,
                                  pytest.param(functools.partial(coherence.load_word_vectors,
                                                                 words={"w"}),
                                               id="load_word_vectors-filtered")])
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.text() | st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join)
       | (_JSON | st.sampled_from(_VALID_JSON).flatmap(_near_valid)).map(json.dumps))
@example(text="2 \u00b3\nw 1\n")  # a superscript passes isdigit() but not int()
@example(text=f'{{"id": {"1" * 4400}, "text": "a"}}\n')  # past int()'s digit limit
@example(text=f"2 {'1' * 4400}\nw 1\n")
def test_loader_returns_or_raises_malformed_line(tmp_path, load, text):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    try:
        load(path)
    except MalformedLineError as exc:
        assert str(path) in str(exc)
        assert str(exc).startswith(f"{path}: ")
        assert exc.line_number is None or 1 <= exc.line_number <= len(text.splitlines()) + 1
