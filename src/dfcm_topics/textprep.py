"""Text cleaning, vocabulary construction and TF-IDF vectorization.

Turns raw documents into the sparse nonnegative document-term matrix
consumed by both topic-detection pipelines.
"""

import collections
import contextlib
import itertools
import json
import os
import re
import string
import warnings
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
import scipy.sparse as sp

from .errors import EmptyVocabularyError, MalformedLineError

# Any unicode letter repeated 3+ times; digits and punctuation are left alone.
_REPEAT_RE = re.compile(r"([^\W\d_])\1{2,}", re.UNICODE)
# A token (after any '#') that starts like a URL or an @user mention, to drop.
_DROP_RE = re.compile(r"(?<!\S)#*(?:www\.|https?://|@)\S*")
_HASHES_RE = re.compile(r"(?<!\S)#+")  # a token's leading '#'s
_SURROGATE_RE = re.compile("[\ud800-\udfff]")  # JSON can hold "\ud800" alone; UTF-8 cannot
_STRIP_CHARS = string.punctuation + "‘’“”…"
ENTRY_CHUNK = 256  # matrix lines per np.loadtxt call
WRITE_CHUNK = 16384  # matrix lines formatted per write
_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("weight", np.float64)])


def _clean(raw: str) -> str:
    """Lowered raw text without URL-like and @user tokens, letter runs collapsed.

    Hashtags keep their '#'. Dropping before the collapse catches "wwww.x",
    after it "htttp://x", so cleaning is a fixed point. Neither the drop nor
    the collapse touches whitespace, so the tokens stay where they were.
    """
    text = _DROP_RE.sub("", raw.lower())
    return _DROP_RE.sub("", _REPEAT_RE.sub(r"\1\1", text))


def clean_text(raw: str) -> str:
    """Lowercase and strip web noise from a raw document.

    Removes URL-like and @user tokens, strips leading '#' from hashtags,
    and collapses runs of 3+ identical letters down to 2. The result is
    a single-space-joined token string; cleaning is idempotent.
    """
    return " ".join(_HASHES_RE.sub("", _clean(raw)).split())


def tokenize(text: str) -> list[str]:
    """Split cleaned text on whitespace and strip surrounding punctuation.

    Interior apostrophes and hyphens are kept ("don't", "e-mail").
    """
    return [tok for word in text.split() if (tok := word.strip(_STRIP_CHARS))]


@dataclass
class Vocabulary:
    """Pruned term set of a corpus: unique strings in sorted order, the topic-word tie-break."""

    terms: list[str]
    doc_freq: dict[str, int]
    threshold: int
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        terms, df = self.terms, self.doc_freq
        if not (isinstance(terms, list) and all(isinstance(t, str) for t in terms)
                and all(a < b for a, b in zip(terms, terms[1:]))):
            raise TypeError("terms must be unique strings in sorted order")
        if any(map(_SURROGATE_RE.search, terms)):
            raise TypeError("a term has a lone surrogate (not UTF-8)")
        if not (isinstance(df, dict) and all(isinstance(t, str) for t in df)
                and all(type(n) is int and n >= 0 for n in (*df.values(), self.threshold))):
            raise TypeError("doc_freq must map strings to ints >= 0, and threshold be an int >= 0")
        self.index = {term: i for i, term in enumerate(terms)}

    def __len__(self):
        return len(self.terms)


def frequency_threshold(n_docs: int) -> int:
    """Minimum document frequency for a term to survive pruning."""
    return max(10, n_docs // 1000)


def build_vocabulary(corpus: list[list[str]], stopwords: set[str]) -> Vocabulary:
    """Build the pruned vocabulary of a tokenized corpus.

    Stopwords are removed first; the document-frequency threshold
    max(10, m // 1000) then applies to content terms only.
    """
    if not corpus:
        raise EmptyVocabularyError("corpus is empty")
    threshold = frequency_threshold(len(corpus))
    doc_freq = collections.Counter(itertools.chain.from_iterable(map(set, corpus)))
    kept = sorted(t for t, df in doc_freq.items() if df >= threshold and t not in stopwords)
    if not kept:
        raise EmptyVocabularyError(
            f"no term occurs in at least {threshold} documents"
        )
    return Vocabulary(kept, {t: doc_freq[t] for t in kept}, threshold)


@dataclass
class DocTermMatrix:
    """Sparse nonnegative TF-IDF matrix, documents x terms; canonicalizes the given CSR in place."""

    matrix: sp.csr_matrix

    def __post_init__(self):
        self.matrix.sum_duplicates()  # sorts indices, sums repeats; a flag check once canonical

    @property
    def n_docs(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_terms(self) -> int:
        return self.matrix.shape[1]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz


def vectorize_tfidf(corpus: list[list[str]], vocab: Vocabulary) -> DocTermMatrix:
    """TF-IDF weight the corpus against a fixed vocabulary.

    tf is the raw in-document count, idf the smoothed ln((1+N)/(1+df)) + 1.
    Out-of-vocabulary tokens are ignored.
    """
    n_docs = len(corpus)
    df = np.array([vocab.doc_freq[term] for term in vocab.terms], dtype=np.float64)
    idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
    index = vocab.index
    ids = [[index[tok] for tok in tokens if tok in index] for tokens in corpus]
    indptr = np.cumsum([0] + [len(row) for row in ids])
    cols = np.fromiter(itertools.chain.from_iterable(ids), np.int64, indptr[-1])
    mat = sp.csr_matrix((np.ones(len(cols)), cols, indptr), shape=(n_docs, len(vocab)))
    dtm = DocTermMatrix(mat)  # repeated term ids become counts
    dtm.matrix.data *= idf[dtm.matrix.indices]
    return dtm


@contextlib.contextmanager
def open_text(path):
    """Open a UTF-8 file to read; an undecodable byte raises MalformedLineError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise MalformedLineError.at(path, f"not UTF-8 text ({exc})") from exc


def load_stopwords(path) -> set[str]:
    """Read a one-term-per-line stopword file.

    The shipped defaults are addressable by language code: "en" or "id".
    """
    if path in ("en", "id"):
        data = resources.files("dfcm_topics.data").joinpath(f"stopwords_{path}.txt")
        return {line.strip() for line in data.read_text("utf-8").splitlines() if line.strip()}
    with open_text(path) as fh:
        return {line.strip() for line in fh if line.strip()}


def read_corpus_jsonl(path) -> list[dict]:
    """Read a JSON-lines corpus of {"id": ..., "text": ...} objects."""
    docs = []
    seen = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:  # bad JSON, huge int, deep nesting
                raise MalformedLineError.at(path, f"invalid JSON ({exc})", lineno) from exc
            if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
                raise MalformedLineError.at(path, "expected object with 'id' and 'text'", lineno)
            doc_id = str(obj["id"])  # 5 and "5" are the same id
            if obj["id"] is None or not doc_id or doc_id in seen:  # 0 is the id "0"
                what = f"duplicate or empty document id {obj['id']!r}"
                raise MalformedLineError.at(path, what, lineno)
            seen.add(doc_id)
            text = str(obj["text"])
            if not text.isascii() and _SURROGATE_RE.search(text):
                raise MalformedLineError.at(path, "text has a lone surrogate (not UTF-8)", lineno)
            docs.append({"id": doc_id, "text": text})
    return docs


def save_vocabulary(vocab: Vocabulary, path) -> None:
    save_json(
        path,
        {"terms": vocab.terms, "doc_freq": vocab.doc_freq, "threshold": vocab.threshold},
    )


def save_json(path, payload) -> None:
    """Write payload as UTF-8 JSON: sorted keys, 2-space indent, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


def reject_non_finite(constant):
    """json's parse_constant hook: NaN, Infinity and -Infinity are not numbers here."""
    raise ValueError(f"non-finite number {constant}")


def load_json(path, build):
    """Parse a JSON file and return build(payload).

    Invalid JSON, or a key that build misses or finds of the wrong type,
    raises MalformedLineError naming the file.
    """
    try:
        with open_text(path) as fh:
            return build(json.load(fh, parse_constant=reject_non_finite))
    except (ValueError, RecursionError) as exc:  # bad JSON, huge int, deep nesting
        line = getattr(exc, "lineno", None)
        raise MalformedLineError(f"{path}: invalid JSON ({exc})", line) from exc
    except KeyError as exc:
        raise MalformedLineError.at(path, f"missing key {exc}") from exc
    except TypeError as exc:
        raise MalformedLineError.at(path, f"malformed content ({exc})") from exc


def load_vocabulary(path) -> Vocabulary:
    """Read a save_vocabulary file; Vocabulary checks its terms."""
    return load_json(path, lambda d: Vocabulary(d["terms"], d["doc_freq"], d["threshold"]))


def save_matrix(dtm: DocTermMatrix, path) -> None:
    """Write the sparse triplet text format.

    Header line `n_docs n_terms nnz`, then one `row col weight` line per
    stored entry in (row, col) order, weights printed with 17 significant digits.
    """
    coo = dtm.matrix.tocoo()  # in stored order: the canonical CSR's is (row, col)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{dtm.n_docs} {dtm.n_terms} {coo.nnz}\n")
        for start in range(0, coo.nnz, WRITE_CHUNK):
            at = slice(start, start + WRITE_CHUNK)
            entries = zip(coo.row[at].tolist(), coo.col[at].tolist(), coo.data[at].tolist())
            fh.write("".join(map("%d %d %.17g\n".__mod__, entries)))


def loadtxt_chunk(lines, dtype, **kwargs):
    """np.loadtxt over a chunk of lines, or None if numpy's C reader rejects
    one; the caller's line-by-line parse then names the line or takes it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a chunk of blank lines has no data
        # numpy < 2 parses an index like 2.0 via float, with only this warning.
        warnings.simplefilter("error", DeprecationWarning)
        try:  # encoding=None: numpy < 2 hands converters latin-1 bytes, failing on other scripts
            return np.loadtxt(lines, dtype, comments=None, encoding=None, **kwargs)
        except (ValueError, DeprecationWarning):  # also values int() takes, e.g. 1_0
            return None


def _parse_entries(path, lines, first) -> np.ndarray:
    """Parse entry lines one by one from line number first, naming a bad line."""
    block = np.empty(len(lines), _ENTRY)
    for i, line in enumerate(lines):
        lineno, parts = first + i, line.split()
        if len(parts) != 3:
            raise MalformedLineError.at(path, "expected 'row col weight'", lineno)
        try:
            block[i] = int(parts[0]), int(parts[1]), float(parts[2])
        except (ValueError, OverflowError) as exc:  # overflow: an index past int64
            raise MalformedLineError.at(path, exc, lineno) from exc
    return block


def load_matrix(path) -> DocTermMatrix:
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise MalformedLineError.at(path, "header must be 'n_docs n_terms nnz'", 1)
        try:
            n_docs, n_terms, nnz = (int(x) for x in header)
        except ValueError as exc:
            raise MalformedLineError.at(path, exc, 1) from exc
        if min(n_docs, n_terms, nnz) < 0:
            raise MalformedLineError.at(path, "header counts must be >= 0", 1)
        if nnz > n_docs * n_terms:
            raise MalformedLineError.at(path, f"nnz {nnz} exceeds {n_docs} x {n_terms}", 1)
        size = os.fstat(fh.fileno()).st_size  # known only for a seekable file, not a pipe
        if fh.seekable() and 6 * nnz > size:  # an entry line is >= 6 bytes: "0 0 1" and "\n"
            raise MalformedLineError.at(path, f"{nnz} entries cannot fit in {size} bytes", 1)
        entries = np.empty(nnz, _ENTRY)
        for start in range(0, nnz, ENTRY_CHUNK):  # entry i is on line i + 2
            k = min(ENTRY_CHUNK, nnz - start)
            lines = list(itertools.islice(fh, k))
            block = loadtxt_chunk(lines, _ENTRY, ndmin=1)
            if block is None or len(block) < k:  # short: a blank line or the file's end
                block = _parse_entries(path, lines + [""] * (k - len(lines)), start + 2)
            entries[start : start + k] = block
        rest = fh.read()
    rows, cols, vals = entries["row"], entries["col"], entries["weight"]
    if rest.strip():
        line = nnz + 2 + rest[: len(rest) - len(rest.lstrip())].count("\n")
        raise MalformedLineError.at(path, f"entry past the header's nnz {nnz}", line)
    # Checked on whole arrays, which keeps per-line work out of the parse loop.
    for bad, what in (
        ((rows < 0) | (rows >= n_docs), f"row index outside [0, {n_docs})"),
        ((cols < 0) | (cols >= n_terms), f"column index outside [0, {n_terms})"),
        (~np.isfinite(vals) | (vals < 0), "weight must be finite and >= 0"),
    ):
        if bad.any():
            line = int(np.argmax(bad)) + 2
            raise MalformedLineError.at(path, what, line)
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(n_docs, n_terms))
    if mat.nnz < nnz:  # scipy summed duplicate (row, col) entries into one
        _, first = np.unique(np.stack([rows, cols], axis=1), axis=0, return_index=True)
        dup = np.ones(nnz, dtype=bool)
        dup[first] = False
        line = int(np.argmax(dup)) + 2
        where = f"({rows[line - 2]}, {cols[line - 2]})"
        raise MalformedLineError.at(path, f"duplicate entry {where}", line)
    return DocTermMatrix(mat)


def prepare_corpus(docs: list[dict], stopwords: set[str]):
    """Clean, tokenize, build vocabulary and vectorize in one pass."""
    token_lists = [tokenize(_clean(d["text"])) for d in docs]  # '#' is in _STRIP_CHARS
    vocab = build_vocabulary(token_lists, stopwords)
    return vocab, vectorize_tfidf(token_lists, vocab)
