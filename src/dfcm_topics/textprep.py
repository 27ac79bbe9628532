"""Text cleaning, vocabulary construction and TF-IDF vectorization.

Turns raw documents into the sparse nonnegative document-term matrix
consumed by both topic-detection pipelines.
"""

import collections
import contextlib
import itertools
import json
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
_DROP_PREFIXES = ("www.", "http://", "https://", "@")  # URLs and @user mentions
_STRIP_CHARS = string.punctuation + "‘’“”…"
ENTRY_CHUNK = 256  # matrix lines per np.loadtxt call
WRITE_CHUNK = 16384  # matrix lines formatted per write
_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("weight", np.float64)])


def clean_text(raw: str) -> str:
    """Lowercase and strip web noise from a raw document.

    Removes URL-like and @user tokens, strips leading '#' from hashtags,
    and collapses runs of 3+ identical letters down to 2. The result is
    a single-space-joined token string; cleaning is idempotent.
    """
    lowered = raw.lower()
    # A collapse never touches whitespace or '#', so both splits pair up token by token.
    collapsed = _REPEAT_RE.sub(r"\1\1", lowered)
    out = []
    for before, token in zip(lowered.split(), collapsed.split()):
        token = token.lstrip("#")
        # Check before ("www.x") and after ("htttp://x") the collapse, so
        # cleaning is a fixed point.
        if before.lstrip("#").startswith(_DROP_PREFIXES) or token.startswith(_DROP_PREFIXES):
            continue
        if token:
            out.append(token)
    return " ".join(out)


def tokenize(text: str) -> list[str]:
    """Split cleaned text on whitespace and strip surrounding punctuation.

    Interior apostrophes and hyphens are kept ("don't", "e-mail").
    """
    tokens = []
    for tok in text.split():
        tok = tok.strip(_STRIP_CHARS)
        if tok:
            tokens.append(tok)
    return tokens


@dataclass
class Vocabulary:
    """Pruned, lexicographically ordered term set of a corpus."""

    terms: list[str]
    doc_freq: dict[str, int]
    threshold: int
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {term: i for i, term in enumerate(self.terms)}

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
    """Sparse nonnegative TF-IDF matrix, documents x vocabulary terms."""

    matrix: sp.csr_matrix

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
    mat.sum_duplicates()  # repeated term ids become counts, indices sorted
    mat.data *= idf[mat.indices]
    return DocTermMatrix(mat)


@contextlib.contextmanager
def open_text(path):
    """Open a UTF-8 file to read; an undecodable byte raises MalformedLineError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise MalformedLineError(f"{path}: not UTF-8 text ({exc})") from exc


def load_stopwords(path) -> set[str]:
    """Read a one-term-per-line stopword file.

    The shipped defaults are addressable by language code: "en" or "id".
    """
    if path in ("en", "id"):
        return default_stopwords(path)
    with open_text(path) as fh:
        return {line.strip() for line in fh if line.strip()}


def default_stopwords(lang: str) -> set[str]:
    """Packaged default stopword list ("en" or "id")."""
    data = resources.files("dfcm_topics.data").joinpath(f"stopwords_{lang}.txt")
    return {line.strip() for line in data.read_text("utf-8").splitlines() if line.strip()}


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
                raise MalformedLineError(
                    f"{path}: line {lineno}: invalid JSON ({exc})", lineno
                ) from exc
            if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
                raise MalformedLineError(
                    f"{path}: line {lineno}: expected object with 'id' and 'text'",
                    lineno,
                )
            doc_id = str(obj["id"])  # 5 and "5" are the same id
            if obj["id"] is None or not doc_id or doc_id in seen:  # 0 is the id "0"
                raise MalformedLineError(
                    f"{path}: line {lineno}: duplicate or empty document id {obj['id']!r}",
                    lineno,
                )
            seen.add(doc_id)
            docs.append({"id": doc_id, "text": str(obj["text"])})
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


def load_json(path, build):
    """Parse a JSON file and return build(payload).

    Invalid JSON, or a key that build misses or finds of the wrong type,
    raises MalformedLineError naming the file.
    """
    try:
        with open_text(path) as fh:
            return build(json.load(fh))
    except (ValueError, RecursionError) as exc:  # bad JSON, huge int, deep nesting
        line = getattr(exc, "lineno", None)
        raise MalformedLineError(f"{path}: invalid JSON ({exc})", line) from exc
    except KeyError as exc:
        raise MalformedLineError(f"{path}: missing key {exc}") from exc
    except TypeError as exc:
        raise MalformedLineError(f"{path}: malformed content ({exc})") from exc


def load_vocabulary(path) -> Vocabulary:
    return load_json(path, lambda d: Vocabulary(d["terms"], d["doc_freq"], d["threshold"]))


def save_matrix(dtm: DocTermMatrix, path) -> None:
    """Write the sparse triplet text format.

    Header line `n_docs n_terms nnz`, then one `row col weight` line per
    stored entry, weights printed with 17 significant digits.
    """
    coo = dtm.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{dtm.n_docs} {dtm.n_terms} {coo.nnz}\n")
        for start in range(0, coo.nnz, WRITE_CHUNK):
            at = order[start : start + WRITE_CHUNK]
            entries = zip(coo.row[at].tolist(), coo.col[at].tolist(), coo.data[at].tolist())
            fh.write("".join(map("%d %d %.17g\n".__mod__, entries)))


def _fill_entries(fh, rows, cols, vals) -> bool:
    """Parse the entry lines by chunks with numpy's C reader; False if a line
    is off (too few rows means a blank line or the end of the file)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a chunk of blank lines has no data
        # numpy < 2 parses an index like 2.0 via float, with only this warning.
        warnings.simplefilter("error", DeprecationWarning)
        for start in range(0, len(rows), ENTRY_CHUNK):
            k = min(ENTRY_CHUNK, len(rows) - start)
            try:
                block = np.loadtxt(list(itertools.islice(fh, k)), _ENTRY, comments=None, ndmin=1)
            except (ValueError, DeprecationWarning):
                return False
            if len(block) < k:
                return False
            at = slice(start, start + k)
            rows[at], cols[at], vals[at] = block["row"], block["col"], block["weight"]
    return True


def load_matrix(path) -> DocTermMatrix:
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise MalformedLineError(f"{path}: header must be 'n_docs n_terms nnz'", 1)
        i = -1  # entry i is on line i + 2, so the header is line 1
        try:
            n_docs, n_terms, nnz = (int(x) for x in header)
            rows = np.empty(nnz, dtype=np.int64)
            cols = np.empty(nnz, dtype=np.int64)
            vals = np.empty(nnz, dtype=np.float64)
            if not _fill_entries(fh, rows, cols, vals):  # parse again to name the line
                fh.seek(0)
                fh.readline()
                for i in range(nnz):
                    parts = fh.readline().split()
                    if len(parts) != 3:
                        raise MalformedLineError(
                            f"{path}: line {i + 2}: expected 'row col weight'", i + 2
                        )
                    rows[i], cols[i], vals[i] = int(parts[0]), int(parts[1]), float(parts[2])
        except UnicodeDecodeError:
            raise  # open_text names the file; no line is known
        except (ValueError, OverflowError) as exc:  # overflow: an index past int64
            raise MalformedLineError(f"{path}: line {i + 2}: {exc}", i + 2) from exc
        rest = fh.read()
    if rest.strip():
        line = nnz + 2 + rest[: len(rest) - len(rest.lstrip())].count("\n")
        raise MalformedLineError(
            f"{path}: line {line}: entry past the header's nnz {nnz}", line
        )
    # Checked on whole arrays, which keeps per-line work out of the parse loop.
    for bad, what in (
        ((rows < 0) | (rows >= n_docs), f"row index outside [0, {n_docs})"),
        ((cols < 0) | (cols >= n_terms), f"column index outside [0, {n_terms})"),
        (~np.isfinite(vals) | (vals < 0), "weight must be finite and >= 0"),
    ):
        if bad.any():
            line = int(np.argmax(bad)) + 2
            raise MalformedLineError(f"{path}: line {line}: {what}", line)
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(n_docs, n_terms))
    if mat.nnz < nnz:  # scipy summed duplicate (row, col) entries into one
        _, first = np.unique(np.stack([rows, cols], axis=1), axis=0, return_index=True)
        dup = np.ones(nnz, dtype=bool)
        dup[first] = False
        line = int(np.argmax(dup)) + 2
        where = f"({rows[line - 2]}, {cols[line - 2]})"
        raise MalformedLineError(f"{path}: line {line}: duplicate entry {where}", line)
    return DocTermMatrix(mat)


def prepare_corpus(docs: list[dict], stopwords: set[str]):
    """Clean, tokenize, build vocabulary and vectorize in one pass."""
    token_lists = [tokenize(clean_text(d["text"])) for d in docs]
    vocab = build_vocabulary(token_lists, stopwords)
    return vocab, vectorize_tfidf(token_lists, vocab)
