import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from dfcm_topics import autoencoder as ae
from dfcm_topics import svd, textprep
from dfcm_topics.errors import RankTooLargeError


def csr(A, shape=None) -> textprep.CsrMatrix:
    """The package's CSR arrays of A, anything scipy.sparse.csr_matrix takes (a dense
    array, a scipy matrix, a (data, indices, indptr) triple): scipy sums its repeats and
    sorts its columns, and the arrays take the package's dtypes. A copy, so A stays."""
    mat = sp.csr_matrix(A, shape=shape, dtype=np.float64, copy=True)
    mat.sum_duplicates()
    return textprep.CsrMatrix(mat.data, mat.indices.astype(np.int32),
                              mat.indptr.astype(np.int64), mat.shape)


def dense(X) -> np.ndarray:
    """X, an array or a CsrMatrix, as a dense float64 array; scipy densifies a CsrMatrix,
    so this is also the oracle of CsrMatrix.rows."""
    if isinstance(X, textprep.CsrMatrix):
        X = sp.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape).toarray()
    return np.asarray(X, np.float64)


def dense_truncated_svd(D, p: int) -> svd.TruncatedSvd:
    """Exact dense decomposition: the test oracle for truncated_svd on small matrices."""
    A = dense(D)
    if p > min(A.shape):
        raise RankTooLargeError(f"rank {p} exceeds min{A.shape}")
    _, s, Vt = np.linalg.svd(A, full_matrices=False)
    return svd.TruncatedSvd(p, svd._fix_signs(Vt[:p].T), s[:p])


def reference_vectorize_tfidf(corpus: list[list[str]], vocab: textprep.Vocabulary
                              ) -> textprep.CsrMatrix:
    """vectorize_tfidf as it was with one term-id list per document and scipy's CSR
    build: the bit-for-bit oracle of the flat id array and of the numpy build."""
    n_docs = len(corpus)
    df = np.array([vocab.doc_freq[term] for term in vocab.terms], dtype=np.float64)
    idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
    index = vocab.index
    ids = [[index[tok] for tok in tokens if tok in index] for tokens in corpus]
    indptr = np.cumsum([0] + [len(row) for row in ids])
    cols = np.fromiter(itertools.chain.from_iterable(ids), np.int64, indptr[-1])
    mat = csr((np.ones(len(cols)), cols, indptr), shape=(n_docs, len(vocab)))  # repeats summed
    mat.data *= idf[mat.indices]
    return mat


def token_stream(corpus: list[list[str]]) -> textprep.TokenStream:
    """tokenize_corpus over token lists joined into texts; each token must
    come back from cleaning as itself."""
    stream = textprep.tokenize_corpus(" ".join(tokens) for tokens in corpus)
    tokens = list(stream.index)
    got = [[tokens[i] for i in stream.ids[a:b]] for a, b in zip(stream.starts, stream.starts[1:])]
    assert got == corpus
    return stream


def reconstruction_loss(model: ae.AutoencoderModel, X) -> float:
    """Full-data reconstruction MSE (dropout off)."""
    loss, _ = ae._mse_and_grad(ae._infer(model.layers, X), dense(X))
    return loss


def planted_corpus(seed, n_docs=300, n_sets=3, set_size=20, doc_len=15):
    """Synthetic corpus with disjoint per-topic vocabularies.

    Returns (vocab_sets, token_lists, labels); document d draws all its
    tokens from set d % n_sets.
    """
    rng = np.random.default_rng(seed)
    sets = [
        [f"topic{t}word{j:02d}" for j in range(set_size)] for t in range(n_sets)
    ]
    docs, labels = [], []
    for d in range(n_docs):
        t = d % n_sets
        docs.append(list(rng.choice(sets[t], size=doc_len, replace=True)))
        labels.append(t)
    return sets, docs, labels


def planted_matrix(seed, **kwargs):
    sets, docs, labels = planted_corpus(seed, **kwargs)
    stream = token_stream(docs)
    vocab = textprep.build_vocabulary(stream, set())
    dtm = textprep.vectorize_tfidf(stream, vocab)
    return sets, vocab, dtm, labels


def write_planted_embeddings(path, vocab_sets, dim=None):
    """One orthogonal basis vector per planted set: within-set cosine 1,
    cross-set cosine 0."""
    dim = dim or len(vocab_sets)
    with open(path, "w", encoding="utf-8") as fh:
        total = sum(len(s) for s in vocab_sets)
        fh.write(f"{total} {dim}\n")
        for t, words in enumerate(vocab_sets):
            vec = ["0"] * dim
            vec[t] = "1"
            for w in words:
                fh.write(f"{w} {' '.join(vec)}\n")


# matrix.txt files whose header the loader rejects, and the message it gives.
MATRIX_HEADER_CASES = [
    ("2 3\n", "header must be 'n_docs n_terms nnz'"),
    ("2 -3 0\n", "header counts must be >= 0"),
    ("-2 3 0\n", "header counts must be >= 0"),
    ("2 3 -1\n", "header counts must be >= 0"),
    ("2 3 100000000000000\n0 0 1\n", "nnz 100000000000000 exceeds 2 x 3"),
    ("1000 1000 1000\n0 0 1\n", "1000 entries cannot fit in 21 bytes"),
    ("1 2147483648 1\n0 0 1\n", "n_terms 2147483648 exceeds 2147483647"),
    ("1000000000000 2 1\n0 0 1", "n_docs 1000000000000 exceeds 2147483647"),  # 23 bytes
]
MATRIX_HEADER_IDS = ["two-fields", "negative-terms", "negative-docs", "negative-nnz",
                     "nnz-past-shape", "nnz-past-file", "terms-past-int32", "docs-past-int32"]


def topic_recovery(topic_set, vocab_sets, min_fraction=0.8):
    """Check a bijective topic<->planted-set match with enough top words
    drawn from the matched set. Returns (ok, per-topic best fractions)."""
    assignment, fractions = [], []
    for topic in topic_set.topics:
        terms = [w for w, _ in topic]
        fracs = [
            sum(1 for w in terms if w in s) / max(1, len(terms)) for s in vocab_sets
        ]
        best = int(np.argmax(fracs))
        assignment.append(best)
        fractions.append(fracs[best])
    bijective = len(set(assignment)) == len(vocab_sets)
    ok = bijective and all(f >= min_fraction for f in fractions)
    return ok, fractions


def blob_dataset(seed=7, centers=((0.0, 0.0), (5.0, 0.0), (0.0, 5.0)), n_per=20, sigma=0.1):
    """Three well-separated 2-D Gaussian blobs with known labels."""
    rng = np.random.default_rng(seed)
    X, labels = [], []
    for i, center in enumerate(centers):
        X.append(rng.normal(loc=center, scale=sigma, size=(n_per, 2)))
        labels += [i] * n_per
    return np.vstack(X), np.array(labels), np.array(centers)


@pytest.fixture
def blobs():
    return blob_dataset()
