import numpy as np
import pytest
import scipy.sparse as sp

from dfcm_topics import autoencoder as ae
from dfcm_topics import svd, textprep
from dfcm_topics.errors import RankTooLargeError


def dense_truncated_svd(D, p: int) -> svd.TruncatedSvd:
    """Exact dense decomposition: the test oracle for truncated_svd on small matrices."""
    A = svd._as_operator(D)
    if sp.issparse(A):
        A = A.toarray()
    A = np.asarray(A, dtype=np.float64)
    if p > min(A.shape):
        raise RankTooLargeError(f"rank {p} exceeds min{A.shape}")
    _, s, Vt = np.linalg.svd(A, full_matrices=False)
    return svd.TruncatedSvd(p, svd._fix_signs(Vt[:p].T), s[:p])


def reconstruction_loss(model: ae.AutoencoderModel, X) -> float:
    """Full-data reconstruction MSE (dropout off)."""
    loss, _ = ae._mse_and_grad(ae._infer(model.layers, X), ae._densify(X))
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
    vocab = textprep.build_vocabulary(docs, set())
    dtm = textprep.vectorize_tfidf(docs, vocab)
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
]
MATRIX_HEADER_IDS = ["two-fields", "negative-terms", "negative-docs", "negative-nnz",
                     "nnz-past-shape", "nnz-past-file"]


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
