"""Truncated SVD projection for the eigenspace (EFCM) baseline."""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, RankTooLargeError
from .textprep import CsrMatrix

OVERSAMPLE = 10
POWER_ITERS = 7


@dataclass
class TruncatedSvd:
    k: int
    right_vectors: np.ndarray  # (n_terms, k), orthonormal columns
    singular_values: np.ndarray  # (k,), nonincreasing


def _as_operator(D):
    """D's matrix as an operand of @. A DocTermMatrix's CSR arrays are wrapped, not
    copied, in scipy's csr_matrix, whose sparse products only EFCM needs."""
    A = getattr(D, "matrix", D)
    if isinstance(A, CsrMatrix):
        import scipy.sparse  # here, so that the rest of the package never loads scipy

        return scipy.sparse.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)
    return A


def _fix_signs(V: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry nonnegative (C-ordered copy)."""
    peak = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    return np.ascontiguousarray(np.where(peak < 0, -V, V))


def truncated_svd(D, p: int, seed: int = 0) -> TruncatedSvd:
    """Top-p singular triplets via randomized block power iteration.

    Gaussian range sketch with fixed oversampling, re-orthonormalized
    power iterations, then an exact SVD of the small projected matrix.
    Deterministic per seed.
    """
    A = _as_operator(D)
    n, m = A.shape
    if p > min(n, m):
        raise RankTooLargeError(f"rank {p} exceeds min(({n}, {m}))")
    rng = np.random.default_rng(seed)
    l = min(p + OVERSAMPLE, min(n, m))

    G = rng.standard_normal((m, l))
    Q, _ = np.linalg.qr(np.asarray(A @ G))
    for _ in range(POWER_ITERS):
        W, _ = np.linalg.qr(np.asarray(A.T @ Q))
        Q, _ = np.linalg.qr(np.asarray(A @ W))
    B = np.asarray(Q.T @ A)  # (l, m)
    _, s, Vt = np.linalg.svd(B, full_matrices=False)
    return TruncatedSvd(p, _fix_signs(Vt[:p].T), s[:p])


def project(D, svd: TruncatedSvd) -> np.ndarray:
    """Document coordinates in the eigenspace: D @ V_p."""
    A = _as_operator(D)
    if A.shape[1] != svd.right_vectors.shape[0]:
        raise DimensionMismatchError(
            f"matrix has {A.shape[1]} columns, SVD expects {svd.right_vectors.shape[0]}"
        )
    return np.asarray(A @ svd.right_vectors)


def back_project(C, svd: TruncatedSvd) -> np.ndarray:
    """Map eigenspace vectors back to term space: C @ V_p^T."""
    C = np.asarray(C, dtype=np.float64)
    if C.shape[1] != svd.k:
        raise DimensionMismatchError(
            f"input has {C.shape[1]} columns, SVD rank is {svd.k}"
        )
    return C @ svd.right_vectors.T
