"""Truncated SVD projection for the eigenspace (EFCM) baseline."""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NumericalError, RankTooLargeError
from .textprep import CsrMatrix

OVERSAMPLE = 10
POWER_ITERS = 7
BLOCK = 4096  # entries a sparse product gathers at a time


@dataclass
class TruncatedSvd:
    k: int
    right_vectors: np.ndarray  # (n_terms, k), orthonormal columns
    singular_values: np.ndarray  # (k,), nonincreasing


def _blocks(ptr, order, ids, weights):
    """Segment s holds entries ptr[s]:ptr[s + 1] of ids and weights (through order, if
    given). Longest first, the segments are cut into blocks of about BLOCK entries. A
    block is (segments, ids, weights), the last two (depth, segments): a segment's entry
    t sits in row t, and the rows past its end hold id -1 and weight 0."""
    lengths = np.diff(ptr)
    by_length = np.argsort(-lengths, kind="stable")
    cuts = [0]
    while cuts[-1] < len(lengths) and lengths[by_length[cuts[-1]]]:  # empty ones sum to 0.0
        cuts.append(cuts[-1] + max(1, BLOCK // lengths[by_length[cuts[-1]]]))
    spans = [(by_length[a:b], lengths[by_length[a]]) for a, b in zip(cuts, cuts[1:])]
    # Two arrays hold all blocks, so the memory they free on return is reused whole.
    flat = [np.empty(sum(len(seg) * depth for seg, depth in spans), dt)
            for dt in (ids.dtype, weights.dtype)]
    blocks, start = [], 0
    for seg, depth in spans:
        t = np.arange(depth)[:, None]
        inside = t < lengths[seg]
        at = np.where(inside, ptr[seg] + t, 0)
        at = at if order is None else order[at]
        block_ids, block_weights = (f[start : start + at.size].reshape(at.shape) for f in flat)
        block_ids[...] = np.where(inside, ids[at], -1)
        block_weights[...] = np.where(inside, weights[at], 0.0)
        blocks.append((seg, block_ids, block_weights))
        start += at.size
    return blocks


def _sums(blocks, X, n):
    """(n, X's columns) array whose row s adds weight * X[id] over segment s's entries
    in order, starting from 0.0, one rounded product and one rounded sum an entry."""
    width = X.shape[1]
    # Padding gathers the zero row past X's end and adds +0.0, which changes no sum
    # begun at +0.0. numpy reduces a block's outer axis slice by slice, but a lone
    # column pairwise, so the block has two columns at least.
    Xp = np.zeros((len(X) + 1, max(width, 2)))
    Xp[:-1, :width] = X
    out = np.zeros((n, Xp.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf; callers check
        for seg, ids, weights in blocks:
            terms = np.take(Xp, ids, axis=0)
            np.multiply(terms, weights[..., None], out=terms)
            out[seg] = np.add.reduce(terms, axis=0, initial=0.0)
    return np.ascontiguousarray(out[:, :width])


def _product(A, transpose=False):
    """X -> A @ X, or A.T @ X. A CsrMatrix's products are summed from its arrays in the
    order of the usual compressed-sparse kernels (csr_matvecs and csc_matvecs), whose
    bits they give: a row of A in stored order, a column in increasing row order. A
    dense array's go through @."""
    if not isinstance(A, CsrMatrix):
        return lambda X: np.asarray((A.T if transpose else A) @ X)
    ptr, order, ids, n = A.indptr, None, A.indices, A.shape[0]
    if transpose:  # a column's entries, stably sorted, keep their increasing rows
        order = np.argsort(A.indices, kind="stable")
        ptr = np.concatenate(([0], np.cumsum(np.bincount(A.indices, minlength=A.shape[1]))))
        ids, n = np.repeat(np.arange(n, dtype=np.int32), np.diff(A.indptr)), A.shape[1]
    blocks = _blocks(ptr, order, ids, A.data)
    return lambda X: _sums(blocks, X, n)


def _fix_signs(V: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry nonnegative (C-ordered copy)."""
    peak = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    return np.ascontiguousarray(np.where(peak < 0, -V, V))


def truncated_svd(D, p: int, seed: int = 0) -> TruncatedSvd:
    """Top-p singular triplets of D, a CsrMatrix or a dense array, via randomized block
    power iteration.

    Gaussian range sketch with fixed oversampling, re-orthonormalized
    power iterations, then an exact SVD of the small projected matrix.
    Deterministic per seed.
    """
    n, m = D.shape
    if p > min(n, m):
        raise RankTooLargeError(f"rank {p} exceeds min(({n}, {m}))")
    rng = np.random.default_rng(seed)
    l = min(p + OVERSAMPLE, min(n, m))

    times, times_t = _product(D), _product(D, transpose=True)
    G = rng.standard_normal((m, l))
    Q, _ = np.linalg.qr(times(G))
    for _ in range(POWER_ITERS):
        W, _ = np.linalg.qr(times_t(Q))
        Q, _ = np.linalg.qr(times(W))
    B = times_t(Q).T  # Q.T @ A, (l, m), computed as a sparse matrix computes it
    if not np.isfinite(B).all():  # QR and the SVD pass inf and NaN on, or fail to converge
        raise NumericalError("truncated SVD overflowed: the matrix's weights are too large")
    _, s, Vt = np.linalg.svd(B, full_matrices=False)
    return TruncatedSvd(p, _fix_signs(Vt[:p].T), s[:p])


def project(D, svd: TruncatedSvd) -> np.ndarray:
    """Document coordinates in the eigenspace: D @ V_p."""
    m = D.shape[1]
    if m != svd.right_vectors.shape[0]:
        raise DimensionMismatchError(
            f"matrix has {m} columns, SVD expects {svd.right_vectors.shape[0]}"
        )
    return _product(D)(svd.right_vectors)


def back_project(C, svd: TruncatedSvd) -> np.ndarray:
    """Map eigenspace vectors back to term space: C @ V_p^T."""
    C = np.asarray(C, dtype=np.float64)
    if C.shape[1] != svd.k:
        raise DimensionMismatchError(
            f"input has {C.shape[1]} columns, SVD rank is {svd.k}"
        )
    return C @ svd.right_vectors.T
