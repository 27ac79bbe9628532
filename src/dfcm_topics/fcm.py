"""Fuzzy c-means clustering with best-of-N k-means initialization.

Works on any real-valued data matrix: the autoencoder code space in the
DFCM pipeline, the eigenspace in the EFCM baseline.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyClusterError,
    InvalidFuzzifierError,
    NonFiniteInputError,
    TooFewPointsError,
)

COINCIDENT_TOL = 1e-12
KMEANS_MAX_ITER = 300
EPS, TINY = np.finfo(np.float64).eps, np.finfo(np.float64).tiny


def _check_fuzzifier(f):
    if not 1.0 < f < float("inf"):  # written so that NaN fails
        raise InvalidFuzzifierError("fuzzification constant must be finite and > 1")


@dataclass
class FcmConfig:
    c: int = 10
    f: float = 1.1
    max_iter: int = 1000
    eps: float = 0.005
    seed: int = 0
    init_runs: int = 10

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("cluster count must be >= 1")
        _check_fuzzifier(self.f)
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0 < self.eps < float("inf"):
            raise ValueError("eps must be finite and > 0")
        if self.init_runs < 1:
            raise ValueError("init_runs must be >= 1")


@dataclass
class FcmResult:
    memberships: np.ndarray  # (c, n), columns sum to 1
    centroids: np.ndarray  # (c, d)
    objective_trace: list[float]
    iterations: int
    converged: bool


def _sq_distances(X: np.ndarray, Q: np.ndarray, xx=None, out=None) -> np.ndarray:
    """Squared Euclidean distances, shape (c, n); xx = np.sum(X**2, axis=1)."""
    xx = np.sum(X**2, axis=1) if xx is None else xx
    d2 = np.matmul(2.0 * Q, X.T, out=out)
    np.subtract(np.sum(Q**2, axis=1)[:, None], d2, out=d2)
    np.add(d2, xx[None, :], out=d2)
    return np.maximum(d2, 0.0, out=d2)


def _lloyd(X, xx, centers, d2):
    """Lloyd's algorithm from given centers, in the (c, n) buffer d2; returns (centers, sse).

    Labels are those of a full _sq_distances + argmin pass, but Hamerly's
    bounds (SDM 2010), widened by r, the rounding bound of an expanded-form
    squared distance, skip the points whose label cannot change. A product
    over the remaining rows alone rounds its own way within r, so their labels
    count only if every best-to-second gap exceeds 4r. If not, full passes run
    for the rest of the restart; one also runs to reseed an empty cluster.
    """
    n, c = X.shape[0], centers.shape[0]
    slack = (2 * X.shape[1] + 16) * EPS
    r, upper, lower = np.empty((3, n))
    labels = np.empty(n, dtype=np.intp)
    full = prune = True  # the first pass sets the labels and bounds
    for _ in range(KMEANS_MAX_ITER):
        if prune:
            r[:] = (xx + np.sum(centers**2, axis=1).max()) * slack + TINY  # TINY: underflow
        if not full:
            np.multiply(upper + shift[labels], 1 + 4 * EPS, out=upper)
            np.multiply(lower - shift.max(), 1 - 4 * EPS, out=lower)
            # Triangle inequality: no other centre is nearer than its gap minus upper.
            lo = np.maximum(np.maximum(near_centre[labels] - upper, lower), 0.0)
            # lo**2 - upper**2 > 3r proves the full pass's label; NaN never does.
            todo = np.flatnonzero(~((lo - upper) * (lo + upper) > 3 * r))
            if todo.size:
                sub = d2.reshape(-1)[: c * todo.size].reshape(c, todo.size)
                _sq_distances(X[todo], centers, xx[todo], out=sub)
                got = np.argmin(sub, axis=0)
                best, second, upper[todo], lower[todo] = _bounds(sub, got, r[todo])
                labels[todo] = got
                # An uncertain label ends the pruning for the rest of this restart.
                prune = bool(np.all(second - best > 4 * r[todo]))
                full = not prune
        counts = None if full else np.bincount(labels, minlength=c)
        if full or not counts.all():
            _sq_distances(X, centers, xx, out=d2)
            np.argmin(d2, axis=0, out=labels)  # ties break to lowest index
            counts = np.bincount(labels, minlength=c)
            if prune:
                nearest, _, upper[:], lower[:] = _bounds(d2, labels, r)
            full = not prune
        # bincount sums each cluster's rows in index order, as mean() does.
        new_centers = np.stack([np.bincount(labels, weights=col, minlength=c) for col in X.T], 1)
        new_centers /= np.maximum(counts, 1)[:, None]
        if not counts.all():
            # Reseed empty clusters to the point farthest from its nearest centroid.
            new_centers[counts == 0] = X[np.argmax(nearest if prune else d2.min(axis=0))]
        if prune:  # slack also covers the rounding of the shifts and centre gaps.
            shift = np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)) * (1 + slack)
            gaps = np.sqrt(np.sum((new_centers[:, None] - new_centers[None]) ** 2, axis=2))
            np.fill_diagonal(gaps, np.inf)
            near_centre = gaps.min(axis=1) * (1 - slack)
        centers, previous = new_centers, centers
        if np.allclose(centers, previous, rtol=0.0, atol=1e-12):
            break
    return centers, float(_sq_distances(X, centers, xx, out=d2).min(axis=0).sum())


def _bounds(d2, labels, r):
    """Columns' two smallest entries, and bounds on the true distance to the labelled
    centre (upper) and any other (lower) if d2 is within r of the true squares."""
    cols = np.arange(d2.shape[1])
    best = d2[labels, cols]
    d2[labels, cols] = np.inf
    second = d2.min(axis=0)
    upper = np.sqrt(best + r) * (1 + 4 * EPS)
    lower = np.sqrt(np.maximum(second - r, 0.0)) * (1 - 4 * EPS)
    return best, second, upper, lower


def _kmeans_pp_seed(X, xx, c: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: sample centers proportional to squared distance.

    A running minimum keeps this O(c n). BLAS gives a row the same bits in
    any product of >= 2 rows but not alone (gemv), so step 2 restarts it.
    """
    n = X.shape[0]
    centers = np.empty((c, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    for i in range(1, c):
        near = _sq_distances(X, centers[max(i - 2, 0) : i], xx).min(axis=0)
        d2 = near if i <= 2 else np.minimum(d2, near, out=d2)
        total = d2.sum()
        if total <= 0.0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        centers[i] = X[idx]
    return centers


def check_cluster_count(n: int, c: int) -> None:
    """Clustering n points needs at least c of them."""
    if n < c:
        raise TooFewPointsError(f"{n} points < {c} clusters")


def _points(X, c: int) -> np.ndarray:
    """X as float64, checked finite and with at least c rows."""
    X = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise NonFiniteInputError("data matrix contains NaN or Inf")
    check_cluster_count(X.shape[0], c)
    return X


def kmeans_init(X: np.ndarray, c: int, runs: int, seed: int) -> np.ndarray:
    """Best of `runs` k-means++/Lloyd runs by within-cluster SSE."""
    if runs < 1:
        raise ValueError("init_runs must be >= 1")
    X = _points(X, c)
    rng = np.random.default_rng(seed)
    xx = np.sum(X**2, axis=1)
    d2 = np.empty((c, X.shape[0]))
    best_centers, best_sse = None, np.inf
    for _ in range(runs):
        centers, sse = _lloyd(X, xx, _kmeans_pp_seed(X, xx, c, rng), d2)
        if sse < best_sse:
            best_centers, best_sse = centers, sse
    return best_centers


def update_memberships(X: np.ndarray, Q: np.ndarray, f: float) -> np.ndarray:
    """Membership update for fixed centroids.

    m_ik = [ sum_j (||a_k - q_i|| / ||a_k - q_j||)^(2/(f-1)) ]^-1. Points
    coinciding with one or more centroids get their membership split
    uniformly over the coincident centroids.
    """
    _check_fuzzifier(f)
    d = _sq_distances(X, Q)
    return _memberships(d, f, np.empty_like(d), np.empty(d.shape, order="F"))


def _memberships(d: np.ndarray, f: float, M: np.ndarray, work: np.ndarray) -> np.ndarray:
    """update_memberships from the (c, n) squared distances d (made distances) into M.

    work is F-ordered, so each column sums only its own contiguous entries, and
    the coincident columns, overwritten at the end, leave the others' bits alone.
    """
    np.sqrt(d, out=d)
    dmin = d.min(axis=0)
    # Normalize by the column minimum so ratios are >= 1 and the negative
    # power cannot overflow for small f. A column with a coincident centroid
    # divides by 0 or nearly so; it is overwritten below.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = np.divide(d, dmin, out=work)
        w **= -2.0 / (f - 1.0)  # **, whose scalar fast paths give the reference's bits
        np.divide(w, w.sum(axis=0), out=M)
    coincident = dmin < COINCIDENT_TOL
    hits = d[:, coincident] < COINCIDENT_TOL
    M[:, coincident] = hits / hits.sum(axis=0)
    return M


def update_centroids(X: np.ndarray, M: np.ndarray, f: float) -> np.ndarray:
    """Centroid update for fixed memberships: weighted mean with weights m^f."""
    _check_fuzzifier(f)
    return _centroids(X, M**f)


def _centroids(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    sums = W.sum(axis=1)
    if np.any(sums <= 0.0):
        raise EmptyClusterError("a cluster's membership weights sum to zero")
    return (W @ X) / sums[:, None]


def objective(X: np.ndarray, M: np.ndarray, Q: np.ndarray, f: float) -> float:
    """Fuzzy within-cluster scatter J = sum_ik m_ik^f ||a_k - q_i||^2."""
    _check_fuzzifier(f)
    return float(np.sum(M**f * _sq_distances(X, Q)))


def fcm_fit(X: np.ndarray, config: FcmConfig, init: np.ndarray) -> FcmResult:
    """Alternate membership/centroid updates from init until t > T or ||dM||_F < eps.

    The convergence check is skipped on the first iteration (there is no
    previous membership matrix). Deterministic given init.
    """
    X = _points(X, config.c)
    Q = np.asarray(init, dtype=np.float64)
    if Q.shape != (config.c, X.shape[1]):
        raise DimensionMismatchError(f"init shape {Q.shape} != {(config.c, X.shape[1])}")
    if not np.all(np.isfinite(Q)):
        raise NonFiniteInputError("init centroids contain NaN or Inf")
    trace: list[float] = []
    xx = np.sum(X**2, axis=1)
    # The (c, n) buffers of the fit: M and M_prev swap each iteration, and
    # W = M^f is the memberships' F-ordered work array until M is written.
    M, M_prev, W = (np.empty((len(Q), X.shape[0])) for _ in range(3))
    work = W.reshape(-1).reshape(W.shape[::-1]).T
    d2 = _sq_distances(X, Q, xx)
    for t in range(1, config.max_iter + 1):
        M, M_prev = M_prev, M
        _memberships(d2, config.f, M, work)
        np.copyto(W, M)
        W **= config.f  # M**f, for the centroids and the objective
        Q = _centroids(X, W)
        _sq_distances(X, Q, xx, out=d2)  # for the objective and the next memberships
        trace.append(float(np.sum(np.multiply(W, d2, out=W))))
        if t > 1 and np.linalg.norm(np.subtract(M, M_prev, out=W)) < config.eps:
            return FcmResult(M, Q, trace, t, True)
    return FcmResult(M, Q, trace, t, False)
