import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dfcm_topics import fcm
from dfcm_topics.errors import (
    DimensionMismatchError,
    EmptyClusterError,
    InvalidFuzzifierError,
    NonFiniteInputError,
    TooFewPointsError,
)


def lloyd_oracle(X, c, runs, seed):
    """Independent plain-numpy best-of-N k-means used only for checking."""
    rng = np.random.default_rng(seed)
    best_labels, best_sse = None, np.inf
    for _ in range(runs):
        centers = X[rng.choice(len(X), size=c, replace=False)]
        for _ in range(200):
            d2 = ((X[:, None, :] - centers[None]) ** 2).sum(axis=2)
            labels = d2.argmin(axis=1)
            new = np.array(
                [
                    X[labels == i].mean(axis=0) if (labels == i).any() else centers[i]
                    for i in range(c)
                ]
            )
            if np.allclose(new, centers):
                break
            centers = new
        d2 = ((X[:, None, :] - centers[None]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        sse = d2[np.arange(len(X)), labels].sum()
        if sse < best_sse:
            best_labels, best_sse = labels, sse
    return best_labels


def reference_sq_distances(X, Q):
    d2 = 2.0 * Q @ X.T
    np.subtract(np.sum(Q**2, axis=1)[:, None], d2, out=d2)
    np.add(d2, np.sum(X**2, axis=1)[None, :], out=d2)
    return np.maximum(d2, 0.0, out=d2)


def reference_lloyd(X, centers, max_iter=fcm.KMEANS_MAX_ITER):
    n, c = X.shape[0], centers.shape[0]
    for _ in range(max_iter):
        d2 = reference_sq_distances(X, centers)
        labels = np.argmin(d2, axis=0)
        counts = np.bincount(labels, minlength=c)
        new_centers = np.zeros_like(centers)
        np.add.at(new_centers, labels, X)
        new_centers /= np.maximum(counts, 1)[:, None]
        new_centers[counts == 0] = X[np.argmax(d2[labels, np.arange(n)])]
        centers, previous = new_centers, centers
        if np.allclose(centers, previous, rtol=0.0, atol=1e-12):
            break
    d2 = reference_sq_distances(X, centers)
    labels = np.argmin(d2, axis=0)
    return centers, float(d2[labels, np.arange(n)].sum())


def reference_kmeans_init(X, c, runs, seed):
    """The O(c^2 n) k-means++ seeding and add.at Lloyd, the oracle for kmeans_init."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    best_centers, best_sse = None, np.inf
    for _ in range(runs):
        centers = np.empty((c, X.shape[1]))
        centers[0] = X[rng.integers(n)]
        for i in range(1, c):
            d2 = reference_sq_distances(X, centers[:i]).min(axis=0)
            total = d2.sum()
            idx = rng.integers(n) if total <= 0.0 else rng.choice(n, p=d2 / total)
            centers[i] = X[idx]
        centers, sse = reference_lloyd(X, centers)
        if sse < best_sse:
            best_centers, best_sse = centers, sse
    return best_centers


def full_pass_lloyd(X, xx, centers, d2, max_iter=fcm.KMEANS_MAX_ITER):
    """Lloyd's algorithm with a full distance pass and argmin every iteration,
    in the (c, n) buffer d2; the oracle for the bound-pruned fcm._lloyd."""
    c = centers.shape[0]
    for _ in range(max_iter):
        fcm._sq_distances(X, centers, xx, out=d2)
        labels = np.argmin(d2, axis=0)  # ties break to lowest index
        counts = np.bincount(labels, minlength=c)
        # bincount sums each cluster's rows in index order, as mean() does.
        new_centers = np.stack([np.bincount(labels, weights=col, minlength=c) for col in X.T], 1)
        new_centers /= np.maximum(counts, 1)[:, None]
        if not counts.all():
            # Reseed empty clusters to the point farthest from its nearest centroid.
            new_centers[counts == 0] = X[np.argmax(d2.min(axis=0))]
        centers, previous = new_centers, centers
        if np.allclose(centers, previous, rtol=0.0, atol=1e-12):
            break
    return centers, float(fcm._sq_distances(X, centers, xx, out=d2).min(axis=0).sum())


def full_pass_kmeans_init(X, c, runs, seed):
    """kmeans_init with full_pass_lloyd in place of the pruned Lloyd."""
    X = np.asarray(X, dtype=np.float64)
    rng = np.random.default_rng(seed)
    xx = np.sum(X**2, axis=1)
    d2 = np.empty((c, X.shape[0]))
    best_centers, best_sse = None, np.inf
    for _ in range(runs):
        centers, sse = full_pass_lloyd(X, xx, fcm._kmeans_pp_seed(X, xx, c, rng), d2)
        if sse < best_sse:
            best_centers, best_sse = centers, sse
    return best_centers


@st.composite
def lloyd_cases(draw):
    """Rows from a few distinct points (duplicates), on an integer grid (exact
    ties) or not, scaled, and offset by 1e6 (a wide rounding bound)."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 50))
    grid = draw(st.booleans())
    elements = st.integers(-3, 3).map(float) if grid else st.floats(-10, 10, width=64)
    base = draw(hnp.arrays(np.float64, (k, d), elements=elements))
    X = np.repeat(base, draw(st.integers(1, 4)), axis=0)
    X = X[np.random.default_rng(draw(st.integers(0, 99))).permutation(len(X))]
    X = X * draw(st.sampled_from([1.0, 1e-3, 1e3])) + draw(st.sampled_from([0.0, 1e6]))
    c = draw(st.integers(1, min(40, len(X))))
    return X, c, draw(st.integers(0, 2**16))


def _jittered(n, seed):
    """fcm._sq_distances whose products over fewer than n rows move each entry
    by up to (d + 2) eps (|x|^2 + max |q|^2), inside the expanded form's bound."""
    real, rng = fcm._sq_distances, np.random.default_rng(seed)

    def sq_distances(X, Q, xx=None, out=None):
        d2 = real(X, Q, xx, out)
        if X.shape[0] < n:
            size = (X.shape[1] + 2) * fcm.EPS * (np.sum(X**2, axis=1) + np.sum(Q**2, axis=1).max())
            d2 += rng.uniform(-1.0, 1.0, d2.shape) * size
        return d2

    return sq_distances


def _reference_sets():
    rng = np.random.default_rng(7)
    return {
        "gaussian": rng.normal(size=(60, 3)),
        "repeated": np.repeat(rng.normal(size=(5, 4)), 20, axis=0),
        "zeros+gaussian": np.vstack([np.zeros((10, 3)), rng.normal(size=(40, 3))]),
        "grid": np.round(rng.uniform(0, 3, size=(80, 2))),
    }


def best_label_agreement(a, b, c):
    """Max agreement fraction over all cluster relabelings."""
    best = 0.0
    for perm in itertools.permutations(range(c)):
        mapped = np.array([perm[i] for i in a])
        best = max(best, np.mean(mapped == b))
    return best


class TestKmeansInit:
    def test_n_equals_c(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        Q = fcm.kmeans_init(X, 3, runs=5, seed=0)
        assert {tuple(q) for q in Q} == {tuple(x) for x in X}

    def test_c_equals_one_is_mean(self):
        X = np.random.default_rng(1).normal(size=(50, 3))
        Q = fcm.kmeans_init(X, 1, runs=3, seed=0)
        np.testing.assert_allclose(Q[0], X.mean(axis=0), atol=1e-12)

    def test_blobs_recover_centers(self, blobs):
        X, _, centers = blobs
        Q = fcm.kmeans_init(X, 3, runs=10, seed=0)
        dists = np.linalg.norm(Q[:, None, :] - centers[None], axis=2)
        # Each returned centroid close to a distinct true center.
        matched = dists.argmin(axis=1)
        assert sorted(matched) == [0, 1, 2]
        assert np.all(dists.min(axis=1) < 0.15)

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            fcm.kmeans_init(np.zeros((2, 2)), 3, runs=1, seed=0)

    @pytest.mark.parametrize("name", sorted(_reference_sets()))
    def test_matches_reference(self, name):
        X = _reference_sets()[name]
        for c, seed in itertools.product([1, 2, 3, 5, 8], [0, 1, 2]):
            expected = reference_kmeans_init(X, c, runs=3, seed=seed)
            assert np.array_equal(fcm.kmeans_init(X, c, runs=3, seed=seed), expected), (c, seed)

    def test_matches_reference_at_forty_clusters(self):
        X = np.random.default_rng(3).normal(size=(2000, 10))
        expected = reference_kmeans_init(X, 40, runs=2, seed=4)
        assert np.array_equal(fcm.kmeans_init(X, 40, runs=2, seed=4), expected)

    def test_duplicate_points_match_reference(self):
        # A point's distance to an equal centre is rounding noise, and
        # whether the noise sums to 0 picks the uniform or the weighted
        # draw, so seeding must reproduce the reference's bits exactly.
        for trial in range(24):
            rng = np.random.default_rng(trial)
            k, d, rep = rng.integers(2, 6), rng.integers(2, 12), rng.integers(2, 40)
            X = np.repeat(rng.normal(size=(k, d)) * rng.choice([1, 1e3, 1e-3]), rep, axis=0)
            rng.shuffle(X)
            c = k + rng.integers(1, 4)
            expected = reference_kmeans_init(X, c, runs=3, seed=trial)
            assert np.array_equal(fcm.kmeans_init(X, c, runs=3, seed=trial), expected), trial

    def test_identical_rows_take_the_uniform_draw(self):
        # Every distance is 0, so the second centre is drawn uniformly;
        # a draw proportional to d2 would divide by a zero total.
        X = np.tile([[1.5, -2.0]], (6, 1))
        Q = fcm.kmeans_init(X, 2, runs=2, seed=0)
        np.testing.assert_array_equal(Q, X[:2])
        assert np.array_equal(Q, reference_kmeans_init(X, 2, runs=2, seed=0))

    @settings(deadline=None, max_examples=100)
    @given(lloyd_cases(), st.booleans())
    def test_pruned_lloyd_matches_full_passes(self, case, jitter):
        # With jitter, every product over fewer than all rows rounds its own
        # way, within the true rounding bound, as other BLAS kernels may.
        X, c, seed = case
        want = full_pass_kmeans_init(X, c, runs=2, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            if jitter:
                mp.setattr(fcm, "_sq_distances", _jittered(len(X), seed))
            got = fcm.kmeans_init(X, c, runs=2, seed=seed)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_pruning_skips_points_and_falls_back(self, monkeypatch, offset):
        # The bounds must skip points (else the property above is vacuous).
        # At a 1e6 offset the rounding bound is wide enough that some
        # recomputed label is not certain: the full pass must follow, and
        # full passes alone for the rest of that restart.
        X = np.random.default_rng(5).normal(size=(3000, 3)) + offset
        c, restarts = 12, []
        real_sq, real_lloyd = fcm._sq_distances, fcm._lloyd

        def recording(A, Q, xx=None, out=None):
            if Q.shape[0] == c:
                restarts[-1].append(A.shape[0])
            return real_sq(A, Q, xx, out)

        def lloyd(*args):
            restarts.append([])
            return real_lloyd(*args)

        monkeypatch.setattr(fcm, "_sq_distances", recording)
        monkeypatch.setattr(fcm, "_lloyd", lloyd)
        got = fcm.kmeans_init(X, c, runs=2, seed=1)
        monkeypatch.undo()
        assert np.array_equal(got, full_pass_kmeans_init(X, c, runs=2, seed=1))
        for widths in restarts:
            subset = [i for i, w in enumerate(widths) if w < len(X)]
            assert subset
            if offset:
                # Subset passes up to the uncertain one, then full passes only.
                assert subset == list(range(1, len(subset) + 1))
                assert len(widths) - subset[-1] > 3

    def test_tie_recomputed_alone_takes_the_full_pass_label(self, monkeypatch):
        # In the second iteration the point 0 lies midway between the centres
        # -2 and 2, and the full pass gives it the lower index. A product over
        # the recomputed rows that rounds against centre 0 must not decide it.
        X = np.array([[-4.0], [-2.0], [0.0], [2.0]] + [[100.0 + k] for k in range(-10, 11)])
        xx, centers = np.sum(X**2, axis=1), np.array([[-1.0], [3.0], [100.0]])
        want = full_pass_lloyd(X, xx, centers, np.empty((3, len(X))))
        real, widths = fcm._sq_distances, []

        def against_centre_0(A, Q, xx=None, out=None):
            d2 = real(A, Q, xx, out)
            widths.append(A.shape[0])
            if A.shape[0] < len(X):
                d2[0] += 3 * fcm.EPS * (np.sum(A**2, axis=1) + np.sum(Q**2, axis=1).max())
            return d2

        monkeypatch.setattr(fcm, "_sq_distances", against_centre_0)
        got = fcm._lloyd(X, xx, centers, np.empty((3, len(X))))
        assert min(widths) < len(X)
        np.testing.assert_array_equal(got[0], [[-2.0], [2.0], [100.0]])
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_nonfinite_input(self):
        X = np.array([[0.0, 1.0], [np.inf, 0.0], [1.0, 1.0]])
        with pytest.raises(NonFiniteInputError):
            fcm.kmeans_init(X, 2, runs=1, seed=0)
        with pytest.raises(NonFiniteInputError):
            fcm.kmeans_init(np.array([[np.nan]]), 1, runs=1, seed=0)

    def test_zero_runs_rejected_as_by_the_config(self):
        with pytest.raises(ValueError, match="^init_runs must be >= 1$"):
            fcm.FcmConfig(init_runs=0)
        with pytest.raises(ValueError, match="^init_runs must be >= 1$"):
            fcm.kmeans_init(np.arange(10.0).reshape(5, 2), 3, runs=0, seed=0)

    def test_empty_cluster_is_reseeded_to_farthest_point(self):
        # Three distinct points, two coincident starting centres: the
        # second centre wins no point (ties go to the lowest index) and is
        # moved to the point farthest from its nearest centre.
        X = np.repeat([[0.0], [1.0], [10.0]], 2, axis=0)
        xx = np.sum(X**2, axis=1)
        centers = np.array([[0.0], [0.0], [10.0]])
        got, sse = fcm._lloyd(X, xx, centers, np.empty((3, 6)))
        np.testing.assert_array_equal(got, [[0.0], [1.0], [10.0]])
        assert sse == 0.0
        ref_centers, ref_sse = reference_lloyd(X, centers)
        assert np.array_equal(got, ref_centers) and sse == ref_sse


class TestUpdateMemberships:
    def test_hand_oracle_f2(self):
        # 1-D: a=0, q1=1, q2=2, f=2 -> (1 + (1/2)^2)^-1 = 0.8.
        X = np.array([[0.0]])
        Q = np.array([[1.0], [2.0]])
        M = fcm.update_memberships(X, Q, 2.0)
        assert abs(M[0, 0] - 0.8) < 1e-12
        assert abs(M[1, 0] - 0.2) < 1e-12

    @pytest.mark.parametrize("f", [1.1, 2.0, 3.5])
    def test_equidistant_point_splits_evenly(self, f):
        X = np.array([[0.0, 0.0]])
        Q = np.array([[1.0, 0.0], [-1.0, 0.0]])
        M = fcm.update_memberships(X, Q, f)
        np.testing.assert_allclose(M[:, 0], [0.5, 0.5], atol=1e-12)

    def test_coincident_point_one_hot(self):
        X = np.array([[1.0, 2.0]])
        Q = np.array([[1.0, 2.0], [3.0, 0.0], [0.0, 5.0]])
        M = fcm.update_memberships(X, Q, 1.5)
        np.testing.assert_array_equal(M[:, 0], [1.0, 0.0, 0.0])

    def test_point_on_two_coincident_centroids(self):
        X = np.array([[1.0]])
        Q = np.array([[1.0], [1.0], [5.0]])
        M = fcm.update_memberships(X, Q, 2.0)
        np.testing.assert_array_equal(M[:, 0], [0.5, 0.5, 0.0])

    def test_invalid_fuzzifier(self):
        with pytest.raises(InvalidFuzzifierError):
            fcm.update_memberships(np.zeros((1, 1)), np.ones((2, 1)), 1.0)

    @settings(deadline=None, max_examples=30)
    @given(
        hnp.arrays(
            np.float64,
            (6, 2),
            elements=st.floats(-10, 10, allow_nan=False),
        ),
        st.floats(1.05, 4.0),
    )
    def test_columns_sum_to_one(self, X, f):
        Q = X[:3] + 0.25  # arbitrary centroids from the same range
        M = fcm.update_memberships(X, Q, f)
        np.testing.assert_allclose(M.sum(axis=0), 1.0, atol=1e-9)
        assert np.all(M >= 0) and np.all(M <= 1 + 1e-12)


def reference_memberships(d, f):
    """The membership update through masked copies, d[:, regular] (F-ordered)."""
    d = np.sqrt(d)
    dmin = d.min(axis=0)
    M = np.zeros_like(d)
    regular = dmin >= fcm.COINCIDENT_TOL
    w = (d[:, regular] / dmin[regular]) ** (-2.0 / (f - 1.0))
    M[:, regular] = w / w.sum(axis=0)
    hits = d[:, ~regular] < fcm.COINCIDENT_TOL
    M[:, ~regular] = hits / hits.sum(axis=0)
    return M


@pytest.mark.parametrize("c", [1, 2, 3, 10, 40])
@pytest.mark.parametrize("f", [1.01, 1.1, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("coincident", [False, True])
def test_memberships_match_masked_reference_bit_for_bit(c, f, coincident):
    # Column sums over the F-ordered work buffer must add in the masked
    # copy's order; a C-ordered buffer moves memberships by ~1e-16.
    rng = np.random.default_rng(c)
    X = rng.normal(size=(500, 6))
    Q = X[:c].copy() if coincident else rng.normal(size=(c, 6))
    want = reference_memberships(fcm._sq_distances(X, Q), f)
    np.testing.assert_array_equal(fcm.update_memberships(X, Q, f), want)


def test_fcm_fit_allocates_its_buffers_once():
    import tracemalloc

    rng = np.random.default_rng(2)
    X = rng.normal(size=(2000, 10))
    init = rng.normal(size=(40, 10))  # no point on a centroid, whose columns the fix-up copies
    peaks = []
    for max_iter in (5, 30):
        cfg = fcm.FcmConfig(c=40, f=1.1, max_iter=max_iter, eps=1e-300)
        tracemalloc.start()
        try:
            res = fcm.fcm_fit(X, cfg, init=init)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert res.iterations == max_iter
    cn_bytes = 40 * 2000 * 8
    # The trace list grows by one float per iteration; nothing else may.
    assert abs(peaks[1] - peaks[0]) < 4096, peaks
    # d2, M, M_prev and W, plus n-length vectors; the old loop peaked above 5.
    assert peaks[1] < 4.5 * cn_bytes, peaks[1] / cn_bytes


class TestUpdateCentroids:
    def test_hand_oracle_f2(self):
        # weights 0.75^2=0.5625, 0.25^2=0.0625 -> (0.0625*2)/0.625 = 0.2.
        X = np.array([[0.0, 0.0], [2.0, 0.0]])
        M = np.array([[0.75, 0.25]])
        Q = fcm.update_centroids(X, M, 2.0)
        np.testing.assert_allclose(Q, [[0.2, 0.0]], atol=1e-12)

    def test_uniform_memberships_give_mean(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        M = np.full((2, 10), 0.5)
        Q = fcm.update_centroids(X, M, 1.7)
        np.testing.assert_allclose(Q[0], X.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(Q[1], X.mean(axis=0), atol=1e-12)

    def test_one_hot_gives_cluster_means(self):
        X = np.array([[0.0], [1.0], [10.0], [12.0]])
        M = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        Q = fcm.update_centroids(X, M, 2.0)
        np.testing.assert_allclose(Q, [[0.5], [11.0]], atol=1e-12)

    def test_empty_cluster_raises(self):
        X = np.ones((3, 1))
        M = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        with pytest.raises(EmptyClusterError):
            fcm.update_centroids(X, M, 2.0)


def reference_fcm_fit(X, config, init):
    """fcm_fit as three public updates per iteration, each with its own distance pass."""
    Q = init
    trace, M_prev = [], None
    for t in range(1, config.max_iter + 1):
        M = fcm.update_memberships(X, Q, config.f)
        Q = fcm.update_centroids(X, M, config.f)
        trace.append(fcm.objective(X, M, Q, config.f))
        if M_prev is not None and np.linalg.norm(M - M_prev) < config.eps:
            return fcm.FcmResult(M, Q, trace, t, True)
        M_prev = M
    return fcm.FcmResult(M, Q, trace, t, False)


def _fcm_data():
    """Blobs in 4-D with a run of repeated rows, some of them initial centroids."""
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(loc=rng.normal(scale=4.0, size=4), size=(12, 4)) for _ in range(5)])
    return np.vstack([X[:12], X[:12], X])


@pytest.mark.parametrize("c", [1, 2, 3, 10, 40])
@pytest.mark.parametrize("f", [1.01, 1.1, 2.0])
@pytest.mark.parametrize("init", ["kmeans", "rows"])
def test_fcm_fit_matches_reference_bit_for_bit(c, f, init):
    X = _fcm_data()
    Q = fcm.kmeans_init(X, c, runs=3, seed=c) if init == "kmeans" else X[:c].copy()
    cfg = fcm.FcmConfig(c=c, f=f, max_iter=60, eps=1e-6)
    got, want = fcm.fcm_fit(X, cfg, init=Q), reference_fcm_fit(X, cfg, Q)
    np.testing.assert_array_equal(got.memberships, want.memberships)
    np.testing.assert_array_equal(got.centroids, want.centroids)
    assert got.objective_trace == want.objective_trace
    assert (got.iterations, got.converged) == (want.iterations, want.converged)


def seeded_fit(X, cfg):
    """fcm_fit from the k-means++ centroids that cluster_topics seeds it with."""
    return fcm.fcm_fit(X, cfg, fcm.kmeans_init(X, cfg.c, cfg.init_runs, cfg.seed))


class TestFcmFit:
    def test_fixed_point_at_distinct_points(self):
        X = np.array([[0.0, 0.0], [10.0, 0.0]])
        cfg = fcm.FcmConfig(c=2, f=2.0, max_iter=10, eps=1e-9)
        res = fcm.fcm_fit(X, cfg, init=X.copy())
        assert res.converged
        np.testing.assert_allclose(res.centroids, X, atol=1e-9)
        np.testing.assert_allclose(res.memberships, np.eye(2), atol=1e-9)

    def test_blobs_match_kmeans_oracle(self, blobs):
        X, _, _ = blobs
        cfg = fcm.FcmConfig(c=3, f=2.0, max_iter=1000, eps=1e-6, seed=0)
        res = seeded_fit(X, cfg)
        ours = res.memberships.argmax(axis=0)
        oracle = lloyd_oracle(X, 3, runs=10, seed=123)
        assert best_label_agreement(ours, oracle, 3) >= 0.95

    def test_objective_nonincreasing(self, blobs):
        X, _, _ = blobs
        cfg = fcm.FcmConfig(c=3, f=2.0, max_iter=1000, eps=1e-6, seed=0)
        trace = seeded_fit(X, cfg).objective_trace
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev + 1e-10 * abs(prev)

    def test_near_hard_limit(self, blobs):
        X, _, _ = blobs
        cfg = fcm.FcmConfig(c=3, f=1.01, max_iter=1000, eps=1e-6, seed=0)
        res = seeded_fit(X, cfg)
        assert np.all(res.memberships.max(axis=0) >= 0.99)

    def test_hard_limit_argmax_is_nearest_centroid(self, blobs):
        X, _, _ = blobs
        cfg = fcm.FcmConfig(c=3, f=1.001, max_iter=1000, eps=1e-6, seed=0)
        res = seeded_fit(X, cfg)
        d2 = ((X[:, None, :] - res.centroids[None]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(
            res.memberships.argmax(axis=0), d2.argmin(axis=1)
        )

    def test_convex_hull_containment(self, blobs):
        X, _, _ = blobs
        cfg = fcm.FcmConfig(c=3, f=1.5, max_iter=100, eps=1e-6, seed=1)
        res = seeded_fit(X, cfg)
        assert np.all(res.centroids >= X.min(axis=0) - 1e-12)
        assert np.all(res.centroids <= X.max(axis=0) + 1e-12)

    def test_relabeling_equivariance(self, blobs):
        X, _, _ = blobs
        init = fcm.kmeans_init(X, 3, runs=10, seed=0)
        cfg = fcm.FcmConfig(c=3, f=1.5, max_iter=50, eps=1e-9)
        res = fcm.fcm_fit(X, cfg, init=init)
        perm = [2, 0, 1]
        res_p = fcm.fcm_fit(X, cfg, init=init[perm])
        np.testing.assert_allclose(res_p.centroids, res.centroids[perm], atol=1e-10)
        np.testing.assert_allclose(res_p.memberships, res.memberships[perm], atol=1e-10)
        np.testing.assert_allclose(res_p.objective_trace, res.objective_trace, rtol=1e-12)

    def test_scaling_covariance(self, blobs):
        X, _, _ = blobs
        init = fcm.kmeans_init(X, 3, runs=10, seed=0)
        cfg = fcm.FcmConfig(c=3, f=1.5, max_iter=50, eps=1e-9)
        res = fcm.fcm_fit(X, cfg, init=init)
        res_s = fcm.fcm_fit(3.0 * X, cfg, init=3.0 * init)
        np.testing.assert_allclose(res_s.centroids, 3.0 * res.centroids, rtol=1e-9)
        np.testing.assert_allclose(res_s.memberships, res.memberships, atol=1e-9)

    def test_nonfinite_input(self):
        X = np.array([[np.nan, 0.0], [1.0, 1.0]])
        with pytest.raises(NonFiniteInputError):
            fcm.fcm_fit(X, fcm.FcmConfig(c=1), np.zeros((1, 2)))

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError, match="^2 points < 3 clusters$"):
            fcm.fcm_fit(np.zeros((2, 2)), fcm.FcmConfig(c=3), np.zeros((3, 2)))

    @pytest.mark.parametrize("init", [np.zeros((5, 2)), np.zeros((3, 3)), np.zeros(6)],
                             ids=["too-many-centroids", "wrong-width", "flat"])
    def test_init_shape_must_match_the_config(self, init):
        X = np.arange(20.0).reshape(10, 2)
        with pytest.raises(DimensionMismatchError, match="init shape"):
            fcm.fcm_fit(X, fcm.FcmConfig(c=3), init=init)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_init(self, bad):
        X = np.arange(20.0).reshape(10, 2)
        init = X[:3].copy()
        init[1, 0] = bad
        with pytest.raises(NonFiniteInputError):
            fcm.fcm_fit(X, fcm.FcmConfig(c=3), init=init)

    def test_determinism(self, blobs):
        X, _, _ = blobs
        cfg = fcm.FcmConfig(c=3, f=1.3, max_iter=100, eps=1e-7, seed=5)
        a = seeded_fit(X, cfg)
        b = seeded_fit(X, cfg)
        np.testing.assert_array_equal(a.memberships, b.memberships)
        np.testing.assert_array_equal(a.centroids, b.centroids)


def test_nan_fuzzifier_raises_instead_of_nan_memberships():
    X = np.random.default_rng(0).normal(size=(30, 2))
    with pytest.raises(InvalidFuzzifierError):
        fcm.fcm_fit(X, fcm.FcmConfig(c=3, f=float("nan")), X[:3])


@pytest.mark.parametrize("f", [float("nan"), 1.0, 0.5])
@pytest.mark.parametrize("update", ["update_memberships", "update_centroids", "objective"])
def test_reference_updates_take_the_configs_fuzzifier_domain(update, f):
    X, Q, M = np.zeros((3, 1)), np.array([[0.0], [1.0]]), np.full((2, 3), 0.5)
    args = {"update_memberships": (X, Q), "update_centroids": (X, M), "objective": (X, M, Q)}
    with pytest.raises(InvalidFuzzifierError):
        getattr(fcm, update)(*args[update], f)
    with pytest.raises(InvalidFuzzifierError):
        fcm.FcmConfig(f=f)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0])
def test_eps_must_be_finite_and_positive(eps):
    with pytest.raises(ValueError, match="^eps must be finite and > 0$"):
        fcm.FcmConfig(eps=eps)
