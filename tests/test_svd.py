import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dfcm_topics import svd
from dfcm_topics.errors import DimensionMismatchError, RankTooLargeError

from conftest import csr, dense_truncated_svd


class TestTruncatedSvd:
    def test_diagonal_matrix(self):
        D = np.diag([3.0, 2.0, 1.0])
        result = svd.truncated_svd(D, 2, seed=0)
        np.testing.assert_allclose(result.singular_values, [3.0, 2.0], atol=1e-10)

    def test_rank_one(self):
        u = np.array([1.0, 2.0, 2.0])
        v = np.array([3.0, 4.0])
        result = svd.truncated_svd(np.outer(u, v), 1, seed=0)
        assert abs(result.singular_values[0] - np.linalg.norm(u) * np.linalg.norm(v)) < 1e-10
        direction = result.right_vectors[:, 0]
        np.testing.assert_allclose(np.abs(direction), np.abs(v) / np.linalg.norm(v), atol=1e-10)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((30, 20))
        randomized = svd.truncated_svd(A, 5, seed=1)
        oracle = dense_truncated_svd(A, 5)
        np.testing.assert_allclose(
            randomized.singular_values, oracle.singular_values, rtol=1e-6
        )

    def test_orthonormal_right_vectors(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((40, 25))
        result = svd.truncated_svd(A, 6, seed=2)
        gram = result.right_vectors.T @ result.right_vectors
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)

    def test_sparse_input(self):
        A = sp.random(50, 30, density=0.2, random_state=5, format="csr")
        result = svd.truncated_svd(csr(A), 4, seed=0)
        oracle = dense_truncated_svd(A.toarray(), 4)
        np.testing.assert_allclose(
            result.singular_values, oracle.singular_values, rtol=1e-6
        )

    def test_doc_term_matrix_is_wrapped_and_gives_scipys_bits(self):
        """A CsrMatrix's products, summed from its own arrays, give the bits of a scipy
        matrix built by scipy, which goes through @ as a dense array does. The
        layouts they are summed through are built in blocks and freed on return."""
        A = sp.random(60, 40, density=0.1, random_state=2, format="csr")
        D = csr(A)
        ours, scipys = svd.truncated_svd(D, 5, seed=3), svd.truncated_svd(A, 5, seed=3)
        assert np.array_equal(ours.right_vectors, scipys.right_vectors)
        assert np.array_equal(ours.singular_values, scipys.singular_values)
        assert np.array_equal(svd.project(D, ours), svd.project(A, scipys))

        big = csr(sp.random(3000, 400, density=0.05, random_state=2))
        p = 20
        all_terms = big.nnz * (p + svd.OVERSAMPLE) * 8  # every weight * row product at once
        tracemalloc.start()
        try:
            result = svd.truncated_svd(big, p, seed=3)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < all_terms / 2
        assert kept < result.right_vectors.nbytes + (1 << 16)

    def test_rank_too_large(self):
        with pytest.raises(RankTooLargeError):
            svd.truncated_svd(np.ones((3, 4)), 4)

    def test_determinism(self):
        A = np.random.default_rng(6).standard_normal((20, 15))
        a = svd.truncated_svd(A, 3, seed=9)
        b = svd.truncated_svd(A, 3, seed=9)
        np.testing.assert_array_equal(a.right_vectors, b.right_vectors)
        np.testing.assert_array_equal(a.singular_values, b.singular_values)

    def test_sign_convention(self):
        A = np.random.default_rng(7).standard_normal((15, 10))
        result = svd.truncated_svd(A, 3, seed=0)
        for j in range(3):
            col = result.right_vectors[:, j]
            assert col[np.argmax(np.abs(col))] >= 0

    def test_eckart_young_spot_check(self):
        rng = np.random.default_rng(8)
        D = rng.standard_normal((12, 9))
        p = 3
        result = dense_truncated_svd(D, p)
        V = result.right_vectors
        ours = np.linalg.norm(D - D @ V @ V.T)
        for _ in range(100):
            B = rng.standard_normal((12, p)) @ rng.standard_normal((p, 9))
            assert ours <= np.linalg.norm(D - B) + 1e-6


def reference_fix_signs(V):
    """The per-column loop _fix_signs used to run: its oracle."""
    V = V.copy()
    for j in range(V.shape[1]):
        i = np.argmax(np.abs(V[:, j]))
        if V[i, j] < 0:
            V[:, j] = -V[:, j]
    return V


class TestFixSigns:
    def test_matches_reference_loop(self):
        rng = np.random.default_rng(10)
        for trial in range(200):
            V = rng.standard_normal((rng.integers(1, 40), rng.integers(1, 12)))
            if trial % 3 == 0:
                V = np.round(V)  # tied magnitudes and signed zeros
            if trial % 2:
                V = V.T.copy().T  # Fortran order, like Vt[:p].T
            got, want = svd._fix_signs(V), reference_fix_signs(V)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert got.flags.c_contiguous

    def test_input_unchanged(self):
        V = np.array([[1.0, -3.0], [-2.0, 0.5]])
        before = V.copy()
        np.testing.assert_array_equal(svd._fix_signs(V), [[-1.0, 3.0], [2.0, -0.5]])
        np.testing.assert_array_equal(V, before)


class TestSparseProducts:
    @settings(max_examples=50, deadline=None)
    @given(shape=st.tuples(st.integers(1, 24), st.integers(1, 24)), density=st.floats(0, 1),
           width=st.sampled_from([1, 2, 20]), order=st.sampled_from("CF"),
           block=st.sampled_from([1, 3, svd.BLOCK]), full_row=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_products_give_scipys_bits(self, shape, density, width, order, block, full_row,
                                       seed):
        """A @ X, A.T @ Y and Y.T @ A as (A.T @ Y).T equal scipy's bit for bit, signed
        zeros included, over empty rows and columns, a full row, C- and F-ordered
        operands and blocks that split the segments."""
        rng = np.random.default_rng(seed)
        n, m = shape
        M = rng.standard_normal(shape) * (rng.random(shape) < density)
        M[rng.random(n) < 0.3] = 0.0  # empty rows
        M[:, rng.random(m) < 0.3] = 0.0  # empty columns
        if full_row:
            M[rng.integers(n)] = rng.standard_normal(m)
        S, D = sp.csr_matrix(M), csr(M)
        X, Y = (np.asarray(rng.standard_normal((k, width)) * (rng.random((k, width)) < 0.5),
                           order=order) for k in (m, n))  # zeros make signed zero products
        with mock.patch.object(svd, "BLOCK", block):
            got, got_t = svd._product(D)(X), svd._product(D, transpose=True)(Y)
        for ours, scipys in ((got, S @ X), (got_t, S.T @ Y), (got_t.T, Y.T @ S)):
            scipys = np.asarray(scipys)
            assert ours.shape == scipys.shape
            assert np.array_equal(ours, scipys)
            assert np.array_equal(np.signbit(ours), np.signbit(scipys))
        assert got.flags.c_contiguous and got_t.flags.c_contiguous


class TestProjection:
    def test_shapes(self):
        A = np.random.default_rng(0).standard_normal((8, 6))
        result = svd.truncated_svd(A, 2, seed=0)
        coords = svd.project(A, result)
        assert coords.shape == (8, 2)
        back = svd.back_project(coords, result)
        assert back.shape == (8, 6)

    def test_diagonal_projection_scales_by_singular_values(self):
        D = np.diag([3.0, 2.0, 1.0])
        result = svd.truncated_svd(D, 2, seed=0)
        coords = svd.project(D, result)
        # Row k of D is sigma_k * (k-th right vector), so its coordinates
        # are sigma_k times that vector's (orthonormal) coefficients.
        np.testing.assert_allclose(
            np.sort(np.abs(np.diag(coords[:2]))), [2.0, 3.0], atol=1e-10
        )

    def test_zero_matrix_projects_to_zero(self):
        A = np.eye(4)
        result = svd.truncated_svd(A, 2, seed=0)
        np.testing.assert_array_equal(
            svd.project(np.zeros((3, 4)), result), np.zeros((3, 2))
        )

    def test_back_projection_is_rank_p_approximation(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((10, 7))
        p = 3
        result = svd.truncated_svd(A, p, seed=0)
        round_trip = svd.back_project(svd.project(A, result), result)
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        oracle = U[:, :p] @ np.diag(s[:p]) @ Vt[:p]
        np.testing.assert_allclose(round_trip, oracle, atol=1e-8)

    def test_full_rank_exact_round_trip(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((6, 4))
        result = svd.truncated_svd(A, 4, seed=0)
        round_trip = svd.back_project(svd.project(A, result), result)
        np.testing.assert_allclose(round_trip, A, atol=1e-8)

    def test_dimension_mismatch(self):
        A = np.ones((5, 4))
        result = svd.truncated_svd(A, 2, seed=0)
        with pytest.raises(DimensionMismatchError):
            svd.project(np.ones((5, 3)), result)
        with pytest.raises(DimensionMismatchError):
            svd.back_project(np.ones((2, 3)), result)
