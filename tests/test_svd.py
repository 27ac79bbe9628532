import numpy as np
import pytest
import scipy.sparse as sp

from dfcm_topics import svd
from dfcm_topics.errors import DimensionMismatchError, RankTooLargeError
from dfcm_topics.textprep import DocTermMatrix

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
        result = svd.truncated_svd(DocTermMatrix(csr(A)), 4, seed=0)
        oracle = dense_truncated_svd(A.toarray(), 4)
        np.testing.assert_allclose(
            result.singular_values, oracle.singular_values, rtol=1e-6
        )

    def test_doc_term_matrix_is_wrapped_and_gives_scipys_bits(self):
        """Only the row pointers are copied, and the products, run by scipy over the same
        canonical arrays, give the bits of a scipy matrix built by scipy, which is still
        taken as it is."""
        A = sp.random(60, 40, density=0.1, random_state=2, format="csr")
        D = DocTermMatrix(csr(A))
        op = svd._as_operator(D)
        assert np.shares_memory(op.data, D.matrix.data)
        assert np.shares_memory(op.indices, D.matrix.indices)
        ours, scipys = svd.truncated_svd(D, 5, seed=3), svd.truncated_svd(A, 5, seed=3)
        assert np.array_equal(ours.right_vectors, scipys.right_vectors)
        assert np.array_equal(ours.singular_values, scipys.singular_values)
        assert np.array_equal(svd.project(D, ours), svd.project(A, scipys))

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
