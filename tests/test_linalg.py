import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from vesselfem import linalg
from vesselfem.errors import SolverError

from _oracles import constrain_rows


class TestFactorize:
    def test_identity(self):
        fact = linalg.Factorization(sp.identity(5, format="csr"))
        rhs = np.arange(5.0)
        assert np.allclose(fact.solve(rhs), rhs)

    def test_small_spd(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        x = linalg.Factorization(A).solve(np.array([3.0, 3.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(2)
        B = rng.standard_normal((50, 50))
        A = sp.csr_matrix(B @ B.T + 50 * np.eye(50))
        b = rng.standard_normal(50)
        fact = linalg.Factorization(A)
        x = fact.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-12
        assert fact.max_residual <= 1e-12

    def test_zero_rhs(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.all(linalg.Factorization(A).solve(np.zeros(2)) == 0.0)

    def test_singular_raises(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(SolverError):
            linalg.Factorization(A)

    def test_reuse_bit_identical(self):
        rng = np.random.default_rng(3)
        A = sp.csr_matrix(rng.standard_normal((20, 20)) + 20 * np.eye(20))
        b = rng.standard_normal(20)
        fact = linalg.Factorization(A)
        assert np.array_equal(fact.solve(b), fact.solve(b))

    def test_given_order(self):
        """Given the matrix in factor order, the LU solves in the caller's numbering."""
        rng = np.random.default_rng(4)
        A = sp.random(60, 60, density=0.1, random_state=5, format="csr") + 10 * sp.identity(60)
        b = rng.standard_normal(60)
        order = rng.permutation(60)
        fact = linalg.Factorization(A[order][:, order], order=order)
        x = fact.solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= linalg.RESIDUAL_RTOL
        assert np.allclose(x, linalg.Factorization(A).solve(b), rtol=0.0, atol=1e-12)

    def test_residual_guard(self, monkeypatch):
        class BrokenLU:
            def solve(self, rhs):
                return np.zeros_like(rhs)

        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
        for order in (None, [1, 0]):  # minimum degree, a given order
            fact = linalg.Factorization(A if order is None else A[order][:, order], order=order)
            monkeypatch.setattr(fact, "_lu", BrokenLU())
            with pytest.raises(SolverError, match="residual"):
                fact.solve(np.array([1.0, 1.0]))

    def test_residual_in_factor_numbering(self):
        """The stored matrix is the one factored, and the check multiplies it
        by the solution in the factor's numbering."""
        A = sp.csc_matrix(np.array([[4.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 2.0]]))
        order = np.array([2, 0, 1])
        permuted = A[order][:, order].tocsc()
        fact = linalg.Factorization(permuted, order=order)
        assert fact._matrix is permuted
        b = np.array([1.0, 2.0, 3.0])
        x = fact.solve(b)
        np.testing.assert_allclose(A @ x, b, rtol=0.0, atol=1e-14)
        assert fact.residuals == [np.linalg.norm(permuted @ x[order] - b[order]) / np.linalg.norm(b[order])]


    def test_huge_rhs_does_not_overflow(self):
        """The norms scale as they sum, so a right-hand side near the float
        range gives the unscaled one's relative residual to round-off."""
        rng = np.random.default_rng(6)
        A = sp.csr_matrix(rng.standard_normal((20, 20)) + 20 * np.eye(20))
        b = rng.standard_normal(20)
        fact = linalg.Factorization(A)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fact.solve(b)
            fact.solve(1e300 * b)
        unscaled, scaled = fact.residuals
        assert abs(scaled - unscaled) <= 1e-15  # NaN fails too

    def test_nan_rhs_raises(self):
        # a NaN residual is not below the tolerance, so it must not pass as one
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(SolverError, match="residual"):
            linalg.Factorization(A).solve(np.array([1.0, np.nan]))

    def test_shape_checks(self):
        A = sp.identity(4, format="csr")
        with pytest.raises(ValueError):
            linalg.Factorization(A).solve(np.ones(5))
        with pytest.raises(ValueError):
            linalg.Factorization(sp.csr_matrix(np.ones((2, 3))))


class TestCompose:
    """The one-pass build sums the parts entry by entry in the order listed,
    drops exact zeros, writes identity rows and permutes into the order."""

    def test_matches_sparse_sums(self):
        rng = np.random.default_rng(6)
        a, b, c = (sp.random(7, 7, density=0.4, random_state=k, format="csr") for k in (1, 2, 3))
        d = sp.random(7, 3, density=0.5, random_state=4, format="csr")
        e = sp.random(3, 3, density=0.7, random_state=5, format="csr")
        order = rng.permutation(10)
        rows = np.array([0, 4])
        out = linalg.compose(10, [(a, 0, 0, 1.0), (b, 0, 0, 2.5), (c, 0, 0, -1.0), (d, 0, 7, -1.0),
                                  (d.T.tocsr(), 7, 0, -1.0), (e, 7, 7, 3.0)], order, rows)
        top = constrain_rows(sp.hstack([(a + 2.5 * b) - c, -d], format="csr"), rows)
        expected = sp.vstack([top, sp.hstack([-d.T, 3.0 * e])], format="csc")[order][:, order]
        expected.sum_duplicates()
        assert out.format == "csc" and out.has_sorted_indices
        assert np.array_equal(out.indptr, expected.indptr) and np.array_equal(out.indices, expected.indices)
        assert out.data.tobytes() == expected.data.tobytes()

    def test_drops_exact_zeros(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        out = linalg.compose(2, [(a, 0, 0, 1.0), (a, 0, 0, -1.0), (sp.identity(2, format="csr"), 0, 0, 1.0)],
                             None, np.array([], dtype=int))
        assert out.nnz == 2 and np.array_equal(out.toarray(), np.eye(2))
