"""The direct solver contract and the block scatter behind the vessel matrices.

The vessel matrices are SciPy CSR, summed from dense element blocks; the
monolithic coupled operator is factored once with SuperLU (partial pivoting)
and reused for every time step.  Given a symmetric order, SuperLU factors
the operator permuted by it, in its natural order; the coupled systems below
n = 32 hand it the box level's nested dissection (``stepper``).  Without
one, SuperLU chooses a minimum-degree ordering itself, as at n = 32.  Every
solve verifies the relative residual against a hard tolerance, with the one
CSC copy of the operator in the caller's numbering.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError

RESIDUAL_RTOL = 1e-10
# minimum-degree on A^T + A when no order is given: markedly less fill than
# COLAMD on these near-symmetric 3D stencils
_ORDERING = "MMD_AT_PLUS_A"


def scatter_blocks(n, *groups):
    """Sum of dense b x b blocks over index sets as one n x n CSR matrix.

    Each group is (index (m, b), blocks (m, b, b)): block j adds into the
    rows and columns index[j].
    """
    rows = np.concatenate([np.repeat(i, i.shape[1], axis=1).ravel() for i, _ in groups])
    cols = np.concatenate([np.tile(i, (1, i.shape[1])).ravel() for i, _ in groups])
    data = np.concatenate([np.asarray(b, dtype=float).ravel() for _, b in groups])
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


class Factorization:
    """Reusable LU factorization with per-solve residual verification.

    With ``order``, a permutation of the unknowns, the LU is that of P A P^T
    with (P v) = v[order]; solves take and return vectors in A's numbering.
    """

    def __init__(self, matrix, order=None):
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        self._matrix = matrix.tocsc()  # no copy of a CSC matrix
        self._order = order
        try:
            if order is None:
                self._lu = spla.splu(self._matrix, permc_spec=_ORDERING)
            else:
                self._lu = spla.splu(self._matrix[order][:, order], permc_spec="NATURAL")
        except RuntimeError as err:
            raise SolverError(f"LU factorization failed: {err}") from err
        self.residuals: list[float] = []

    @property
    def max_residual(self) -> float:
        return max(self.residuals, default=0.0)

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        n = self._matrix.shape[0]
        if rhs.shape[0] != n:
            raise ValueError(f"rhs length {rhs.shape[0]} != {n}")
        if self._order is None:
            x = self._lu.solve(rhs)
        else:
            x = np.empty_like(rhs)
            x[self._order] = self._lu.solve(rhs[self._order])
        norm_b = np.linalg.norm(rhs)
        residual = np.linalg.norm(self._matrix @ x - rhs)
        rel = residual / norm_b if norm_b > 0.0 else residual
        self.residuals.append(float(rel))
        if not rel <= RESIDUAL_RTOL:  # a NaN residual fails too
            raise SolverError(
                f"solve residual {rel:.3e} exceeds tolerance {RESIDUAL_RTOL:.1e} "
                f"(n = {n}, |rhs| = {norm_b:.3e})"
            )
        return x
