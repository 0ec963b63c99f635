"""The direct solver contract, the block scatter behind the vessel matrices
and the one-pass build of the coupled operator.

The vessel matrices are SciPy CSR, summed from dense element blocks.  The
monolithic coupled operator is built once as one CSC matrix in the order its
LU takes (``compose``) and factored once with SuperLU (partial pivoting):
given a symmetric order, as below n = 32 (``stepper``), SuperLU factors the
matrix as given; without one, as at n = 32, it orders by minimum degree.
Every solve permutes the right-hand side in and the solution out and checks
the relative residual against a hard tolerance on that one matrix.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg
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
    rows and columns index[j]; duplicates are summed as from COO.
    """
    rows = np.concatenate([np.repeat(i, i.shape[1], axis=1).ravel() for i, _ in groups])
    cols = np.concatenate([np.tile(i, (1, i.shape[1])).ravel() for i, _ in groups])
    data = np.concatenate([np.asarray(b, dtype=float).ravel() for _, b in groups])
    by_row = np.argsort(rows, kind="stable")
    out = sp.csr_matrix((data[by_row], cols[by_row], np.searchsorted(rows[by_row], np.arange(n + 1))), (n, n))
    out.sum_duplicates()
    return out


def compose(n, parts, order, identity_rows):
    """The canonical n x n CSC matrix summing the CSR ``parts`` (matrix, row
    offset, column offset, factor) with ``identity_rows`` made identity rows,
    entry (order[i], order[j]) at (i, j) (order None: the identity).  Entries
    add their terms in the order listed and drop exact zeros, as SciPy's sums do."""
    rank = np.arange(n) if order is None else np.argsort(order)
    dropped = np.isin(np.arange(n), identity_rows)
    keys, terms = [rank[identity_rows] * (n + 1)], [np.ones(len(identity_rows))]
    for matrix, row0, col0, factor in parts:
        rows = row0 + np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
        kept = ~dropped[rows]
        keys.append(rank[col0 + matrix.indices[kept]] * n + rank[rows[kept]])
        terms.append(factor * matrix.data[kept])
    # each key packed above its term's position, so one sort orders the keys
    # and keeps each key's terms listed; keys are below n^2, so this fits an
    # int64 while bits(n^2) + bits(term count) <= 63: 31 + 19 = 50 at box
    # level 32, 31 + 21 = 52 there at degree 64 with 1024 circle points
    packed = np.concatenate(keys)
    bits = packed.size.bit_length()
    packed <<= bits
    packed |= np.arange(packed.size)
    packed.sort()
    data = np.concatenate(terms)[packed & ((1 << bits) - 1)]
    packed >>= bits
    first = np.ones(packed.size, dtype=bool)
    np.not_equal(packed[1:], packed[:-1], out=first[1:])
    data = np.bincount(np.cumsum(first) - 1, weights=data)
    keys = packed[first]
    del packed, first, terms  # freed first, so the result can reuse their heap
    keys, data = keys[data != 0.0], data[data != 0.0]
    return sp.csc_matrix((data, keys % n, np.searchsorted(keys, n * np.arange(n + 1))), shape=(n, n))


class Factorization:
    """Reusable LU factorization with per-solve residual verification.

    With ``order``, a permutation of the unknowns, ``matrix`` is P A P^T with
    (P v) = v[order] and SuperLU factors it as given; without, it is A, which
    SuperLU orders by minimum degree.  Solves work in A's numbering.
    """

    def __init__(self, matrix, order=None):
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        self._matrix = matrix.tocsc()  # no copy of a CSC matrix
        self._order, self._rank = order, None if order is None else np.argsort(order)
        try:
            self._lu = spla.splu(self._matrix, permc_spec=_ORDERING if order is None else "NATURAL")
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
        b = rhs if self._order is None else rhs[self._order]
        y = self._lu.solve(b)
        # BLAS nrm2 scales as it sums, so a norm overflows only if it is
        # itself above the float range; unchecked, so a NaN stays a NaN
        norm_b = scipy.linalg.norm(b, check_finite=False)
        residual = scipy.linalg.norm(self._matrix @ y - b, check_finite=False)
        rel = residual / norm_b if norm_b > 0.0 else residual
        self.residuals.append(float(rel))
        if not rel <= RESIDUAL_RTOL:  # a NaN residual fails too
            raise SolverError(
                f"solve residual {rel:.3e} exceeds tolerance {RESIDUAL_RTOL:.1e} "
                f"(n = {n}, |rhs| = {norm_b:.3e})"
            )
        return y if self._order is None else y[self._rank]
