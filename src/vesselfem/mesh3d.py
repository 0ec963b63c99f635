"""Structured tetrahedral box mesh with P1 elements and O(1) point location.

Each grid cell is split into the six tetrahedra sharing the cell's main
diagonal (the Kuhn split), so the triangulation is conforming and has six tet
shapes and one tet volume.  Their barycentric gradients form one table that
assembly, error norms and point location (a sort per point) all share.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import ConfigError, DomainError

_BOX_TOL = 1e-12  # points this far outside the box are still located
_CHUNK = 65536  # tets per quadrature block, caps temporary array size

# axis orderings of the diagonal split in lexicographic order; the odd
# permutations swap their middle vertices to keep a positive orientation
_PERMS = sorted(permutations((0, 1, 2)))
_ODD = np.array([sum(a > b for a, b in combinations(perm, 2)) % 2 == 1 for perm in _PERMS])


class TetMesh:
    """Tetrahedral mesh of the box [lo, hi] with n cells per axis."""

    def __init__(self, lo, hi, n):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if n < 2:
            raise ConfigError("need at least 2 cells per axis")
        if np.any(hi <= lo):
            raise ConfigError("box bounds must satisfy lo < hi componentwise")
        self.lo = lo
        self.hi = hi
        self.n = int(n)
        self.cell_size = (hi - lo) / n

        m = n + 1
        grid = np.stack(
            np.meshgrid(
                np.linspace(lo[0], hi[0], m),
                np.linspace(lo[1], hi[1], m),
                np.linspace(lo[2], hi[2], m),
                indexing="ij",
            ),
            axis=-1,
        )
        self.vertices = grid.reshape(-1, 3)

        i, j, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
        base = (i * m + j) * m + k  # flat id of each cell's origin vertex
        base = base.reshape(-1)
        step = np.array([m * m, m, 1])  # +x, +y, +z in flat vertex ids

        tets = np.empty((base.size, 6, 4), dtype=np.int64)
        for p, perm in enumerate(_PERMS):
            v1 = base + step[perm[0]]
            v2 = v1 + step[perm[1]]
            v3 = v2 + step[perm[2]]
            tets[:, p] = np.stack([base, v2, v1, v3] if _ODD[p] else [base, v1, v2, v3], axis=1)
        self.tets = tets.reshape(-1, 4)

        vert_idx = np.stack(
            np.meshgrid(np.arange(m), np.arange(m), np.arange(m), indexing="ij"),
            axis=-1,
        ).reshape(-1, 3)
        self.boundary_vertex = np.any((vert_idx == 0) | (vert_idx == n), axis=1)

        # every cell repeats the same six Kuhn tets, so the first cell's six
        # give the barycentric gradients of all of them: tet t has shape t % 6
        corners = self.vertices[self.tets[:6]]  # (6, 4, 3)
        ginv = np.linalg.inv(corners[:, 1:] - corners[:, :1])  # columns: gradients 1..3
        grads = np.empty((6, 4, 3))
        grads[:, 1:] = np.transpose(ginv, (0, 2, 1))
        grads[:, 0] = -grads[:, 1:].sum(axis=1)
        self.shape_gradients = grads
        self.tet_volume = float(np.prod(self.cell_size)) / 6.0

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_tets(self) -> int:
        return self.tets.shape[0]

    @property
    def shapes(self):
        """Shape index (row of ``shape_gradients``) of every tet."""
        return np.arange(self.n_tets) % 6

    @property
    def gradients(self):
        """Barycentric gradients of every tet, (n_tets, 4, 3), from the shape table."""
        return self.shape_gradients[self.shapes]

    @property
    def volumes(self):
        """Volume of every tet; all are equal."""
        return np.full(self.n_tets, self.tet_volume)

    def quadrature(self, order):
        """Tet quadrature of the given order, in blocks of at most _CHUNK tets.

        Yields (tet slice, points (ne, nq, 3), weights 6|T| w_q (ne, nq)).
        """
        bary, w = tet_quadrature(order)
        for start in range(0, self.n_tets, _CHUNK):
            sl = slice(start, min(start + _CHUNK, self.n_tets))
            points = np.einsum("qi,eic->eqc", bary, self.vertices[self.tets[sl]])
            yield sl, points, np.broadcast_to(6.0 * self.tet_volume * w, points.shape[:2])

    def locate_many(self, points):
        """Locate points in the mesh; returns (tet ids, barycentric coords).

        The cell comes from floor division.  The point lies in the cell's Kuhn
        tet whose axis path visits the fractional coordinates f in descending
        order, and its barycentrics are (1 - f0, f0 - f1, f1 - f2, f2) of the
        sorted f, non-negative everywhere in the closed box.  Points within
        _BOX_TOL of the box are clamped onto it; farther out is a DomainError.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        outside = np.any((points < self.lo - _BOX_TOL) | (points > self.hi + _BOX_TOL), axis=1)
        if np.any(outside):
            raise DomainError(f"point {points[outside][0]} is outside the box")
        u = np.clip((points - self.lo) / self.cell_size, 0.0, self.n)
        cells = np.minimum(np.floor(u).astype(np.int64), self.n - 1)
        f = u - cells
        order = np.argsort(-f, axis=1)
        fs = np.take_along_axis(f, order, axis=1)
        bary = np.stack([1.0 - fs[:, 0], fs[:, 0] - fs[:, 1], fs[:, 1] - fs[:, 2], fs[:, 2]], axis=1)
        shape = 2 * order[:, 0] + (order[:, 1] > order[:, 2])  # lexicographic rank in _PERMS
        odd = _ODD[shape]
        bary[odd] = bary[odd][:, [0, 2, 1, 3]]
        flat = (cells[:, 0] * self.n + cells[:, 1]) * self.n + cells[:, 2]
        return flat * 6 + shape, bary


def build_box_mesh(lo, hi, n) -> TetMesh:
    return TetMesh(lo, hi, n)


@dataclass(frozen=True)
class FemSpace:
    """Continuous P1 space on a TetMesh; one dof per vertex."""

    mesh: TetMesh

    @property
    def n_dofs(self) -> int:
        return self.mesh.n_vertices

    @property
    def dirichlet_mask(self):
        return self.mesh.boundary_vertex

    @property
    def dof_points(self):
        return self.mesh.vertices

    def evaluate(self, dofs, points):
        """Evaluate the P1 field with the given dof vector at physical points."""
        tet_ids, bary = self.mesh.locate_many(points)
        return np.einsum("pi,pi->p", bary, np.asarray(dofs)[self.mesh.tets[tet_ids]])


def tet_quadrature(order):
    """Quadrature on the reference tet, exact to the given total degree.

    Returns (barycentric points (nq, 4), weights (nq,)); the weights sum to
    the reference volume 1/6.  Order 1 is the centroid rule, order 2 the
    symmetric 4-point rule, order 4 a conical-product Gauss-Jacobi rule
    (27 points, exact through degree 5).
    """
    if order == 1:
        return np.full((1, 4), 0.25), np.array([1.0 / 6.0])
    if order == 2:
        a = (5.0 + 3.0 * np.sqrt(5.0)) / 20.0
        b = (5.0 - np.sqrt(5.0)) / 20.0
        pts = np.full((4, 4), b)
        np.fill_diagonal(pts, a)
        return pts, np.full(4, 1.0 / 24.0)
    if order == 4:
        return _conical_rule(3)
    raise ConfigError(f"unsupported tet quadrature order {order}")


def _conical_rule(q):
    # collapsed-coordinate product rule: x = a, y = b(1-a), z = c(1-a)(1-b)
    xa, wa = roots_jacobi(q, 2.0, 0.0)
    xb, wb = roots_jacobi(q, 1.0, 0.0)
    xc, wc = roots_legendre(q)
    xa, wa = 0.5 * (xa + 1.0), wa / 8.0
    xb, wb = 0.5 * (xb + 1.0), wb / 4.0
    xc, wc = 0.5 * (xc + 1.0), wc / 2.0
    A, B, C = np.meshgrid(xa, xb, xc, indexing="ij")
    WA, WB, WC = np.meshgrid(wa, wb, wc, indexing="ij")
    x = A.ravel()
    y = (B * (1.0 - A)).ravel()
    z = (C * (1.0 - A) * (1.0 - B)).ravel()
    w = (WA * WB * WC).ravel()
    bary = np.stack([1.0 - x - y - z, x, y, z], axis=1)
    return bary, w
