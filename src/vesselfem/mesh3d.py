"""Structured tetrahedral box mesh with P1 elements and O(1) point location.

Each grid cell is split into the six tetrahedra sharing the cell's main
diagonal, so the triangulation is conforming and every physical point can be
located by integer cell arithmetic plus at most six barycentric tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import ConfigError, DomainError

_BARY_TOL = 1e-12
_CHUNK = 65536  # tets per quadrature block, caps temporary array size

# axis orderings of the diagonal split; odd permutations get re-oriented
_PERMS = sorted(permutations((0, 1, 2)))


def _parity(perm) -> int:
    inversions = sum(
        1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


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
            v0 = base
            v1 = v0 + step[perm[0]]
            v2 = v1 + step[perm[1]]
            v3 = v2 + step[perm[2]]
            if _parity(perm) > 0:
                tets[:, p] = np.stack([v0, v1, v2, v3], axis=1)
            else:
                tets[:, p] = np.stack([v0, v2, v1, v3], axis=1)
        self.tets = tets.reshape(-1, 4)

        vert_idx = np.stack(
            np.meshgrid(np.arange(m), np.arange(m), np.arange(m), indexing="ij"),
            axis=-1,
        ).reshape(-1, 3)
        self.boundary_vertex = np.any((vert_idx == 0) | (vert_idx == n), axis=1)

        corners = self.vertices[self.tets]  # (nt, 4, 3)
        edges = corners[:, 1:] - corners[:, :1]  # (nt, 3, 3) rows = edge vectors
        self.volumes = np.linalg.det(edges) / 6.0
        ginv = np.linalg.inv(edges)  # columns give barycentric gradients 1..3
        grads = np.empty((self.tets.shape[0], 4, 3))
        grads[:, 1:] = np.transpose(ginv, (0, 2, 1))
        grads[:, 0] = -grads[:, 1:].sum(axis=1)
        self.gradients = grads
        self._x0 = corners[:, 0]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_tets(self) -> int:
        return self.tets.shape[0]

    @property
    def diameter(self) -> float:
        """Longest tet edge (the cell diagonal)."""
        return float(np.linalg.norm(self.cell_size))

    def quadrature(self, order):
        """Tet quadrature of the given order, in blocks of at most _CHUNK tets.

        Yields (tet slice, points (ne, nq, 3), weights 6|T| w_q (ne, nq)).
        """
        bary, w = tet_quadrature(order)
        for start in range(0, self.n_tets, _CHUNK):
            sl = slice(start, min(start + _CHUNK, self.n_tets))
            points = np.einsum("qi,eic->eqc", bary, self.vertices[self.tets[sl]])
            yield sl, points, 6.0 * self.volumes[sl, None] * w

    def barycentric(self, tet_ids, points):
        """Barycentric coordinates of points relative to the given tets."""
        d = points - self._x0[tet_ids]
        bary = np.einsum("...ic,...c->...i", self.gradients[tet_ids], d)
        bary[..., 0] += 1.0
        return bary

    def locate_many(self, points):
        """Locate points in the mesh; returns (tet ids, barycentric coords).

        Cell indices come from floor division, then the six tets of the cell
        are tested; a rare fallback scans the neighbouring cells for points
        sitting exactly on cell interfaces after roundoff.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if np.any(points < self.lo - _BARY_TOL) or np.any(points > self.hi + _BARY_TOL):
            bad = points[
                np.any((points < self.lo - _BARY_TOL) | (points > self.hi + _BARY_TOL), axis=1)
            ][0]
            raise DomainError(f"point {bad} is outside the box")
        u = (points - self.lo) / self.cell_size
        cells = np.clip(np.floor(u).astype(np.int64), 0, self.n - 1)
        flat = (cells[:, 0] * self.n + cells[:, 1]) * self.n + cells[:, 2]
        cand = flat[:, None] * 6 + np.arange(6)  # (m, 6)
        bary = self.barycentric(cand, points[:, None, :])  # (m, 6, 4)
        worst = bary.min(axis=2)
        best = worst.argmax(axis=1)
        rows = np.arange(points.shape[0])
        tet_ids = cand[rows, best]
        coords = bary[rows, best]
        missed = worst[rows, best] < -_BARY_TOL
        if np.any(missed):
            for r in np.nonzero(missed)[0]:
                tet_ids[r], coords[r] = self._locate_fallback(points[r], cells[r])
        return tet_ids, coords

    def _locate_fallback(self, point, cell):
        best_tet, best_coords, best_worst = -1, None, -np.inf
        for di in (0, -1, 1):
            for dj in (0, -1, 1):
                for dk in (0, -1, 1):
                    c = cell + np.array([di, dj, dk])
                    if np.any(c < 0) or np.any(c >= self.n):
                        continue
                    flat = (c[0] * self.n + c[1]) * self.n + c[2]
                    cand = flat * 6 + np.arange(6)
                    bary = self.barycentric(cand, point[None, :])
                    worst = bary.min(axis=1)
                    k = worst.argmax()
                    if worst[k] > best_worst:
                        best_worst = worst[k]
                        best_tet = int(cand[k])
                        best_coords = bary[k]
        if best_worst < -_BARY_TOL:
            raise DomainError(f"point {point} not contained in any candidate tet")
        return best_tet, best_coords


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
