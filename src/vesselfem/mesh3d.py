"""Structured tetrahedral box mesh with P1 elements and O(1) point location.

Each grid cell is split into the six tetrahedra sharing the cell's main
diagonal (the Kuhn split), so the triangulation is conforming and has six tet
shapes and one tet volume.  Their barycentric gradients form one table that
assembly, error norms, point location (a sort per point) and the quadrature
points share.  Per-shape element blocks are summed onto the one CSR pattern
of the P1 matrices as a stencil on the cell grid, one shifted slice per
block entry, with no per-tet map to data positions.
Quadrature runs in boxes of whole cells, so every consumer's temporaries
stay bounded whatever the level; a block gives its points or their
coordinate axes, over which a closed form is evaluated once per (x, y)
column and once per z layer.  The interior vertices have one
nested-dissection order, built on first use, that the LU factorizations share.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations, product

import numpy as np

from .errors import ConfigError, DomainError

DEFAULT_BOX = ((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))  # the box of every coupled system
_BOX_TOL = 1e-12  # points this far outside the box are still located
_CHUNK = 65536  # quadrature points per block of whole cells, at least one
# a vertex and its neighbours along the Kuhn edges: offsets in {-1, 0, 1}^3
# that do not mix -1 and +1, in lexicographic (so column) order
_OFFSETS = np.array([d for d in product((-1, 0, 1), repeat=3) if not (1 in d and -1 in d)])
_LEAF = 16  # vertices in a leaf box of the nested dissection

# axis orderings of the diagonal split in lexicographic order; the odd
# permutations swap their middle vertices to keep a positive orientation
_PERMS = sorted(permutations((0, 1, 2)))
_ODD = np.array([sum(a > b for a, b in combinations(perm, 2)) % 2 == 1 for perm in _PERMS])

# the 3-point Gauss factors (points on [-1, 1], weights) of the order-4 conical
# product rule (Stroud 1971): Gauss-Jacobi for the weights (1-x)^2 and (1-x),
# then Gauss-Legendre, as the float64 values scipy.special.roots_jacobi(3, 2, 0),
# roots_jacobi(3, 1, 0) and roots_legendre(3) return
_GAUSS_FACTORS = (
    ((-0.8540119518537006, -0.30599246792329643, 0.41000441977699675),
     (1.2570908885190917, 1.169970154078929, 0.23960562406864572)),
    ((-0.8228240809745921, -0.1810662711185305, 0.5753189235216941),
     (0.8037276549558384, 0.9169644254383448, 0.2793079196058167)),
    ((-0.7745966692414834, 0.0, 0.7745966692414834),
     (0.5555555555555558, 0.8888888888888883, 0.5555555555555558)),
)


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
        self.grid_index = np.stack(np.unravel_index(np.arange(m**3), (m, m, m)), axis=1)
        self.vertices = np.stack(
            [np.linspace(lo[c], hi[c], m)[self.grid_index[:, c]] for c in range(3)], axis=1
        )
        self.boundary_vertex = np.any((self.grid_index == 0) | (self.grid_index == n), axis=1)

        base = np.flatnonzero(np.all(self.grid_index < n, axis=1))  # each cell's origin vertex
        path = np.cumsum(np.array([m * m, m, 1])[np.array(_PERMS)], axis=1)  # one step per axis
        local = np.insert(path, 0, 0, axis=1)  # (6, 4) vertex ids relative to the cell origin
        local[_ODD] = local[_ODD][:, [0, 2, 1, 3]]
        self.tets = (base[:, None, None] + local).reshape(-1, 4).astype(np.int32)

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
    def gradients(self):
        """Barycentric gradients of every tet, (n_tets, 4, 3), from the shape table."""
        return np.tile(self.shape_gradients, (self.n**3, 1, 1))

    @property
    def volumes(self):
        """Volume of every tet; all are equal."""
        return np.full(self.n_tets, self.tet_volume)

    def _neighbours(self):
        """(vertex, offset) mask of the P1 pattern: vertex + _OFFSETS[d] is in the grid."""
        g = self.grid_index
        allowed = np.stack([g > 0, np.full(g.shape, True), g < self.n], axis=2)  # steps -1, 0, +1
        return np.all(allowed[:, np.arange(3), _OFFSETS + 1], axis=2)

    @cached_property
    def csr_pattern(self):
        """Read-only int32 (indptr, indices) of every P1 matrix: row v holds
        v + d for the offsets d of _OFFSETS that stay in the grid, in column order."""
        m = self.n + 1
        inside = self._neighbours()
        indptr = np.zeros(self.n_vertices + 1, dtype=np.int32)
        np.cumsum(inside.sum(axis=1), out=indptr[1:])
        step = (_OFFSETS @ (m * m, m, 1)).astype(np.int32)
        indices = (np.arange(self.n_vertices, dtype=np.int32)[:, None] + step)[inside]
        for a in (indptr, indices):  # read-only before any matrix takes a view of it
            a.flags.writeable = False
        return indptr, indices

    @cached_property
    def dissection_order(self):
        """Read-only nested-dissection order of the interior vertices: a box of
        grid indices is split at the middle vertex plane of its longest axis,
        which separates the Kuhn stencil, and the plane follows its two halves;
        boxes of at most _LEAF vertices are leaves, each in lexicographic order."""
        def dissect(box):  # box: one range of grid indices per axis
            sizes = [len(r) for r in box]
            if math.prod(sizes) <= _LEAF:
                return [box]
            axis = sizes.index(max(sizes))
            half = sizes[axis] // 2
            part = lambda s: box[:axis] + (box[axis][s],) + box[axis + 1:]
            return (dissect(part(slice(half))) + dissect(part(slice(half + 1, None)))
                    + [part(slice(half, half + 1))])

        order = np.concatenate([np.ravel_multi_index(np.ix_(*box), (self.n + 1,) * 3).ravel()
                                for box in dissect((range(1, self.n),) * 3)])
        order.flags.writeable = False
        return order

    def sum_blocks(self, blocks):
        """Data on csr_pattern of the matrix summing the per-shape 4 x 4
        blocks (6, 4, 4) over every cell.  Entry (i, j) of shape s adds into
        the n^3 slice of the (offset, vertex) stencil whose rows are the
        cells' corner i; corners run from (1, 1, 1) down to (0, 0, 0), then
        the shapes in order, so every entry sums its terms in ascending tet order."""
        n, m = self.n, self.n + 1
        corner = self.grid_index[self.tets[:6]]  # (6, 4, 3) shape corners, 0/1 per axis
        code = corner @ (9, 3, 1)
        which = np.searchsorted(_OFFSETS @ (9, 3, 1), code[:, None] - code[:, :, None])  # i to j
        stencil = np.zeros((len(_OFFSETS), m, m, m))
        for s, i in sorted(np.ndindex(6, 4), key=lambda si: (-code[si], si[0])):
            rows = tuple(slice(q, q + n) for q in corner[s, i])  # the cells' row vertices
            for j in range(4):
                target = stencil[(which[s, i, j],) + rows]
                target += blocks[s, i, j]  # in place, no write-back
        return stencil.reshape(len(_OFFSETS), -1).T[self._neighbours()]  # the pattern's entries, row by row

    def quadrature(self, order, axes=False):
        """Tet quadrature of the given order in blocks that are boxes of whole
        cells, an i-range x j-range x k-range of at most _CHUNK points (one
        cell when a cell alone holds more): whole i-planes, else whole k-rows
        of one plane, else part of one row, so the blocks tile the tets in
        order, cell after cell, each cell's six shapes in order.  A point is
        its cell origin plus one of P = 6 nq per-cell offsets.

        Yields (tet slice, points (m, 3), weights 6|T| w_q (ne, nq)); with
        ``axes`` the points' coordinate axes X (bi, 1, 1, P), Y (1, bj, 1, P)
        and Z (1, 1, bk, P) instead, which broadcast to them in that order.
        """
        bary, w = tet_quadrature(order)
        corners = self.vertices[self.tets[:6]]
        ref = np.einsum("qi,sic->sqc", bary, corners - corners[:, :1]).reshape(-1, 3)  # (P, 3)
        n, cells = self.n, max(1, _CHUNK // ref.shape[0])
        box = [min(n, max(1, cells // n**d)) for d in (2, 1, 0)]
        origins = [np.linspace(self.lo[c], self.hi[c], n + 1)[:n] for c in range(3)]
        for start in product(*(range(0, n, b) for b in box)):
            ranges = [range(a, min(a + b, n)) for a, b in zip(start, box)]
            xyz = tuple(origins[c][r].reshape([-1 if d == c else 1 for d in range(4)]) + ref[:, c]
                        for c, r in enumerate(ranges))
            first, ne = 6 * ((start[0] * n + start[1]) * n + start[2]), 6 * math.prod(map(len, ranges))
            points = xyz if axes else np.stack(np.broadcast_arrays(*xyz), axis=-1).reshape(-1, 3)
            yield slice(first, first + ne), points, np.broadcast_to(6.0 * self.tet_volume * w, (ne, w.size))

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
    """Continuous P1 space on a TetMesh: a dof at each of ``mesh.vertices``, fixed on ``mesh.boundary_vertex``."""

    mesh: TetMesh

    @property
    def n_dofs(self) -> int:
        return self.mesh.n_vertices

    def evaluate(self, dofs, points):
        """Evaluate the P1 field with the given dof vector at physical points."""
        tet_ids, bary = self.mesh.locate_many(points)
        return np.einsum("pi,pi->p", bary, np.asarray(dofs)[self.mesh.tets[tet_ids]])


@lru_cache(maxsize=None)
def tet_quadrature(order):
    """Quadrature on the reference tet, exact to the given total degree.

    Returns read-only (barycentric points (nq, 4), weights (nq,)), computed
    once per order; the weights sum to the reference volume 1/6.  Order 2 is
    the symmetric 4-point rule, order 4 a conical-product Gauss-Jacobi rule
    (27 points, exact through degree 5) collapsed from three stored 3-point
    Gauss factors, the values SciPy's roots_jacobi and roots_legendre return
    (the tests check them against SciPy).
    """
    if order == 2:
        a = (5.0 + 3.0 * np.sqrt(5.0)) / 20.0
        b = (5.0 - np.sqrt(5.0)) / 20.0
        rule = np.where(np.eye(4, dtype=bool), a, b), np.full(4, 1.0 / 24.0)
    elif order == 4:
        rule = _conical_rule()
    else:
        raise ConfigError(f"unsupported tet quadrature order {order}")
    for a in rule:
        a.flags.writeable = False
    return rule


def _conical_rule():
    # collapsed-coordinate product rule: x = a, y = b(1-a), z = c(1-a)(1-b)
    (xa, wa), (xb, wb), (xc, wc) = np.array(_GAUSS_FACTORS)
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
