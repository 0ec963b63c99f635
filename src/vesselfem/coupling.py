"""Exchange term between the box concentration and the vessel concentration.

The wall flux is gamma |circumference| (cbar - chat), where cbar is the
lateral average of the 3D field over the section circle.  That average is one
sparse matrix A from box dofs to the vessel Gauss points (uniform circle
quadrature + P1 point evaluation); with T the vessel basis at the same points
and W the diagonal of gamma |circumference| w, the four blocks are the
Galerkin products A'WA, A'WT, (A'WT)' and T'WT.  So the pair quadratic form
u' C_OO u - 2 u' C_OL v + v' C_LL v equals (Au - Tv)' W (Au - Tv), the
assembled integral of gamma |circumference| (ubar - v)^2, and is nonnegative.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dg1d import DgSpace
from .errors import DomainError, GeometryError
from .geometry import VesselGeometry
from .mesh3d import POINT_BLOCK, FemSpace

DEFAULT_N_CIRCLE = 16


@dataclass(frozen=True)
class CouplingBlocks:
    """Sparse blocks of the exchange term over (3D dofs, 1D dofs)."""

    c_oo: sp.csr_matrix
    c_ol: sp.csr_matrix
    c_lo: sp.csr_matrix
    c_ll: sp.csr_matrix


def average_matrix(fem: FemSpace, geometry: VesselGeometry, s, n_circle: int):
    """Discrete lateral-average operator at arclengths s, CSR (len(s), fem.n_dofs).

    Row k holds barycentric weight / n_circle at the tet vertices of the
    n_circle points on the section circle at s[k], a vertex shared by several
    points summed into one entry; (A @ c)[k] is the circle mean of the P1
    field c.  The rows are built POINT_BLOCK circle points at a time (at least
    one row), each block's piece as the whole matrix would hold its rows.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    rows, pieces = max(1, POINT_BLOCK // n_circle), []
    for a in range(0, max(s.size, 1), rows):  # an empty s makes one empty piece
        sk = s[a:a + rows]
        pts = geometry.circle_points(sk, n_circle)
        try:
            tet_ids, bary = fem.mesh.locate_many(pts.reshape(-1, 3))
        except DomainError as err:
            overshoot = np.maximum(fem.mesh.lo - pts, pts - fem.mesh.hi).max(axis=(1, 2))
            raise GeometryError(
                f"section circle at s = {sk[np.argmax(overshoot)]} leaves the box: {err}"
            ) from err
        piece = sp.csr_matrix((bary.ravel() / n_circle, fem.mesh.tets[tet_ids].ravel(),
                               4 * n_circle * np.arange(sk.size + 1)), shape=(sk.size, fem.n_dofs))
        piece.sum_duplicates()  # sorts each row's columns and sums a shared vertex's entries
        pieces.append(piece)
    return pieces[0] if len(pieces) == 1 else sp.vstack(pieces, format="csr")


def assemble_coupling(
    geometry: VesselGeometry,
    fem: FemSpace,
    dg: DgSpace,
    n_circle: int = DEFAULT_N_CIRCLE,
) -> CouplingBlocks:
    """Assemble the four exchange blocks by 1D Gauss x circle quadrature,
    with degree + 2 Gauss points per vessel element.

    Every (element, Gauss point) with nonzero permeability is one point of
    the rule, one row of the averaging matrix A and of the trace matrix T.
    """
    q = dg.degree + 2
    pts, wts, vals, _ = dg.element_quadrature(q)
    s = pts.ravel()
    gam = np.asarray(geometry.gamma_at(s), dtype=float)
    live = np.nonzero(gam != 0.0)[0]
    s = s[live]
    weight = gam[live] * geometry.section_circumference(s) * wts.ravel()[live]
    avg = average_matrix(fem, geometry, s, n_circle)
    elem, k = np.divmod(live, q)
    cols = (dg.n_local * elem[:, None] + np.arange(dg.n_local)).ravel()  # n_local entries per row
    trace = sp.csr_matrix((vals[:, k].T.ravel(), cols, dg.n_local * np.arange(live.size + 1)),
                          shape=(live.size, dg.n_dofs))

    def weighted_transpose(m):  # M' W, exact zeros dropped, as SciPy's product gives it
        w = np.repeat(weight, np.diff(m.indptr))
        out = sp.csc_matrix((m.data * w, m.indices, m.indptr), shape=m.shape[::-1]).tocsr()
        out.eliminate_zeros()
        return out

    avg_w, trace_w = weighted_transpose(avg), weighted_transpose(trace)
    c_ol, c_ll = avg_w @ trace, trace_w @ trace
    c_ll.sort_indices()
    return CouplingBlocks(c_oo=avg_w @ avg, c_ol=c_ol, c_lo=c_ol.T.tocsr(), c_ll=c_ll)
