"""Exchange term between the box concentration and the vessel concentration.

The wall flux is gamma |circumference| (cbar - chat), where cbar is the
lateral average of the 3D field over the section circle.  A single discrete
averaging operator (uniform circle quadrature + P1 point evaluation) is used
everywhere, so the four assembled blocks are mutually consistent: the pair
quadratic form u' C_OO u - 2 u' C_OL v + v' C_LL v equals the assembled
integral of gamma |circumference| (ubar - v)^2 and is nonnegative.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dg1d import DgSpace
from .errors import DomainError, GeometryError
from .geometry import VesselGeometry
from .mesh3d import FemSpace

DEFAULT_N_CIRCLE = 16


@dataclass(frozen=True)
class CouplingBlocks:
    """Sparse blocks of the exchange term over (3D dofs, 1D dofs)."""

    c_oo: sp.csr_matrix
    c_ol: sp.csr_matrix
    c_lo: sp.csr_matrix
    c_ll: sp.csr_matrix
    gauss_order: int
    n_circle: int


def average_rows(fem: FemSpace, geometry: VesselGeometry, s, n_circle: int):
    """Sparse rows of the discrete lateral-average operator at arclengths s.

    Returns (dof ids, weights), each (m, 4 n_circle) for the m values of s:
    the average of a P1 field c at s[k] is sum(weights[k] * c[dof ids[k]]).
    Duplicated dof ids are permitted.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    pts, _ = geometry.circle_points(s, n_circle)
    try:
        tet_ids, bary = fem.mesh.locate_many(pts.reshape(-1, 3))
    except DomainError as err:
        mesh = fem.mesh
        overshoot = np.maximum(mesh.lo - pts, pts - mesh.hi).max(axis=(1, 2))
        raise GeometryError(
            f"section circle at s = {s[np.argmax(overshoot)]} leaves the box: {err}"
        ) from err
    dofs = fem.mesh.tets[tet_ids].reshape(s.size, 4 * n_circle)
    weights = (bary / n_circle).reshape(s.size, 4 * n_circle)
    return dofs, weights


def lateral_average(fem: FemSpace, geometry: VesselGeometry, c_dofs, s: float,
                    n_circle: int = DEFAULT_N_CIRCLE) -> float:
    """Mean of the P1 field over the section circle at arclength s."""
    dofs, weights = average_rows(fem, geometry, s, n_circle)
    return float(weights[0] @ np.asarray(c_dofs)[dofs[0]])


def _csr(rows, cols, data, shape):
    """CSR matrix from broadcast-compatible triplet arrays."""
    rows, cols, data = np.broadcast_arrays(rows, cols, data)
    return sp.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=shape).tocsr()


def assemble_coupling(
    geometry: VesselGeometry,
    fem: FemSpace,
    dg: DgSpace,
    gauss_order: int | None = None,
    n_circle: int = DEFAULT_N_CIRCLE,
) -> CouplingBlocks:
    """Assemble the four exchange blocks by 1D Gauss x circle quadrature.

    Every (element, Gauss point) with nonzero permeability is one point of
    the rule; its circle is located with all the others in one call.
    """
    q = gauss_order if gauss_order is not None else dg.degree + 2
    pts, wts, vals, _ = dg.element_quadrature(q)
    s = pts.ravel()
    gam = np.asarray(geometry.gamma_at(s), dtype=float)
    live = gam != 0.0
    s = s[live]
    factor = gam[live] * geometry.section_circumference(s) * wts.ravel()[live]
    adofs, aw = average_rows(fem, geometry, s, n_circle)  # (m, a)
    elem, k = np.divmod(np.nonzero(live)[0], q)
    edofs = dg.n_local * elem[:, None] + np.arange(dg.n_local)  # (m, n_local)
    brow = vals[:, k].T  # (m, n_local)

    f3 = factor[:, None, None]
    ol_rows, ol_cols = adofs[:, :, None], edofs[:, None, :]
    ol_data = f3 * (aw[:, :, None] * brow[:, None, :])
    n_o, n_l = fem.n_dofs, dg.n_dofs
    c_oo = _csr(ol_rows, adofs[:, None, :], f3 * (aw[:, :, None] * aw[:, None, :]), (n_o, n_o))
    c_ol = _csr(ol_rows, ol_cols, ol_data, (n_o, n_l))
    c_lo = _csr(ol_cols, ol_rows, ol_data, (n_l, n_o))  # same triplets, transposed
    c_ll = dg.block_matrix((dg.n_local * elem, f3 * (brow[:, :, None] * brow[:, None, :])))
    return CouplingBlocks(c_oo, c_ol, c_lo, c_ll, q, n_circle)
