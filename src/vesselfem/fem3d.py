"""Assembly of the 3D operators: mass, diffusion, convection, loads, Dirichlet.

All matrices are assembled once per run (the coefficients are required to be
time-independent) and stored in CSR form.  Bilinear forms use the order-2 tet
rule, which is exact for P1 x P1 with constant coefficients; load vectors and
error norms use order 4.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import CoefficientError, ConfigError
from .mesh3d import FemSpace, tet_quadrature

_CHUNK = 65536  # tets per assembly block, caps temporary array size


@dataclass(frozen=True)
class ScalarField3:
    """Scalar coefficient on the box; fn maps (points (m,3), t) -> (m,).

    ``terms``, when not empty, declares the field time-separable,
    f(x, t) = sum_k g_k(t) f_k(x), as pairs (g_k, f_k) with g_k mapping t to
    a float and f_k mapping points (m,3) to (m,).  ``fn`` is then that sum.
    """

    fn: Callable
    space_constant: bool = False
    time_constant: bool = False
    is_zero: bool = False
    terms: tuple = ()

    def __call__(self, x, t=0.0):
        return np.asarray(self.fn(x, t), dtype=float)

    @classmethod
    def separable(cls, *terms):
        """Field sum_k g_k(t) f_k(x) from pairs (g_k, f_k)."""
        terms = tuple((g, fk) for g, fk in terms)
        if not terms:
            raise ValueError("a separable field needs at least one term")

        def fn(x, t):
            return sum(float(g(t)) * np.asarray(fk(x), dtype=float) for g, fk in terms)

        return cls(fn=fn, terms=terms)

    def term_fields(self):
        """The spatial factors f_k as time-independent fields."""
        return [
            ScalarField3(fn=lambda x, t, fk=fk: fk(x), time_constant=True)
            for _, fk in self.terms
        ]

    @classmethod
    def constant(cls, value):
        v = float(value)
        return cls(
            fn=lambda x, t: np.full(np.shape(x)[0], v),
            space_constant=True,
            time_constant=True,
            is_zero=(v == 0.0),
        )

    @classmethod
    def zero(cls):
        return cls.constant(0.0)


@dataclass(frozen=True)
class VectorField3:
    """Vector coefficient on the box; fn maps (points (m,3), t) -> (m,3)."""

    fn: Callable
    space_constant: bool = False
    time_constant: bool = False

    def __call__(self, x, t=0.0):
        return np.asarray(self.fn(x, t), dtype=float)

    @classmethod
    def constant(cls, vec):
        v = np.asarray(vec, dtype=float)
        return cls(
            fn=lambda x, t: np.broadcast_to(v, (np.shape(x)[0], 3)).copy(),
            space_constant=True,
            time_constant=True,
        )


def _quad_points(mesh, tets_slice, bary):
    corners = mesh.vertices[mesh.tets[tets_slice]]  # (ne, 4, 3)
    return np.einsum("qi,eic->eqc", bary, corners)  # (ne, nq, 3)


def _scatter(space: FemSpace, local):
    """Accumulate per-element 4x4 blocks into a CSR matrix."""
    tets = space.mesh.tets
    rows = np.repeat(tets, 4, axis=1).ravel()
    cols = np.tile(tets, (1, 4)).ravel()
    mat = sp.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(space.n_dofs, space.n_dofs)
    )
    return mat.tocsr()


def assemble_mass(space: FemSpace):
    """Mass matrix; symmetric positive definite."""
    bary, w = tet_quadrature(2)
    phi = bary  # P1 values at the quadrature points
    ref = np.einsum("q,qi,qj->ij", w, phi, phi)  # reference-tet block
    local = 6.0 * space.mesh.volumes[:, None, None] * ref
    return _scatter(space, local)


def assemble_stiffness(space: FemSpace, kappa: ScalarField3):
    """Diffusion matrix for coefficient kappa; PSD with constants in the kernel."""
    mesh = space.mesh
    bary, w = tet_quadrature(2)
    g = mesh.gradients
    gg = np.einsum("eic,ejc->eij", g, g)  # (nt, 4, 4)
    if kappa.space_constant:
        kval = kappa(np.zeros((1, 3)))[0]
        if kval <= 0.0:
            raise CoefficientError("diffusivity must be positive")
        local = (6.0 * w.sum() * kval) * mesh.volumes[:, None, None] * gg
    else:
        local = np.zeros_like(gg)
        for start in range(0, mesh.n_tets, _CHUNK):
            sl = slice(start, min(start + _CHUNK, mesh.n_tets))
            xq = _quad_points(mesh, sl, bary)
            kq = kappa(xq.reshape(-1, 3)).reshape(xq.shape[:2])
            if np.any(kq <= 0.0):
                raise CoefficientError("diffusivity must be positive at all quadrature points")
            kw = kq @ w  # (ne,)
            local[sl] = (6.0 * mesh.volumes[sl] * kw)[:, None, None] * gg[sl]
    return _scatter(space, local)


def assemble_convection(space: FemSpace, velocity: VectorField3):
    """Convection matrix with entries -(U phi_j, grad phi_i)."""
    if not velocity.time_constant:
        raise ConfigError("velocity must be independent of time")
    mesh = space.mesh
    bary, w = tet_quadrature(2)
    g = mesh.gradients
    local = np.zeros((mesh.n_tets, 4, 4))
    if velocity.space_constant:
        u = velocity(np.zeros((1, 3)))[0]
        ug = g @ u  # (nt, 4): U . grad(phi_i)
        ref = np.einsum("q,qj->j", w, bary)  # integral of phi_j on reference tet
        local = -6.0 * mesh.volumes[:, None, None] * np.einsum("ei,j->eij", ug, ref)
    else:
        for start in range(0, mesh.n_tets, _CHUNK):
            sl = slice(start, min(start + _CHUNK, mesh.n_tets))
            xq = _quad_points(mesh, sl, bary)
            uq = velocity(xq.reshape(-1, 3)).reshape(xq.shape[:2] + (3,))
            ug = np.einsum("eqc,eic->eqi", uq, g[sl])
            local[sl] = -6.0 * mesh.volumes[sl, None, None] * np.einsum(
                "q,eqi,qj->eij", w, ug, bary
            )
    return _scatter(space, local)


def assemble_load(space: FemSpace, f: ScalarField3, t: float, order: int = 4):
    """Load vector F_i = (f(., t), phi_i)."""
    out = np.zeros(space.n_dofs)
    if f.is_zero:
        return out
    mesh = space.mesh
    bary, w = tet_quadrature(order)
    for start in range(0, mesh.n_tets, _CHUNK):
        sl = slice(start, min(start + _CHUNK, mesh.n_tets))
        xq = _quad_points(mesh, sl, bary)
        fq = f(xq.reshape(-1, 3), t).reshape(xq.shape[:2])
        loc = 6.0 * mesh.volumes[sl, None] * np.einsum("q,eq,qi->ei", w, fq, bary)
        np.add.at(out, mesh.tets[sl].ravel(), loc.ravel())
    return out


def constrain_rows(matrix, rows):
    """Replace the given rows by identity rows (nonsymmetric elimination)."""
    rows = np.asarray(rows, dtype=np.int64)
    coo = matrix.tocoo()
    keep = ~np.isin(coo.row, rows)
    data = np.concatenate([coo.data[keep], np.ones(rows.size)])
    r = np.concatenate([coo.row[keep], rows])
    c = np.concatenate([coo.col[keep], rows])
    out = sp.coo_matrix((data, (r, c)), shape=matrix.shape).tocsr()
    out.sum_duplicates()
    return out


def dirichlet_values(space: FemSpace, g, t: float):
    """Boundary values g(x_i, t) at the constrained vertices."""
    pts = space.dof_points[space.dirichlet_mask]
    if g is None:
        return np.zeros(pts.shape[0])
    return np.asarray(g(pts, t), dtype=float)


def apply_dirichlet(matrix, rhs, space: FemSpace, g, t: float):
    """Strongly impose c = g on the boundary rows of (matrix, rhs).

    Rows of constrained dofs become identity rows and the rhs entries get the
    boundary values; columns are left untouched.
    """
    rows = np.nonzero(space.dirichlet_mask)[0]
    out_matrix = constrain_rows(matrix, rows) if matrix is not None else None
    out_rhs = None
    if rhs is not None:
        out_rhs = np.array(rhs, dtype=float, copy=True)
        out_rhs[rows] = dirichlet_values(space, g, t)
    return out_matrix, out_rhs


def poincare_constant(lo, hi) -> float:
    """Poincare constant of the box for fields vanishing on the boundary."""
    sides = np.asarray(hi, dtype=float) - np.asarray(lo, dtype=float)
    return 1.0 / (np.pi * np.sqrt(np.sum(1.0 / sides**2)))


def check_velocity_bound(space: FemSpace, velocity: VectorField3, kappa_min: float):
    """Warn when a non-constant velocity may exceed the diffusion-dominance bound.

    Spatially constant velocities are divergence-free and exempt.  The bound
    uses the computable box Poincare constant, so a violation is advisory
    only.
    """
    if velocity.space_constant:
        return
    mesh = space.mesh
    bary, _ = tet_quadrature(2)
    sup = 0.0
    for start in range(0, mesh.n_tets, _CHUNK):
        sl = slice(start, min(start + _CHUNK, mesh.n_tets))
        xq = _quad_points(mesh, sl, bary)
        uq = velocity(xq.reshape(-1, 3))
        sup = max(sup, float(np.linalg.norm(uq, axis=1).max()))
    bound = kappa_min / (2.0 * poincare_constant(mesh.lo, mesh.hi))
    if sup > bound:
        warnings.warn(
            f"velocity magnitude {sup:.3g} exceeds the diffusion-dominance "
            f"estimate {bound:.3g}; stability is not guaranteed",
            stacklevel=2,
        )
