"""Assembly of the 3D operators: mass, diffusion, convection, loads, Dirichlet.

All matrices are assembled once per run (the coefficients are required to be
time-independent) and summed onto the mesh's CSR pattern as a stencil on its
cell grid (``TetMesh.sum_blocks``).  The box has six tet shapes and one tet
volume, so mass and constant coefficients give one block per shape.
Bilinear forms use the order-2 tet rule, which is exact for P1 x P1 with
constant coefficients; load vectors and error norms use order 4.
``box_level(n)`` is shared by every system at n; ``box_block`` adds a
system's coefficients to it.
"""
from __future__ import annotations

import functools
import warnings
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import CoefficientError, ConfigError
from .mesh3d import DEFAULT_BOX, FemSpace, build_box_mesh, tet_quadrature


@dataclass(frozen=True)
class ScalarField3:
    """Scalar coefficient on the box; fn maps (points (m,3), t) -> (m,).

    A time-separable field f = sum_k g_k(t) p_k(x) keeps its factors too:
    ``times(t)`` gives the k floats g_k(t), ``parts(x)`` the stacked (k, m) p_k.
    """

    fn: Callable
    space_constant: bool = False
    is_zero: bool = False
    times: Callable | None = None
    parts: Callable | None = None

    def __call__(self, x, t=0.0):
        return np.asarray(self.fn(x, t), dtype=float)

    @classmethod
    def separable(cls, times, parts):
        """Field sum_k g_k(t) p_k(x) with (g_k(t)) = times(t) and (p_k(x)) = parts(x)."""

        def fn(x, t):
            return sum(float(g) * p for g, p in zip(times(t), np.asarray(parts(x), dtype=float)))

        return cls(fn=fn, times=times, parts=parts)

    @classmethod
    def constant(cls, value):
        v = float(value)
        if not np.isfinite(v):
            raise ConfigError(f"a constant field needs a finite value, got {v}")
        return cls(
            fn=lambda x, t: np.full(np.shape(x)[0], v),
            space_constant=True,
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
        if v.shape != (3,):
            raise ConfigError(f"a constant vector field needs 3 components, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ConfigError(f"a constant vector field needs finite components, got {tuple(v)}")
        return cls(
            fn=lambda x, t: np.broadcast_to(v, (np.shape(x)[0], 3)).copy(),
            space_constant=True,
            time_constant=True,
        )


def _assemble(space: FemSpace, blocks):
    """CSR matrix on the mesh's pattern summing 4 x 4 blocks, given per tet
    (n_tets, 4, 4) or per shape (6, 4, 4), each entry in ascending tet order."""
    indptr, indices = space.mesh.csr_pattern
    return sp.csr_matrix((space.mesh.sum_blocks(blocks), indices, indptr),
                         shape=(space.n_dofs, space.n_dofs))


def assemble_mass(space: FemSpace):
    """Mass matrix; symmetric positive definite."""
    bary, w = tet_quadrature(2)
    ref = np.einsum("q,qi,qj->ij", w, bary, bary)  # reference-tet block of P1 values
    return _assemble(space, np.broadcast_to(6.0 * space.mesh.tet_volume * ref, (6, 4, 4)))


def assemble_stiffness(space: FemSpace, kappa: ScalarField3):
    """Diffusion matrix for coefficient kappa; PSD with constants in the kernel."""
    mesh = space.mesh
    g = mesh.shape_gradients
    gg = np.einsum("sic,sjc->sij", g, g)  # (6, 4, 4)
    if kappa.space_constant:
        kval = kappa(np.zeros((1, 3)))[0]
        if not kval > 0.0:  # NaN fails too
            raise CoefficientError("diffusivity must be positive")
        return _assemble(space, kval * mesh.tet_volume * gg)
    kint = np.empty(mesh.n_tets)
    for sl, xq, wq in mesh.quadrature(2):
        kq = kappa(xq.reshape(-1, 3)).reshape(wq.shape)
        if not np.all(kq > 0.0):
            raise CoefficientError("diffusivity must be positive at all quadrature points")
        kint[sl] = np.einsum("eq,eq->e", wq, kq)
    return _assemble(space, kint.reshape(-1, 6, 1, 1) * gg)


def assemble_convection(space: FemSpace, velocity: VectorField3):
    """Convection matrix with entries -(U phi_j, grad phi_i)."""
    if not velocity.time_constant:
        raise ConfigError("velocity must be independent of time")
    mesh = space.mesh
    bary, w = tet_quadrature(2)
    g = mesh.shape_gradients
    if velocity.space_constant:
        u = velocity(np.zeros((1, 3)))[0]
        ref = np.einsum("q,qj->j", w, bary)  # integral of phi_j on reference tet
        return _assemble(space, -6.0 * mesh.tet_volume * np.einsum("si,j->sij", g @ u, ref))
    local = np.empty((mesh.n_tets, 4, 4))
    for sl, xq, wq in mesh.quadrature(2):  # blocks of whole cells: tets cycle the six shapes
        uq = velocity(xq.reshape(-1, 3)).reshape(-1, 6, w.size, 3)
        ug = np.einsum("bsqc,sic->bsqi", uq, g).reshape(-1, w.size, 4)
        local[sl] = -np.einsum("eq,eqi,qj->eij", wq, ug, bary)
    return _assemble(space, local)


BoxLevel = namedtuple("BoxLevel", "space mass dirichlet_rows")


@functools.lru_cache(maxsize=8)
def box_level(n) -> BoxLevel:
    """The P1 space of DEFAULT_BOX with n cells per axis, its mass matrix and
    Dirichlet rows: built on first use, then shared read-only by every
    system at that n."""
    space = FemSpace(build_box_mesh(*DEFAULT_BOX, n))
    mesh = space.mesh
    level = BoxLevel(space, assemble_mass(space), np.nonzero(space.dirichlet_mask)[0])
    for a in (mesh.vertices, mesh.tets, mesh.grid_index, mesh.boundary_vertex, mesh.shape_gradients,
              level.mass.data, level.dirichlet_rows):
        a.flags.writeable = False
    return level


def box_block(level: BoxLevel, inv_dt: float, kappa: ScalarField3, velocity: VectorField3):
    """Box block inv_dt * M + K + C of the backward Euler operator.

    Mass, diffusion and convection are all assembled on the mesh's CSR
    pattern, so the block is one sum of their data arrays on it.  Warns as
    ``check_velocity_bound`` does.
    """
    space = level.space
    stiffness = assemble_stiffness(space, kappa)
    convection = assemble_convection(space, velocity)
    check_velocity_bound(space, velocity, kappa)
    data = inv_dt * level.mass.data + stiffness.data + convection.data
    return sp.csr_matrix((data, stiffness.indices, stiffness.indptr), shape=stiffness.shape)


def assemble_load(space: FemSpace, f: ScalarField3, t: float, order: int = 4):
    """Load vector F_i = (f(., t), phi_i); a field with stacked values, shape
    (k, m), gives the k load vectors as (k, n_dofs) from one quadrature pass."""
    if f.is_zero:
        return np.zeros(space.n_dofs)
    mesh = space.mesh
    bary, _ = tet_quadrature(order)
    out = None
    for sl, xq, wq in mesh.quadrature(order):
        fq = f(xq.reshape(-1, 3), t)
        out = np.zeros((fq.size // wq.size, space.n_dofs)) if out is None else out
        for row, fk in zip(out, fq.reshape(-1, *wq.shape)):
            np.add.at(row, mesh.tets[sl].ravel(), np.einsum("eq,qi->ei", wq * fk, bary).ravel())
    return out if fq.ndim == 2 else out[0]


def constrain_rows(matrix, rows):
    """Replace the given rows by identity rows (nonsymmetric elimination); a
    block row [A, B] with A square gets the identity rows of A."""
    mask = np.zeros(matrix.shape[0])
    mask[rows] = 1.0
    return (sp.diags(1.0 - mask) @ matrix + sp.diags(mask, shape=matrix.shape)).sorted_indices()


def dirichlet_values(points, g, t: float):
    """Boundary values g(x, t) at the constrained vertices' points, gathered
    once by the caller; 0.0 for every row when there is no datum g."""
    if g is None:
        return 0.0
    return np.asarray(g(points, t), dtype=float)


def poincare_constant(lo, hi) -> float:
    """Poincare constant of the box for fields vanishing on the boundary."""
    sides = np.asarray(hi, dtype=float) - np.asarray(lo, dtype=float)
    return 1.0 / (np.pi * np.sqrt(np.sum(1.0 / sides**2)))


def check_velocity_bound(space: FemSpace, velocity: VectorField3, kappa: ScalarField3):
    """Warn when a non-constant velocity may exceed the diffusion-dominance bound.

    Spatially constant velocities are divergence-free and exempt; otherwise
    |U| and kappa are sampled at the order-2 quadrature points.  The bound
    uses the computable box Poincare constant, so a violation is advisory
    only.
    """
    if velocity.space_constant:
        return
    mesh = space.mesh
    sup, kappa_min = 0.0, np.inf
    for _, xq, _ in mesh.quadrature(2):
        points = xq.reshape(-1, 3)
        sup = max(sup, float(np.linalg.norm(velocity(points), axis=1).max()))
        kappa_min = min(kappa_min, float(kappa(points).min()))
    bound = kappa_min / (2.0 * poincare_constant(mesh.lo, mesh.hi))
    if sup > bound:
        warnings.warn(
            f"velocity magnitude {sup:.3g} exceeds the diffusion-dominance "
            f"estimate {bound:.3g}; stability is not guaranteed",
            stacklevel=2,
        )
