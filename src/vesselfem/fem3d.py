"""Assembly of the 3D operators: mass, diffusion, convection, loads, Dirichlet data.

All matrices are assembled once per run and summed onto the mesh's CSR
pattern as a stencil on its cell grid (``TetMesh.sum_blocks``).  The box has
six tet shapes and one tet volume, and its coefficients, the diffusivity and
the velocity, are constants (``TransportProblem`` refuses any other), so
every matrix is one block per shape.  Bilinear forms use the order-2 tet
rule, which is exact for P1 x P1 with constant coefficients; load vectors
and error norms use order 4.  ``box_level(n)`` is shared by every system at
n; ``box_block`` adds a system's coefficients to it.
"""
from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh3d import DEFAULT_BOX, FemSpace, build_box_mesh, tet_quadrature


@dataclass(frozen=True)
class ScalarField3:
    """Scalar datum on the box, a source or a trace; fn maps (points (m,3), t) -> (m,).

    A time-separable field f = sum_k g_k(t) p_k(x) keeps its factors too:
    ``times(t)`` gives the k floats g_k(t), ``parts(x)`` the stacked (k, m) p_k.
    A vessel datum is the same kind of field over arclengths: x is an (m,) array of s.
    ``zero()`` is marked ``is_zero``, so that a march skips it.
    With ``lattice`` set, fn (and parts) also take a quadrature block's
    coordinate axes (X, Y, Z) of ``TetMesh.quadrature`` in place of its
    points, and return values of their broadcast shape (stacked in front).
    """

    fn: Callable
    is_zero: bool = False
    times: Callable | None = None
    parts: Callable | None = None
    lattice: bool = False

    def __call__(self, x, t=0.0):
        return np.asarray(self.fn(x, t), dtype=float)

    @classmethod
    def separable(cls, times, parts, lattice=False):
        """Field sum_k g_k(t) p_k(x) with (g_k(t)) = times(t) and (p_k(x)) = parts(x)."""

        def fn(x, t):
            return sum(float(g) * p for g, p in zip(times(t), np.asarray(parts(x), dtype=float)))

        return cls(fn=fn, times=times, parts=parts, lattice=lattice)

    @classmethod
    def zero(cls):
        return cls(fn=lambda x, t: np.zeros(np.shape(x)[0]), is_zero=True)


def _assemble(space: FemSpace, blocks):
    """CSR matrix on the mesh's pattern summing the per-shape 4 x 4 blocks (6, 4, 4)."""
    indptr, indices = space.mesh.csr_pattern
    return sp.csr_matrix((space.mesh.sum_blocks(blocks), indices, indptr),
                         shape=(space.n_dofs, space.n_dofs))


def assemble_mass(space: FemSpace):
    """Mass matrix; symmetric positive definite."""
    bary, w = tet_quadrature(2)
    ref = np.einsum("q,qi,qj->ij", w, bary, bary)  # reference-tet block of P1 values
    return _assemble(space, np.broadcast_to(6.0 * space.mesh.tet_volume * ref, (6, 4, 4)))


def assemble_stiffness(space: FemSpace, kappa: float):
    """Diffusion matrix for the diffusivity kappa; PSD with constants in the kernel."""
    mesh = space.mesh
    g = mesh.shape_gradients
    return _assemble(space, kappa * mesh.tet_volume * np.einsum("sic,sjc->sij", g, g))


def assemble_convection(space: FemSpace, velocity):
    """Convection matrix with entries -(U phi_j, grad phi_i) for the velocity U, 3 floats."""
    mesh = space.mesh
    bary, w = tet_quadrature(2)
    u = np.asarray(velocity, dtype=float)
    ref = np.einsum("q,qj->j", w, bary)  # integral of phi_j on reference tet
    return _assemble(space, -6.0 * mesh.tet_volume * np.einsum("si,j->sij", mesh.shape_gradients @ u, ref))


BoxLevel = namedtuple("BoxLevel", "space mass dirichlet_rows")


@functools.lru_cache(maxsize=8)
def box_level(n) -> BoxLevel:
    """The P1 space of DEFAULT_BOX with n cells per axis, its mass matrix and
    Dirichlet rows: built on first use, then shared read-only by every
    system at that n."""
    space = FemSpace(build_box_mesh(*DEFAULT_BOX, n))
    mesh = space.mesh
    level = BoxLevel(space, assemble_mass(space), np.nonzero(mesh.boundary_vertex)[0])
    for a in (mesh.vertices, mesh.tets, mesh.grid_index, mesh.boundary_vertex, mesh.shape_gradients,
              level.mass.data, level.dirichlet_rows):
        a.flags.writeable = False
    return level


def box_block(level: BoxLevel, inv_dt: float, kappa: float, velocity):
    """Box block inv_dt * M + K + C of the backward Euler operator.

    Mass, diffusion and convection are all assembled on the mesh's CSR
    pattern, so the block is one sum of their data arrays on it.
    """
    space = level.space
    stiffness = assemble_stiffness(space, kappa)
    convection = assemble_convection(space, velocity)
    data = inv_dt * level.mass.data + stiffness.data + convection.data
    return sp.csr_matrix((data, stiffness.indices, stiffness.indptr), shape=stiffness.shape)


def assemble_load(space: FemSpace, f: ScalarField3, t: float, order: int = 4):
    """Load vector F_i = (f(., t), phi_i); a field with stacked values, shape
    (k, m), gives the k load vectors as (k, n_dofs) from one quadrature pass."""
    mesh = space.mesh
    bary, _ = tet_quadrature(order)
    out = None
    for sl, xq, wq in mesh.quadrature(order, axes=f.lattice):
        fq = f(xq, t)  # stacked values have one more axis than a point (3,) or than X
        out = np.zeros(fq.shape[:fq.ndim - np.ndim(xq[0])] + (space.n_dofs,)) if out is None else out
        for row, fk in zip(out.reshape(-1, space.n_dofs), fq.reshape(-1, *wq.shape)):
            np.add.at(row, mesh.tets[sl].ravel(), ((wq * fk) @ bary).ravel())
    return out


def dirichlet_values(points, g, t: float):
    """Boundary values g(x, t) at the constrained vertices' points, gathered once by the caller."""
    return np.asarray(g(points, t), dtype=float)

