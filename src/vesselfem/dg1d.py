"""Discontinuous Galerkin machinery on the 1D vessel partition.

Elements carry shifted Legendre bases (L2-orthogonal per element, so the
unweighted mass matrix is diagonal).  The diffusion form is the interior
penalty method with symmetry switch epsilon in {-1, 0, +1}; the advection
form upwinds on the left trace and includes the outflow boundary term, while
the inflow datum enters the right-hand side.  One load serves vessel sources and projection.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError
from .linalg import scatter_blocks

SIGMA_MIN = 50.0  # least penalty for epsilon in {0, +1}, as in the convergence experiments


@dataclass(frozen=True)
class DgParams:
    """Interior penalty parameters: symmetry switch epsilon and penalty sigma.

    For epsilon in {0, +1} the penalty must clear SIGMA_MIN = 50; the
    antisymmetric variant epsilon = -1 is stable for any sigma >= 1.
    """

    epsilon: int
    sigma: float

    def __post_init__(self):
        if self.epsilon not in (-1, 0, 1):
            raise ConfigError("epsilon must be -1, 0 or +1")
        if not 0.0 < self.sigma < np.inf:  # NaN fails too
            raise ConfigError("penalty sigma must be positive and finite")
        if self.epsilon in (0, 1) and self.sigma < SIGMA_MIN:
            raise ConfigError(
                f"sigma = {self.sigma} below required minimum {SIGMA_MIN} "
                f"for epsilon = {self.epsilon}"
            )
        if self.epsilon == -1 and self.sigma < 1.0:
            raise ConfigError("sigma must be >= 1 for epsilon = -1")


@dataclass(frozen=True)
class Partition1D:
    """Strictly increasing nodes s_0 = 0 < ... < s_N = L."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ConfigError("partition needs at least two nodes")
        if np.any(np.diff(nodes) <= 0):
            raise ConfigError("partition nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, length: float, n_elements: int):
        return cls(np.linspace(0.0, length, n_elements + 1))

    @property
    def n_elements(self) -> int:
        return self.nodes.size - 1

    @property
    def lengths(self):
        return np.diff(self.nodes)

    @property
    def h_max(self) -> float:
        return float(self.lengths.max())

    @property
    def length(self) -> float:
        return float(self.nodes[-1])


@functools.lru_cache(maxsize=None)
def _gauss_rule(n_points):
    """Read-only Gauss-Legendre points and weights on [-1, 1], computed once
    per point count."""
    rule = leggauss(n_points)
    for a in rule:
        a.flags.writeable = False
    return rule


def legendre_basis(xi, degree):
    """Legendre values and derivatives P_0..P_degree at xi in [-1, 1].

    Returns arrays of shape (degree+1,) + xi.shape.
    """
    xi = np.asarray(xi, dtype=float)
    vals = np.zeros((degree + 1,) + xi.shape)
    ders = np.zeros_like(vals)
    vals[0] = 1.0
    if degree >= 1:
        vals[1] = xi
        ders[1] = 1.0
    for n in range(1, degree):
        vals[n + 1] = ((2 * n + 1) * xi * vals[n] - n * vals[n - 1]) / (n + 1)
        ders[n + 1] = ders[n - 1] + (2 * n + 1) * vals[n]
    return vals, ders


class DgSpace:
    """Broken polynomial space of degree k on a Partition1D."""

    def __init__(self, partition: Partition1D, degree: int):
        self.partition = partition
        self.degree = degree
        self.n_local = degree + 1
        self.n_dofs = partition.n_elements * self.n_local
        # dofs of every element, and of the two elements at every interior node
        self.cell_dofs = np.arange(self.n_dofs).reshape(-1, self.n_local)
        self.face_dofs = np.hstack([self.cell_dofs[:-1], self.cell_dofs[1:]])

    def element_dofs(self, e: int):
        return self.cell_dofs[e]

    def element_of(self, s):
        """Element index containing arclength s (right-closed at the end)."""
        nodes = self.partition.nodes
        e = np.clip(
            np.searchsorted(nodes, s, side="right") - 1, 0, self.partition.n_elements - 1
        )
        return e

    def basis_at(self, e, s):
        """Values and s-derivatives of the local basis of element(s) e at points s."""
        h = self.partition.lengths[e]
        xi = 2.0 * (np.asarray(s, dtype=float) - self.partition.nodes[e]) / h - 1.0
        vals, ders = legendre_basis(xi, self.degree)
        return vals, ders * (2.0 / h)

    def evaluate(self, dofs, s):
        """Evaluate the broken field at arbitrary points in [0, L]."""
        scalar = np.ndim(s) == 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        e = self.element_of(s)
        vals, _ = self.basis_at(e, s)
        local = np.asarray(dofs, dtype=float).reshape(-1, self.n_local)[e]
        out = np.einsum("im,mi->m", vals, local)
        return float(out[0]) if scalar else out

    def gauss_points(self, n_points):
        """Per-element Gauss points and weights: arrays (n_elements, n_points)."""
        xi, w = _gauss_rule(n_points)
        a = self.partition.nodes[:-1, None]
        h = self.partition.lengths[:, None]
        pts = a + 0.5 * h * (xi[None, :] + 1.0)
        wts = 0.5 * h * w[None, :]
        return pts, wts

    def element_quadrature(self, n_points):
        """Gauss rule on every element with the local basis at its points.

        Returns points and weights (n_elements, n_points), the basis values
        (n_local, n_points), the same on every element, and the s-derivatives
        (n_elements, n_local, n_points).
        """
        pts, wts = self.gauss_points(n_points)
        vals, ders = legendre_basis(_gauss_rule(n_points)[0], self.degree)
        scale = 2.0 / self.partition.lengths
        return pts, wts, vals, scale[:, None, None] * ders

    def unit_mass(self):
        """Diagonal of the unweighted mass matrix, (n_elements, n_local).

        The Legendre basis is orthogonal, so entry (e, j) is h_e / (2j + 1).
        """
        return self.partition.lengths[:, None] / (2.0 * np.arange(self.n_local) + 1.0)

    def constant_one(self):
        """Dof vector representing the constant function 1."""
        out = np.zeros(self.n_dofs)
        out[:: self.n_local] = 1.0
        return out


def _interface_traces(space: DgSpace):
    """Trace values/derivatives of the local bases at element endpoints."""
    vr, dr = legendre_basis(np.float64(1.0), space.degree)
    vl, dl = legendre_basis(np.float64(-1.0), space.degree)
    return vl, dl, vr, dr


def assemble_mass_weighted(space: DgSpace, weight):
    """Weighted mass matrix (weight ch, vh); block diagonal SPD.  Here and in
    the two forms, weight(s) returns an array of the shape of s."""
    pts, wts, vals, _ = space.element_quadrature(space.degree + 2)
    wq = wts * weight(pts)
    blocks = np.einsum("eq,iq,jq->eij", wq, vals, vals)
    return scatter_blocks(space.n_dofs, (space.cell_dofs, blocks))


def assemble_a_lambda(space: DgSpace, kappa_hat: float, weight, params: DgParams):
    """Interior penalty diffusion form with area weight and constant diffusivity kappa_hat.

    Volume term (weight kappa ch' vh'), consistency and (epsilon-weighted)
    symmetry terms at interior nodes, and the penalty (sigma / h_max) [ch][vh]
    with the global mesh size, matching the seminorm scaling.
    """
    pts, wts, _, ders = space.element_quadrature(space.degree + 2)
    wq = wts * weight(pts) * kappa_hat
    blocks = np.einsum("eq,eiq,ejq->eij", wq, ders, ders)

    vl, dl, vr, dr = _interface_traces(space)
    sigma_h = params.sigma / space.partition.h_max
    h = space.partition.lengths
    s_int = space.partition.nodes[1:-1]
    coef = weight(s_int) * kappa_hat
    jump_row = np.concatenate([vr, -vl])
    avg_der = 0.5 * coef[:, None] * np.concatenate(
        [np.outer(2.0 / h[:-1], dr), np.outer(2.0 / h[1:], dl)], axis=1
    )
    faces = (
        -np.einsum("i,mj->mij", jump_row, avg_der)
        - params.epsilon * np.einsum("mi,j->mij", avg_der, jump_row)
        + sigma_h * np.outer(jump_row, jump_row)
    )
    return scatter_blocks(space.n_dofs, (space.cell_dofs, blocks), (space.face_dofs, faces))


def assemble_b_lambda(space: DgSpace, u_hat: float, weight):
    """Upwinded advection form for constant vessel velocity u_hat > 0."""
    pts, wts, vals, ders = space.element_quadrature(space.degree + 2)
    wq = wts * weight(pts) * u_hat
    blocks = -np.einsum("eq,eiq,jq->eij", wq, ders, vals)  # row = test derivative

    vl, _, vr, _ = _interface_traces(space)
    coef = weight(space.partition.nodes[1:-1]) * u_hat
    jump_row = np.concatenate([vr, -vl])
    upwind_col = np.concatenate([vr, np.zeros_like(vl)])
    faces = coef[:, None, None] * np.outer(jump_row, upwind_col)

    # outflow boundary term at s = L
    outflow = float(np.asarray(weight(space.partition.length))) * u_hat * np.outer(vr, vr)
    return scatter_blocks(
        space.n_dofs, (space.cell_dofs, blocks), (space.face_dofs, faces),
        (space.cell_dofs[-1:], outflow[None]),
    )


def inflow_factors(space: DgSpace, weight, u_hat: float):
    """t-free factors of the inflow vector: first element dofs, |D(0)| u_hat, vh(0+)."""
    vl, _ = legendre_basis(np.float64(-1.0), space.degree)
    return space.element_dofs(0), float(np.asarray(weight(0.0))) * u_hat, vl


def assemble_inflow_rhs(space: DgSpace, weight, u_hat: float, c_in: float):
    """Inflow vector |D(0)| u_hat c_in vh(0+); supported on the first element."""
    dofs, scale, vl = inflow_factors(space, weight, u_hat)
    out = np.zeros(space.n_dofs)
    out[dofs] = scale * c_in * vl
    return out


def assemble_load(space: DgSpace, fn, t: float, n_points: int):
    """Load vector (fn(., t), vh_i) by an n_points Gauss rule on every element
    at once; stacked values, shape (k, m), give the k loads as (k, n_dofs)."""
    pts, wts, vals, _ = space.element_quadrature(n_points)
    fq = np.asarray(fn(pts.ravel(), t), dtype=float)
    lead = fq.shape[:-1]  # (k,) for stacked values
    fq = np.broadcast_to(fq, lead + (pts.size,)).reshape(lead + pts.shape)
    return np.einsum("...eq,iq->...ei", wts * fq, vals).reshape(lead + (-1,))


def l2_project(space: DgSpace, fn):
    """Element-local unweighted L2 projection of fn(s) onto the broken space."""
    return assemble_load(space, lambda s, t: fn(s), 0.0, space.degree + 4) / space.unit_mass().ravel()
