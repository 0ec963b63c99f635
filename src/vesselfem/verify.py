"""Verification: the manufactured problem, its source gate, error norms and studies.

The verification pair lives on the unit box with a vertical vessel through
the z-axis:

    chat(z, t) = phi(t) (sin(pi z) + 2),  phi(t) = t unless given
    c(x, t)    = (1/2) w(r) chat(z, t),  w(r) = 1 - R ln(r / R) for r > R,
                                          w(r) = 1 for r <= R,

with r the distance to the z-axis.  Since ln r is harmonic in the cross
plane, the bulk source reduces to the smooth expression coded below.  The
sign of the log branch is load-bearing: with w'(R+) = -1 the conormal jump
of c across the wall cancels the exchange term gamma |circ| (cbar - chat)
exactly (the circle average of c at radius R is chat / 2), so no line
source is needed; with the opposite sign the two terms add and the pair
solves a different problem.  The bulk sources are re-verified at runtime by
finite differences before any convergence study runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import coupling, fem3d
from .dg1d import DgParams, DgSpace
from .errors import ConfigError, VerificationError
from .fem3d import ScalarField3
from .geometry import ConstantPermeability, ConstantRadius, VesselGeometry
from .mesh3d import tet_quadrature
from .stepper import CoupledSystem, TransportProblem, check_level

F_RESIDUAL_TOL = 1e-5
FHAT_RESIDUAL_TOL = 1e-8
# finite-difference steps of the source check (box, vessel) and its time samples
FD_STEP_3D, FD_STEP_1D, FD_TIME_SAMPLES = 3e-4, 1e-3, 10


@dataclass(frozen=True)
class ManufacturedSolution:
    """Exact pair for the vertical-vessel verification problem, with time
    factor ``phi`` (phi(t) = t by default) and its derivative ``phi_dt``."""

    radius: float = 0.05
    phi: Callable = lambda t: t
    phi_dt: Callable = lambda t: 1.0

    def w(self, r):
        # log(R / R) = 0, so w = 1 for r <= R
        return 1.0 - self.radius * np.log(np.maximum(r, self.radius) / self.radius)

    def _profile(self, x):
        """x, y, z, w(r) and sin(pi z) at points (m, 3) or on a block's axes (X, Y, Z), with
        the same arithmetic per point; r by sqrt, as every point lies in the unit box."""
        x, y, z = x if isinstance(x, tuple) else np.atleast_2d(np.asarray(x, dtype=float)).T
        return x, y, z, self.w(np.sqrt(x**2 + y**2)), np.sin(np.pi * z)

    def c_hat(self, s, t):
        return self.phi(t) * (np.sin(np.pi * (np.asarray(s, dtype=float) - 0.5)) + 2.0)

    def c_hat_ds(self, s, t):
        return self.phi(t) * np.pi * np.cos(np.pi * (np.asarray(s, dtype=float) - 0.5))

    def c(self, x, t):
        *_, w, sz = self._profile(x)
        return 0.5 * w * (self.phi(t) * (sz + 2.0))

    def c_and_grad(self, x, t):
        """c and its gradient (..., 3) from one profile, at points or on axes."""
        x, y, z, w, sz = self._profile(x)
        phi, grad = self.phi(t), np.empty(np.broadcast_shapes(w.shape, sz.shape) + (3,))
        chat, rsq = phi * (sz + 2.0), x**2 + y**2
        np.multiply(0.5 * w * phi * np.pi, np.cos(np.pi * z), out=grad[..., 2])
        radial = -0.5 * self.radius * chat / np.maximum(rsq, self.radius**2)
        radial = np.where(rsq <= self.radius**2, 0.0, radial)  # grad w = -R (x, y) / r^2 outside, 0 inside
        np.multiply(radial, x, out=grad[..., 0])
        np.multiply(radial, y, out=grad[..., 1])
        return 0.5 * w * chat, grad

    def f_parts(self, x):
        """The bulk source's space parts, stacked (2, m): 1/2 w(r) chat / phi
        and 1/2 w(r) (d_z - d_zz) chat / phi, the factors of phi' and phi."""
        _, _, z, half_w, sz = self._profile(x)
        half_w *= 0.5
        dz = np.pi**2 * sz + np.pi * np.cos(np.pi * z)  # (d_z - d_zz)(sin(pi z) + 2)
        return np.stack([half_w * (sz + 2.0), half_w * dz])

    def f(self, x, t):
        """Bulk source: substitute c into the 3D balance with kappa = 1, U = e_z."""
        p0, p1 = self.f_parts(x)
        return self.phi_dt(t) * p0 + self.phi(t) * p1

    def f_hat_parts(self, s):
        """The vessel source's space parts, stacked (2, m), factors of phi' and
        phi: chat with area pi R^2 substituted, plus the exchange chat / 2."""
        z = np.pi * (np.asarray(s, dtype=float) - 0.5)
        sz, area = np.sin(z), np.pi * self.radius**2
        return np.stack([area * (sz + 2.0), area * (np.pi**2 * sz + np.pi * np.cos(z))
                         + np.pi * self.radius * (sz + 2.0)])

    def f_hat(self, s, t):
        p0, p1 = self.f_hat_parts(s)
        return self.phi_dt(t) * p0 + self.phi(t) * p1

    def c_in(self, t):
        return self.phi(t)

    def geometry(self) -> VesselGeometry:
        return VesselGeometry(
            p0=(0.0, 0.0, -0.5),
            p1=(0.0, 0.0, 0.5),
            radius=ConstantRadius(self.radius),
            permeability=ConstantPermeability(1.0),
        )


def manufactured_problem(epsilon: int = 1, sigma: float = 50.0, degree: int = 1,
                         ms: ManufacturedSolution | None = None) -> TransportProblem:
    """The verification problem of ``ms`` (phi(t) = t when None), all its data
    separable.  It starts from rest, so ``ms`` solves it when phi(0) = 0."""
    ms = ms or ManufacturedSolution()
    times = lambda t: (ms.phi_dt(t), ms.phi(t))
    return TransportProblem(
        geometry=ms.geometry(),
        kappa=1.0,
        kappa_hat=1.0,
        velocity=(0.0, 0.0, 1.0),
        u_hat=1.0,
        source3=ScalarField3.separable(times, ms.f_parts, lattice=True),
        source1=ScalarField3.separable(times, ms.f_hat_parts),
        c_in=ms.c_in,
        dirichlet=ScalarField3.separable(lambda t: (ms.phi(t),), lambda x: ms.f_parts(x)[:1]),  # c = phi p0
        t_end=1.0,
        dg=DgParams(epsilon, sigma),
        degree=degree,
    )


# -- finite-difference source verification ----------------------------------

_FD4_1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0  # first derivative
_FD4_2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0  # second derivative
_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def _stencil(fn, weights, h, order):
    """Five-point difference at d = 0: the weighted fn(d) at d = -2h..2h over h**order."""
    return sum(wt * fn(off * h) for off, wt in zip(_OFFSETS, weights)) / h**order


def verify_sources(ms: ManufacturedSolution | None = None, n_points: int = 1000, seed: int = 0):
    """Finite-difference residuals of the coded sources at random points.

    Returns a dict with the max residual of the bulk source (4th-order
    stencils, sampled away from the profile kink at r = R) and of the vessel
    source, plus the inflow's max gap to chat(0, t).  All points are evaluated
    in one pass, each at its own time sample: the samples split the points
    into FD_TIME_SAMPLES consecutive runs of near-equal length.
    """
    ms = ms or ManufacturedSolution()
    rng = np.random.default_rng(seed)
    R = ms.radius
    h3, h1, n_times = FD_STEP_3D, FD_STEP_1D, FD_TIME_SAMPLES

    pts = rng.uniform(-0.45, 0.45, size=(4 * n_points, 3))
    r = np.hypot(pts[:, 0], pts[:, 1])
    pts = pts[(r < 0.9 * R) | (r > 1.1 * R)][:n_points]
    times = rng.uniform(0.05, 0.95, size=n_times)

    t = np.repeat(times, [len(run) for run in np.array_split(pts, n_times)])  # a sample per array_split run
    c_at = lambda d, axis: ms.c(pts + d * np.eye(3)[axis], t)
    dt = _stencil(lambda d: ms.c(pts, t + d), _FD4_1, h3, 1)
    lap = sum(_stencil(lambda d: c_at(d, axis), _FD4_2, h3, 2) for axis in range(3))
    dz = _stencil(lambda d: c_at(d, 2), _FD4_1, h3, 1)
    f_res = float(np.max(np.abs(dt - lap + dz - ms.f(pts, t))))

    s = rng.uniform(5 * h1, 1.0 - 5 * h1, size=n_points)
    t = np.repeat(times, [len(run) for run in np.array_split(s, n_times)])
    area = np.pi * R**2
    circ = 2.0 * np.pi * R
    theta = 2.0 * np.pi * np.arange(64) / 64
    ring = (R * np.cos(theta)[None], R * np.sin(theta)[None], (s - 0.5)[:, None])  # axes: (1, 64), (m, 1)
    dt = _stencil(lambda d: ms.c_hat(s, t + d), _FD4_1, h1, 1)
    ds = _stencil(lambda d: ms.c_hat(s + d, t), _FD4_1, h1, 1)
    dss = _stencil(lambda d: ms.c_hat(s + d, t), _FD4_2, h1, 2)
    cbar = ms.c(ring, t[:, None]).mean(axis=1)
    resid = area * dt - area * dss + area * ds + circ * (ms.c_hat(s, t) - cbar) - ms.f_hat(s, t)
    fhat_res = float(np.max(np.abs(resid)))

    tt = rng.uniform(0.0, 1.0, size=100)
    cin_res = float(np.max(np.abs([ms.c_in(t) - ms.c_hat(0.0, t) for t in tt])))
    return {"f": f_res, "f_hat": fhat_res, "c_in": cin_res}


def source_gate(**kwargs):
    """Fail fast when the coded sources disagree with the finite differences."""
    res = verify_sources(**kwargs)
    if res["f"] > F_RESIDUAL_TOL or res["f_hat"] > FHAT_RESIDUAL_TOL or res["c_in"] != 0.0:
        raise VerificationError(
            f"source residuals out of tolerance: bulk {res['f']:.3e} "
            f"(tol {F_RESIDUAL_TOL:.0e}), vessel {res['f_hat']:.3e} "
            f"(tol {FHAT_RESIDUAL_TOL:.0e}), inflow {res['c_in']:.3e}"
        )
    return res


# -- error norms -------------------------------------------------------------

def error_norms_3d(fem, c_dofs, exact, exact_grad, t):
    """(L2 error, gradient L2 error) of a P1 field against reference fields
    exact(points, t) and exact_grad(points, t), by the order-4 tet rule; None
    stands for zero.  One callable given as both returns (values, gradients)
    from one evaluation per block, on the block's axes (``TetMesh.quadrature``)."""
    mesh = fem.mesh
    bary, _ = tet_quadrature(4)
    dofs = np.asarray(c_dofs, dtype=float)
    fused = exact is not None and exact == exact_grad
    l2 = 0.0
    grad = 0.0
    for sl, xq, wq in mesh.quadrature(4, axes=fused):
        local = dofs[mesh.tets[sl]]  # (ne, 4)
        ch = local @ bary.T
        ce, ge = exact(xq, t) if fused else (0.0 * ch if exact is None else exact(xq, t), None)
        l2 += float(np.einsum("eq,eq->", wq, (ce.reshape(ch.shape) - ch) ** 2))
        # blocks are whole cells, so the tets cycle through the six shapes
        gh = np.einsum("sic,bsi->bsc", mesh.shape_gradients, local.reshape(-1, 6, 4)).reshape(-1, 3)
        if exact_grad is not None:
            ge = np.reshape(ge if fused else exact_grad(xq, t), (*wq.shape, 3))
            diff = np.subtract(ge, gh[:, None, :], out=ge if fused else None)  # a fused ge is ours
            grad += float(np.einsum("eq,eqc->", wq, np.square(diff, out=diff)))
        else:
            grad += float(wq.sum(axis=1).dot(np.sum(gh**2, axis=1)))
    return math.sqrt(l2), math.sqrt(grad)


def error_norms_1d(dg: DgSpace, dofs, exact, exact_ds, t):
    """(L2 error, broken gradient error) of a DG field against closed forms,
    with degree + 3 Gauss points per element; None stands for zero."""
    pts, wts, vals, ders = dg.element_quadrature(dg.degree + 3)
    local = np.asarray(dofs, dtype=float).reshape(-1, dg.n_local)
    vh = local @ vals
    dh = np.einsum("ei,eiq->eq", local, ders)
    ve = exact(pts, t) if exact is not None else 0.0
    de = exact_ds(pts, t) if exact_ds is not None else 0.0
    l2 = float(np.einsum("eq,eq->", wts, (ve - vh) ** 2))
    broken = float(np.einsum("eq,eq->", wts, (de - dh) ** 2))
    return math.sqrt(l2), math.sqrt(broken)


# -- convergence studies ------------------------------------------------------

@dataclass
class StudyReport:
    """Per-level error columns of a study at the final time, the largest
    solve residual of its runs, the vessel it marched, and its output level:
    that level's spaces and its (t, state) snapshots."""

    levels: list
    max_residual: float = 0.0
    geometry: VesselGeometry | None = None
    mesh: object = None
    dg: object = None
    snapshots: list = field(default_factory=list)

    def __post_init__(self):
        if not self.levels:
            raise ConfigError("a study needs at least one level")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ConfigError("levels must be strictly increasing")

    @property
    def h_labels(self):
        return [1.0 / n for n in self.levels]

    def rates(self, column):
        """log2 ratio of consecutive errors of a column (coarse over fine)."""
        e = np.asarray(getattr(self, column), dtype=float)
        return [float(np.log2(e[i] / e[i + 1])) for i in range(e.size - 1)]

    def add(self, run_report, **errors):
        """Append one run's errors to their columns and fold in its residual."""
        for column, value in errors.items():
            getattr(self, column).append(value)
        self.max_residual = max(self.max_residual, run_report.max_residual)


@dataclass
class ConvergenceReport(StudyReport):
    """Errors of the verification study; the output level is the finest."""

    grad3: list = field(default_factory=list)
    l2_3: list = field(default_factory=list)
    grad1: list = field(default_factory=list)
    l2_1: list = field(default_factory=list)


def _march(problem, n, n_circle, times=()):
    """Build ``problem`` at n cells per axis and march it to t_end.  ``run``
    frees the LU; only the level's spaces, final state, run report and
    vessel mass outlive the call, so the rest of the system dies with it."""
    system = CoupledSystem(problem, n_cells=n, n_circle=n_circle)
    state, run_report = system.run(times)
    return system.fem, system.dg, state, run_report, system.vessel_mass(state)


def convergence_study(
    levels,
    degree: int = 1,
    epsilon: int = 1,
    sigma: float = 50.0,
    n_circle: int = coupling.DEFAULT_N_CIRCLE,
) -> ConvergenceReport:
    """Run the vertical-vessel verification problem on refined meshes.

    The source gate runs before any level is built; the study aborts if the
    coded sources do not match their finite-difference residual checks.
    """
    for n in levels:
        check_level(n, n_circle)
    problem = manufactured_problem(epsilon=epsilon, sigma=sigma, degree=degree)
    report = ConvergenceReport(levels=list(levels), geometry=problem.geometry)
    source_gate()
    ms = ManufacturedSolution()
    for n in report.levels:
        fem, dg, state, run_report, _ = _march(problem, n, n_circle)
        l2_3, grad3 = error_norms_3d(fem, state.c, ms.c_and_grad, ms.c_and_grad, state.t)
        l2_1, grad1 = error_norms_1d(dg, state.c_hat, ms.c_hat, ms.c_hat_ds, state.t)
        report.add(run_report, grad3=grad3, l2_3=l2_3, grad1=grad1, l2_1=l2_1)
        report.mesh, report.dg, report.snapshots = fem.mesh, dg, [(state.t, state)]
    return report


@dataclass
class SelfConvergenceReport(StudyReport):
    """Errors of coarse runs against a fine reference run, absolute and
    relative to the reference's norms; the output level is the reference."""

    err3: list = field(default_factory=list)
    err1: list = field(default_factory=list)
    rel3: list = field(default_factory=list)
    rel1: list = field(default_factory=list)
    fine_vessel_mass: float = 0.0


def cross_error_3d(coarse_fem, coarse_dofs, fine_fem, fine_dofs):
    """L2 distance between two P1 fields, integrated on the coarse mesh."""
    fine = lambda x, t: fine_fem.evaluate(fine_dofs, x)
    return error_norms_3d(coarse_fem, coarse_dofs, fine, None, 0.0)[0]


def cross_error_1d(coarse_dg, coarse_dofs, fine_dg, fine_dofs):
    """L2 distance between two broken fields, integrated on the coarse partition."""
    fine = lambda s, t: fine_dg.evaluate(fine_dofs, s.ravel()).reshape(s.shape)
    return error_norms_1d(coarse_dg, coarse_dofs, fine, None, 0.0)[0]


def self_convergence(
    problem: TransportProblem,
    coarse_levels=(4, 8, 16),
    fine_n: int = 32,
    n_circle: int = coupling.DEFAULT_N_CIRCLE,
    snapshot_times=(),
) -> SelfConvergenceReport:
    """Compare coarse runs of ``problem`` against a fine run.

    The fine reference runs first; after its march only its spaces, states,
    norms and vessel mass are kept.  Errors are evaluated by sampling the
    fine solution at the coarse quadrature points; both absolute and
    relative (to the fine-solution norm) columns are reported.
    """
    for n in (*coarse_levels, fine_n):
        check_level(n, n_circle)
    report = SelfConvergenceReport(list(coarse_levels), geometry=problem.geometry)
    if report.levels[-1] >= fine_n:
        raise ConfigError("fine level must exceed every coarse level")
    fine_fem, fine_dg, fine, fine_report, report.fine_vessel_mass = _march(
        problem, fine_n, n_circle, snapshot_times
    )
    report.add(fine_report)
    report.mesh, report.dg, report.snapshots = fine_fem.mesh, fine_dg, fine_report.snapshots
    norm3 = math.sqrt(fine.c.dot(fem3d.box_level(fine_n).mass @ fine.c))
    norm1 = math.sqrt(fine.c_hat.dot(fine_dg.unit_mass().ravel() * fine.c_hat))
    for n in report.levels:
        fem, dg, state, run_report, _ = _march(problem, n, n_circle)
        e3 = cross_error_3d(fem, state.c, fine_fem, fine.c)
        e1 = cross_error_1d(dg, state.c_hat, fine_dg, fine.c_hat)
        report.add(run_report, err3=e3, err1=e1, rel3=e3 / norm3 if norm3 > 0 else e3,
                   rel1=e1 / norm1 if norm1 > 0 else e1)
    return report
