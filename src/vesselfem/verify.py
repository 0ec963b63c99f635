"""Closed-form verification problem, error norms and convergence studies.

The verification pair lives on the unit box with a vertical vessel through
the z-axis:

    chat(z, t) = t (sin(pi z) + 2)
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

import numpy as np

from .coupling import lateral_average
from .dg1d import DgParams, DgSpace
from .errors import VerificationError
from .fem3d import ScalarField3, VectorField3
from .geometry import (
    ConstantPermeability,
    ConstantRadius,
    PiecewisePermeability,
    TanhRadius,
    VesselGeometry,
)
from .mesh3d import tet_quadrature
from .stepper import CoupledSystem, Observer, TransportProblem

_CHUNK = 65536

F_RESIDUAL_TOL = 1e-5
FHAT_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class ManufacturedSolution:
    """Exact pair for the vertical-vessel verification problem."""

    radius: float = 0.05

    def w(self, r):
        r = np.asarray(r, dtype=float)
        safe = np.maximum(r, self.radius)
        return np.where(r > self.radius, 1.0 - self.radius * np.log(safe / self.radius), 1.0)

    def c_hat_of_z(self, z, t):
        return t * (np.sin(np.pi * np.asarray(z, dtype=float)) + 2.0)

    def c_hat(self, s, t):
        return self.c_hat_of_z(np.asarray(s, dtype=float) - 0.5, t)

    def c_hat_ds(self, s, t):
        return t * np.pi * np.cos(np.pi * (np.asarray(s, dtype=float) - 0.5))

    def c(self, x, t):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.hypot(x[:, 0], x[:, 1])
        return 0.5 * self.w(r) * self.c_hat_of_z(x[:, 2], t)

    def grad_c(self, x, t):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.hypot(x[:, 0], x[:, 1])
        z = x[:, 2]
        out = np.zeros_like(x)
        outside = r > self.radius
        rsq = np.where(outside, r * r, 1.0)
        radial = -0.5 * self.c_hat_of_z(z, t) * self.radius / rsq
        out[:, 0] = np.where(outside, radial * x[:, 0], 0.0)
        out[:, 1] = np.where(outside, radial * x[:, 1], 0.0)
        out[:, 2] = 0.5 * self.w(r) * t * np.pi * np.cos(np.pi * z)
        return out

    def f0(self, x):
        """Time-independent part of the bulk source: 1/2 w(r) dchat/dt."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.hypot(x[:, 0], x[:, 1])
        return 0.5 * self.w(r) * (np.sin(np.pi * x[:, 2]) + 2.0)

    def f1(self, x):
        """Coefficient of t in the bulk source: 1/2 w(r) (d_z - d_zz) chat / t."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        r = np.hypot(x[:, 0], x[:, 1])
        z = x[:, 2]
        return 0.5 * self.w(r) * (np.pi**2 * np.sin(np.pi * z) + np.pi * np.cos(np.pi * z))

    def f(self, x, t):
        """Bulk source: substitute c into the 3D balance with kappa = 1, U = e_z.

        It is affine in t, f = f0(x) + t f1(x), and the solver is handed the
        same two parts as a separable field (see ``manufactured_problem``).
        """
        return self.f0(x) + t * self.f1(x)

    def f_hat(self, s, t):
        """Vessel source: substitute chat with area pi R^2 and exchange chat / 2."""
        z = np.asarray(s, dtype=float) - 0.5
        sz = np.sin(np.pi * z)
        body = (sz + 2.0) + np.pi**2 * t * sz + np.pi * t * np.cos(np.pi * z)
        return np.pi * self.radius**2 * body + np.pi * self.radius * t * (sz + 2.0)

    def c_in(self, t):
        return t

    def geometry(self) -> VesselGeometry:
        return VesselGeometry(
            p0=(0.0, 0.0, -0.5),
            p1=(0.0, 0.0, 0.5),
            radius=ConstantRadius(self.radius),
            permeability=ConstantPermeability(1.0),
        )


def manufactured_problem(
    epsilon: int = 1, sigma: float = 50.0, degree: int = 1
) -> TransportProblem:
    ms = ManufacturedSolution()
    return TransportProblem(
        geometry=ms.geometry(),
        kappa=ScalarField3.constant(1.0),
        kappa_hat=lambda s: np.broadcast_to(1.0, np.shape(s)),
        velocity=VectorField3.constant((0.0, 0.0, 1.0)),
        u_hat=1.0,
        source3=ScalarField3.separable((lambda t: 1.0, ms.f0), (lambda t: t, ms.f1)),
        source1=ms.f_hat,
        c_in=ms.c_in,
        dirichlet=ms.c,
        c0=lambda x: ms.c(x, 0.0),
        c0_hat=lambda s: ms.c_hat(s, 0.0),
        t_end=1.0,
        dg=DgParams(epsilon, sigma),
        degree=degree,
    )


# -- finite-difference source verification ----------------------------------

_FD4_1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0  # first derivative
_FD4_2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0  # second derivative
_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def _fd(fn, pts, axis, h, weights):
    acc = 0.0
    for off, wt in zip(_OFFSETS, weights):
        shifted = pts.copy()
        shifted[:, axis] += off * h
        acc = acc + wt * fn(shifted)
    return acc


def verify_sources(ms: ManufacturedSolution | None = None, n_points: int = 1000,
                   seed: int = 0, h3: float = 3e-4, h1: float = 1e-3,
                   n_times: int = 10):
    """Finite-difference residuals of the coded sources at random points.

    Returns a dict with the max residual of the bulk source (4th-order
    stencils, sampled away from the profile kink at r = R) and of the vessel
    source, plus the max inflow mismatch.  Points are grouped into batches
    sharing a time sample so the stencil evaluations stay vectorized.
    """
    ms = ms or ManufacturedSolution()
    rng = np.random.default_rng(seed)
    R = ms.radius

    pts = rng.uniform(-0.45, 0.45, size=(4 * n_points, 3))
    r = np.hypot(pts[:, 0], pts[:, 1])
    pts = pts[(r < 0.9 * R) | (r > 1.1 * R)][:n_points]
    times = rng.uniform(0.05, 0.95, size=n_times)

    f_res = 0.0
    for batch, t in zip(np.array_split(pts, n_times), times):
        dt = sum(
            wt * ms.c(batch, t + off * h3) for off, wt in zip(_OFFSETS, _FD4_1)
        ) / h3
        lap = sum(
            _fd(lambda p: ms.c(p, t), batch, axis, h3, _FD4_2) / h3**2
            for axis in range(3)
        )
        dz = _fd(lambda p: ms.c(p, t), batch, 2, h3, _FD4_1) / h3
        f_res = max(f_res, float(np.max(np.abs(dt - lap + dz - ms.f(batch, t)))))

    s = rng.uniform(5 * h1, 1.0 - 5 * h1, size=n_points)
    area = np.pi * R**2
    circ = 2.0 * np.pi * R
    theta = 2.0 * np.pi * np.arange(64) / 64
    ring = np.stack([R * np.cos(theta), R * np.sin(theta)], axis=1)
    fhat_res = 0.0
    for batch, t in zip(np.array_split(s, n_times), times):
        dt = sum(
            wt * ms.c_hat(batch, t + off * h1) for off, wt in zip(_OFFSETS, _FD4_1)
        ) / h1
        ds = sum(
            wt * ms.c_hat(batch + off * h1, t) for off, wt in zip(_OFFSETS, _FD4_1)
        ) / h1
        dss = sum(
            wt * ms.c_hat(batch + off * h1, t) for off, wt in zip(_OFFSETS, _FD4_2)
        ) / h1**2
        ring3 = np.concatenate(
            [
                np.broadcast_to(ring, (batch.size, 64, 2)),
                np.broadcast_to((batch - 0.5)[:, None, None], (batch.size, 64, 1)),
            ],
            axis=2,
        )
        cbar = ms.c(ring3.reshape(-1, 3), t).reshape(batch.size, 64).mean(axis=1)
        resid = (
            area * dt - area * dss + area * ds
            + circ * (ms.c_hat(batch, t) - cbar)
            - ms.f_hat(batch, t)
        )
        fhat_res = max(fhat_res, float(np.max(np.abs(resid))))

    tt = rng.uniform(0.0, 1.0, size=100)
    cin_res = float(np.max(np.abs(np.array([ms.c_in(t) for t in tt]) - tt)))
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

def error_norms_3d(fem, c_dofs, exact, exact_grad, t, order: int = 4):
    """(L2 error, gradient L2 error) of a P1 field against closed forms."""
    mesh = fem.mesh
    bary, w = tet_quadrature(order)
    dofs = np.asarray(c_dofs, dtype=float)
    l2 = 0.0
    grad = 0.0
    for start in range(0, mesh.n_tets, _CHUNK):
        sl = slice(start, min(start + _CHUNK, mesh.n_tets))
        tets = mesh.tets[sl]
        corners = mesh.vertices[tets]
        xq = np.einsum("qi,eic->eqc", bary, corners)
        flat = xq.reshape(-1, 3)
        local = dofs[tets]  # (ne, 4)
        ch = np.einsum("qi,ei->eq", bary, local)
        scale = 6.0 * mesh.volumes[sl]
        if exact is not None:
            ce = exact(flat, t).reshape(ch.shape)
            l2 += float(np.einsum("e,q,eq->", scale, w, (ce - ch) ** 2))
        else:
            l2 += float(np.einsum("e,q,eq->", scale, w, ch**2))
        gh = np.einsum("eic,ei->ec", mesh.gradients[sl], local)
        if exact_grad is not None:
            ge = exact_grad(flat, t).reshape(xq.shape)
            diff = ge - gh[:, None, :]
            grad += float(np.einsum("e,q,eqc->", scale, w, diff**2))
        else:
            grad += float(np.sum(scale * np.sum(gh**2, axis=1)) * w.sum())
    return math.sqrt(l2), math.sqrt(grad)


def error_norms_1d(dg: DgSpace, dofs, exact, exact_ds, t, n_points: int | None = None):
    """(L2 error, broken gradient error) of a DG field against closed forms."""
    q = n_points if n_points is not None else dg.degree + 3
    pts, wts = dg.gauss_points(q)
    dofs = np.asarray(dofs, dtype=float)
    l2 = 0.0
    broken = 0.0
    for e in range(dg.partition.n_elements):
        vals, ders = dg.basis_at(e, pts[e])
        local = dofs[dg.element_dofs(e)]
        vh = vals.T @ local
        dh = ders.T @ local
        ve = exact(pts[e], t) if exact is not None else 0.0
        de = exact_ds(pts[e], t) if exact_ds is not None else 0.0
        l2 += float(wts[e] @ (ve - vh) ** 2)
        broken += float(wts[e] @ (de - dh) ** 2)
    return math.sqrt(l2), math.sqrt(broken)


def rate_table(errors):
    """log2 ratio of consecutive errors (coarse over fine)."""
    e = np.asarray(errors, dtype=float)
    return [float(np.log2(e[i] / e[i + 1])) for i in range(e.size - 1)]


# -- convergence studies ------------------------------------------------------

@dataclass
class ConvergenceReport:
    """Errors and rates of the verification study at the final time."""

    levels: list
    grad3: list = field(default_factory=list)
    l2_3: list = field(default_factory=list)
    grad1: list = field(default_factory=list)
    l2_1: list = field(default_factory=list)
    max_residual: float = 0.0

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be strictly increasing")

    @property
    def h_labels(self):
        return [1.0 / n for n in self.levels]

    def rates(self, column):
        return rate_table(getattr(self, column))


def _map_levels(fn, levels, workers: int):
    """Run one study level per worker; results come back in level order."""
    if workers <= 1:
        return [fn(n) for n in levels]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, levels))


def convergence_study(
    levels,
    degree: int = 1,
    epsilon: int = 1,
    sigma: float = 50.0,
    n_circle: int = 16,
    workers: int = 1,
    on_level=None,
) -> ConvergenceReport:
    """Run the vertical-vessel verification problem on refined meshes.

    The source gate runs first; the study aborts if the coded sources do not
    match their finite-difference residual checks.  ``on_level`` is called as
    ``on_level(n, system, state, run_report)`` before each level's system is
    discarded.
    """
    source_gate()
    ms = ManufacturedSolution()
    report = ConvergenceReport(levels=list(levels))

    def run_level(n):
        problem = manufactured_problem(epsilon=epsilon, sigma=sigma, degree=degree)
        system = CoupledSystem(problem, n_cells=n, n_line=n, n_circle=n_circle)
        state, run_report = system.run()
        l2_3, grad3 = error_norms_3d(system.fem, state.c, ms.c, ms.grad_c, state.t)
        l2_1, grad1 = error_norms_1d(system.dg, state.c_hat, ms.c_hat, ms.c_hat_ds, state.t)
        if on_level is not None:
            on_level(n, system, state, run_report)
        return grad3, l2_3, grad1, l2_1, run_report.max_residual

    for grad3, l2_3, grad1, l2_1, resid in _map_levels(run_level, levels, workers):
        report.grad3.append(grad3)
        report.l2_3.append(l2_3)
        report.grad1.append(grad1)
        report.l2_1.append(l2_1)
        report.max_residual = max(report.max_residual, resid)
    return report


# -- diagonal-line study ------------------------------------------------------

def diagonal_geometry(case: int) -> VesselGeometry:
    """Vessel of the diagonal-line study: three radius/permeability variants."""
    if case == 1:
        radius = ConstantRadius(0.05)
    elif case in (2, 3):
        radius = TanhRadius(r_min=0.05, r_max=0.08, beta=8.0)
    else:
        raise ValueError(f"unknown case {case}")
    length = 0.8 * math.sqrt(3.0)
    if case in (1, 2):
        permeability = ConstantPermeability(0.1)
    else:
        permeability = PiecewisePermeability(
            breakpoints=(length / 3.0, 2.0 * length / 3.0),
            values=(0.0, 0.05, 0.1),
        )
    return VesselGeometry(
        p0=(-0.4, -0.4, -0.4), p1=(0.4, 0.4, 0.4),
        radius=radius, permeability=permeability,
    )


def diagonal_problem(
    case: int, epsilon: int = 1, sigma: float = 50.0, degree: int = 1
) -> TransportProblem:
    """Pulse injection through the diagonal vessel: 5 units for 0.1 time units."""
    sqrt3 = math.sqrt(3.0)
    return TransportProblem(
        geometry=diagonal_geometry(case),
        kappa=ScalarField3.constant(1.0),
        kappa_hat=lambda s: np.broadcast_to(1.0, np.shape(s)),
        velocity=VectorField3.constant((1.0 / sqrt3, 1.0 / sqrt3, 1.0 / sqrt3)),
        u_hat=1.0,
        source3=ScalarField3.zero(),
        source1=None,
        c_in=lambda t: 5.0 if t <= 0.1 else 0.0,
        dirichlet=None,
        c0=None,
        c0_hat=None,
        t_end=1.0,
        dg=DgParams(epsilon, sigma),
        degree=degree,
    )


@dataclass
class SelfConvergenceReport:
    """Errors of coarse runs against a fine reference run at the final time."""

    case: int
    levels: list
    fine_n: int
    err3: list = field(default_factory=list)
    err1: list = field(default_factory=list)
    rel3: list = field(default_factory=list)
    rel1: list = field(default_factory=list)
    fine_vessel_mass: float = 0.0
    max_residual: float = 0.0
    snapshots: list = field(default_factory=list)
    fine_mesh: object = None  # kept for snapshot output
    fine_dg: object = None

    @property
    def h_labels(self):
        return [1.0 / n for n in self.levels]

    def rates3(self):
        return rate_table(self.err3)

    def rates1(self):
        return rate_table(self.err1)


def cross_error_3d(coarse_fem, coarse_dofs, fine_fem, fine_dofs, order: int = 4):
    """L2 distance between two P1 fields, integrated on the coarse mesh."""
    mesh = coarse_fem.mesh
    bary, w = tet_quadrature(order)
    cdofs = np.asarray(coarse_dofs, dtype=float)
    total = 0.0
    for start in range(0, mesh.n_tets, _CHUNK):
        sl = slice(start, min(start + _CHUNK, mesh.n_tets))
        tets = mesh.tets[sl]
        xq = np.einsum("qi,eic->eqc", bary, mesh.vertices[tets])
        ch = np.einsum("qi,ei->eq", bary, cdofs[tets])
        fh = fine_fem.evaluate(fine_dofs, xq.reshape(-1, 3)).reshape(ch.shape)
        total += float(np.einsum("e,q,eq->", 6.0 * mesh.volumes[sl], w, (ch - fh) ** 2))
    return math.sqrt(total)


def cross_error_1d(coarse_dg, coarse_dofs, fine_dg, fine_dofs):
    """L2 distance between two broken fields, integrated on the coarse partition."""
    q = coarse_dg.degree + 3
    pts, wts = coarse_dg.gauss_points(q)
    total = 0.0
    for e in range(coarse_dg.partition.n_elements):
        vals, _ = coarse_dg.basis_at(e, pts[e])
        vh = vals.T @ np.asarray(coarse_dofs)[coarse_dg.element_dofs(e)]
        fh = fine_dg.evaluate(fine_dofs, pts[e])
        total += float(wts[e] @ (vh - fh) ** 2)
    return math.sqrt(total)


def self_convergence(
    case: int,
    coarse_levels=(4, 8, 16),
    fine_n: int = 32,
    degree: int = 1,
    n_circle: int = 16,
    snapshot_times=(),
    workers: int = 1,
) -> SelfConvergenceReport:
    """Compare coarse runs of the diagonal-line problem against a fine run.

    Errors are evaluated by sampling the fine solution at the coarse
    quadrature points; both absolute and relative (to the fine-solution norm)
    columns are reported.
    """
    levels = sorted(coarse_levels)
    if levels[-1] >= fine_n:
        raise ValueError("fine level must exceed every coarse level")
    report = SelfConvergenceReport(case=case, levels=levels, fine_n=fine_n)

    observers = []
    if snapshot_times:
        observers.append(
            Observer(times=tuple(snapshot_times),
                     fn=lambda n, t, state: report.snapshots.append((t, state)))
        )
    fine_system = CoupledSystem(
        diagonal_problem(case, degree=degree), n_cells=fine_n,
        n_line=fine_n, n_circle=n_circle,
    )
    fine_state, fine_report = fine_system.run(observers)
    report.max_residual = fine_report.max_residual
    report.fine_vessel_mass = fine_system.vessel_mass(fine_state)
    report.fine_mesh = fine_system.mesh
    report.fine_dg = fine_system.dg
    norm3, _ = error_norms_3d(fine_system.fem, fine_state.c, None, None, fine_state.t)
    norm1, _ = error_norms_1d(fine_system.dg, fine_state.c_hat, None, None, fine_state.t)

    def run_level(n):
        system = CoupledSystem(
            diagonal_problem(case, degree=degree), n_cells=n,
            n_line=n, n_circle=n_circle,
        )
        state, run_report = system.run()
        e3 = cross_error_3d(system.fem, state.c, fine_system.fem, fine_state.c)
        e1 = cross_error_1d(system.dg, state.c_hat, fine_system.dg, fine_state.c_hat)
        return e3, e1, run_report.max_residual

    for e3, e1, resid in _map_levels(run_level, levels, workers):
        report.err3.append(e3)
        report.err1.append(e1)
        report.rel3.append(e3 / norm3 if norm3 > 0 else e3)
        report.rel1.append(e1 / norm1 if norm1 > 0 else e1)
        report.max_residual = max(report.max_residual, resid)
    return report


def averaging_consistency(system: CoupledSystem, ms: ManufacturedSolution, t: float,
                          n_samples: int = 21):
    """Max gap between the discrete circle average of the interpolated exact
    field and chat / 2 along the vessel."""
    geom = system.problem.geometry
    c_nodal = ms.c(system.fem.dof_points, t)
    ss = np.linspace(0.05, geom.length - 0.05, n_samples)
    gaps = [
        abs(
            lateral_average(system.fem, geom, c_nodal, s, system.n_circle)
            - 0.5 * float(ms.c_hat(s, t))
        )
        for s in ss
    ]
    return max(gaps)
