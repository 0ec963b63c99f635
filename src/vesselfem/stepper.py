"""Backward Euler time stepping for the coupled box/vessel transport system.

The monolithic operator over (3D dofs, 1D dofs) is time-independent, so it is
composed and LU-factored once; each step assembles the right-hand side from
the previous state, the sources at the new time level and the inflow datum,
overwrites the Dirichlet rows, and back-substitutes.
"""
from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import coupling, dg1d, fem3d, linalg
from .dg1d import DgParams, DgSpace, Partition1D
from .errors import ConfigError
from .fem3d import ScalarField3, VectorField3
from .geometry import VesselGeometry
from .mesh3d import FemSpace, TetMesh, build_box_mesh

DEFAULT_BOX = ((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))


@dataclass(frozen=True)
class TransportProblem:
    """Continuous problem data: geometry, coefficients, sources and horizon.

    ``kappa_hat`` and ``source1`` act on vessel arclength; ``dirichlet`` maps
    (boundary points, t) to trace values (None = homogeneous); ``c_in`` is the
    prescribed inflow concentration.  ``dt`` is the requested step, 0.1 times
    the mesh cell size when left None; the system shortens it so that a whole
    number of steps lands on ``t_end``.  A ``source3`` with ``terms`` is
    projected once per run instead of once per step.
    """

    geometry: VesselGeometry
    kappa: ScalarField3
    kappa_hat: Callable
    velocity: VectorField3
    u_hat: float
    source3: ScalarField3
    source1: Callable | None
    c_in: Callable | None
    dirichlet: Callable | None
    c0: Callable | None
    c0_hat: Callable | None
    t_end: float
    dg: DgParams
    degree: int = 1
    dt: float | None = None

    def __post_init__(self):
        if self.t_end <= 0.0:
            raise ConfigError("time horizon must be positive")
        if self.dt is not None and (self.dt <= 0.0 or self.dt > self.t_end):
            raise ConfigError("need 0 < dt <= t_end")
        if self.u_hat <= 0.0:
            raise ConfigError("vessel velocity must be positive")


@dataclass
class CoupledState:
    """Dof vectors of both concentrations at time t = n dt."""

    c: np.ndarray
    c_hat: np.ndarray
    t: float
    n: int


@dataclass
class Observer:
    """Callback fired the first time a step reaches each requested time."""

    times: Sequence[float]
    fn: Callable  # fn(step_index, time, state)
    _fired: list = field(default_factory=list)

    def notify(self, step, t, state):
        for target in self.times:
            if target in self._fired:
                continue
            if t >= target - 1e-12:
                self._fired.append(target)
                self.fn(step, t, state)


@dataclass
class RunReport:
    n_steps: int
    max_residual: float
    energies: np.ndarray
    wall_time: float


class CoupledSystem:
    """Discretization of a TransportProblem on a box mesh and vessel partition."""

    def __init__(
        self,
        problem: TransportProblem,
        n_cells: int,
        box=DEFAULT_BOX,
        n_line: int | None = None,
        n_circle: int = coupling.DEFAULT_N_CIRCLE,
    ):
        self.problem = problem
        geom = problem.geometry
        lo, hi = np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float)
        geom.check_inside_box(lo, hi)

        self.mesh: TetMesh = build_box_mesh(lo, hi, n_cells)
        self.fem = FemSpace(self.mesh)
        n_line = n_line if n_line is not None else n_cells
        self.dg = DgSpace(Partition1D.uniform(geom.length, n_line), problem.degree)
        self.n_circle = n_circle

        dt = problem.dt if problem.dt is not None else 0.1 * float(
            self.mesh.cell_size.max()
        )
        self.n_steps = max(1, math.ceil(problem.t_end / dt - 1e-12))
        self.dt = problem.t_end / self.n_steps

        self.mass3 = fem3d.assemble_mass(self.fem)
        stiff3 = fem3d.assemble_stiffness(self.fem, problem.kappa)
        conv3 = fem3d.assemble_convection(self.fem, problem.velocity)
        fem3d.check_velocity_bound(self.fem, problem.velocity, self._kappa_min())

        area = lambda s: geom.section_area(s)
        self.mass1 = dg1d.assemble_mass_weighted(self.dg, area)
        stiff1 = dg1d.assemble_a_lambda(self.dg, problem.kappa_hat, area, problem.dg)
        adv1 = dg1d.assemble_b_lambda(self.dg, problem.u_hat, area)

        self.blocks = coupling.assemble_coupling(
            geom, self.fem, self.dg, n_circle=n_circle
        )

        inv_dt = 1.0 / self.dt
        top = linalg.add_scaled(self.mass3, inv_dt, stiff3 + conv3 + self.blocks.c_oo)
        bottom = linalg.add_scaled(self.mass1, inv_dt, stiff1 + adv1 + self.blocks.c_ll)
        system = linalg.block_compose(
            [[top, -self.blocks.c_ol], [-self.blocks.c_lo, bottom]]
        )
        self.dirichlet_rows = np.nonzero(self.fem.dirichlet_mask)[0]
        system = fem3d.constrain_rows(system, self.dirichlet_rows)
        self.operator = system
        self.factorization = linalg.factorize(system)
        self._mass1_unweighted = None
        self._term_loads = None  # projected source3 terms, filled on first use

        # vessel-load quadrature: the basis values at the reference Gauss
        # points are the same on every element
        q = self.dg.degree + 2
        xi, _ = np.polynomial.legendre.leggauss(q)
        vals, _ = dg1d.legendre_basis(xi, self.dg.degree)
        self._quad1 = (*self.dg.gauss_points(q), vals)

    def _kappa_min(self) -> float:
        pts = self.mesh.vertices[:: max(1, self.mesh.n_vertices // 512)]
        return float(np.min(self.problem.kappa(pts, 0.0)))

    @property
    def n_dofs(self) -> int:
        return self.fem.n_dofs + self.dg.n_dofs

    def split(self, x):
        return x[: self.fem.n_dofs], x[self.fem.n_dofs :]

    def initialize(self) -> CoupledState:
        """Nodal interpolation of the 3D initial datum, L2 projection of the 1D one."""
        pr = self.problem
        c = (
            np.asarray(pr.c0(self.fem.dof_points), dtype=float)
            if pr.c0 is not None
            else np.zeros(self.fem.n_dofs)
        )
        c_hat = (
            dg1d.l2_project(self.dg, pr.c0_hat)
            if pr.c0_hat is not None
            else np.zeros(self.dg.n_dofs)
        )
        return CoupledState(c=c, c_hat=c_hat, t=0.0, n=0)

    def _rhs(self, state: CoupledState, t_new: float):
        pr = self.problem
        inv_dt = 1.0 / self.dt
        rhs3 = inv_dt * (self.mass3 @ state.c) + self._load3(t_new)
        rhs1 = inv_dt * (self.mass1 @ state.c_hat)
        if pr.source1 is not None:
            rhs1 = rhs1 + self._load1(pr.source1, t_new)
        if pr.c_in is not None:
            rhs1 = rhs1 + dg1d.assemble_inflow_rhs(
                self.dg,
                lambda s: self.problem.geometry.section_area(s),
                pr.u_hat,
                float(pr.c_in(t_new)),
            )
        rhs = np.concatenate([rhs3, rhs1])
        rhs[self.dirichlet_rows] = fem3d.dirichlet_values(self.fem, pr.dirichlet, t_new)
        return rhs

    def _load3(self, t):
        """Box load of source3 at time t; a separable source is projected on
        first use and afterwards only recombined."""
        source = self.problem.source3
        if not source.terms:
            return fem3d.assemble_load(self.fem, source, t)
        if self._term_loads is None:
            self._term_loads = [
                fem3d.assemble_load(self.fem, fk, 0.0) for fk in source.term_fields()
            ]
        out = np.zeros(self.fem.n_dofs)
        for (g, _), load in zip(source.terms, self._term_loads):
            out += float(g(t)) * load
        return out

    def _load1(self, fn, t):
        """Vessel load (fn(., t), phi_i) over every element and Gauss point at once."""
        pts, wts, vals = self._quad1
        fq = np.broadcast_to(np.asarray(fn(pts.ravel(), t), dtype=float), (pts.size,))
        return np.einsum("eq,iq->ei", wts * fq.reshape(pts.shape), vals).ravel()

    def step(self, state: CoupledState) -> CoupledState:
        n_new = state.n + 1
        t_new = self.problem.t_end if n_new == self.n_steps else n_new * self.dt
        x = self.factorization.solve(self._rhs(state, t_new))
        c, c_hat = self.split(x)
        return CoupledState(c=c, c_hat=c_hat, t=t_new, n=n_new)

    def energy(self, state: CoupledState) -> float:
        """Squared L2 norm of the box field plus area-weighted vessel field."""
        return float(
            state.c @ (self.mass3 @ state.c)
            + state.c_hat @ (self.mass1 @ state.c_hat)
        )

    def energy_lower_bound(self, state: CoupledState) -> float:
        """Stability-style energy with the vessel part scaled by the minimum
        section measure instead of the local area weight; a lower bound for
        energy() since the weight is bounded below by it."""
        if self._mass1_unweighted is None:
            self._mass1_unweighted = dg1d.assemble_mass_weighted(
                self.dg, lambda s: np.broadcast_to(1.0, np.shape(s))
            )
        d0 = self.problem.geometry.section_lower
        return float(
            state.c @ (self.mass3 @ state.c)
            + d0 * (state.c_hat @ (self._mass1_unweighted @ state.c_hat))
        )

    def vessel_mass(self, state: CoupledState) -> float:
        """Total solute content of the vessel, integral of area * chat."""
        ones = self.dg.constant_one()
        return float(ones @ (self.mass1 @ state.c_hat))

    def run(self, observers: Sequence[Observer] = ()) -> tuple[CoupledState, RunReport]:
        n_steps = self.n_steps
        state = self.initialize()
        energies = np.empty(n_steps + 1)
        energies[0] = self.energy(state)
        for obs in observers:
            obs.notify(0, 0.0, state)
        start = _time.perf_counter()
        for _ in range(n_steps):
            state = self.step(state)
            energies[state.n] = self.energy(state)
            for obs in observers:
                obs.notify(state.n, state.t, state)
        wall = _time.perf_counter() - start
        report = RunReport(
            n_steps=n_steps,
            max_residual=self.factorization.max_residual,
            energies=energies,
            wall_time=wall,
        )
        return state, report


def build_system(problem, n_cells, **kwargs) -> CoupledSystem:
    return CoupledSystem(problem, n_cells, **kwargs)


def initialize(system: CoupledSystem) -> CoupledState:
    return system.initialize()


def step(system: CoupledSystem, state: CoupledState) -> CoupledState:
    return system.step(state)


def run(system: CoupledSystem, observers=()) -> tuple[CoupledState, RunReport]:
    return system.run(observers)


def energy(system: CoupledSystem, state: CoupledState) -> float:
    return system.energy(state)
