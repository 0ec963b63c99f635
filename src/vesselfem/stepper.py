"""Backward Euler time stepping for the coupled box/vessel transport system.

The monolithic operator over (3D dofs, 1D dofs) is time-independent, so it is
composed and LU-factored once; each step assembles the right-hand side from
the previous state, the sources at the new time level and the inflow datum,
overwrites the Dirichlet rows, and back-substitutes.  A march forms one mass
product per state, for its energy and the next right-hand side.
"""
from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from . import coupling, dg1d, fem3d, linalg
from .dg1d import DgParams, DgSpace, Partition1D
from .errors import ConfigError
from .fem3d import ScalarField3, VectorField3
from .geometry import MAX_CIRCLE_POINTS, MIN_CIRCLE_POINTS, VesselGeometry
from .mesh3d import DEFAULT_BOX, FemSpace, TetMesh

# Largest box level the direct (LU) solver factors in a few GB of memory; the
# fill of n = 64 is extrapolated to hundreds of millions of nonzeros.
MAX_CELLS = 32
# Longest march accepted, about 300 times the n = 32 default of 320 steps.
MAX_STEPS = 100_000


def check_level(n_cells: int, n_circle: int):
    """Refuse a box level the mesh or the direct solver cannot take, or a
    section circle with too few or too many points, before any mesh is built."""
    if n_cells < 2:
        raise ConfigError("need at least 2 cells per axis")
    if n_cells > MAX_CELLS:
        raise ConfigError(
            f"level n={n_cells} exceeds the direct-solver memory limit: the LU "
            f"factorization supports box levels up to n={MAX_CELLS}"
        )
    if not MIN_CIRCLE_POINTS <= n_circle <= MAX_CIRCLE_POINTS:
        raise ConfigError(f"n_circ = {n_circle} is outside the range of "
                          f"{MIN_CIRCLE_POINTS} to {MAX_CIRCLE_POINTS} circle points")


@dataclass(frozen=True)
class TransportProblem:
    """Continuous problem data: geometry, coefficients, sources and horizon.

    ``kappa_hat`` and ``source1`` act on vessel arclength; ``dirichlet`` maps
    (boundary points, t) to trace values (None = homogeneous); ``c_in`` is the
    prescribed inflow concentration.  ``dt`` is the requested step, 0.1 times
    the mesh cell size when left None; the system shortens it so that a whole
    number of steps lands on ``t_end``, of at most MAX_STEPS.  A separable
    ``source3`` is projected once per run instead of once per step.
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
        if not 0.0 < self.t_end < math.inf:
            raise ConfigError("time horizon must be positive and finite")
        if self.dt is not None and not 0.0 < self.dt <= self.t_end:
            raise ConfigError("need 0 < dt <= t_end")
        if not 0.0 < self.u_hat < math.inf:
            raise ConfigError("vessel velocity must be positive and finite")
        if self.degree < 1:
            raise ConfigError("polynomial degree must be >= 1")


@dataclass
class CoupledState:
    """Dof vectors of both concentrations at time t = n dt."""

    c: np.ndarray
    c_hat: np.ndarray
    t: float
    n: int


@dataclass
class RunReport:
    """What a march produced: step count, solve residual, energy trace, wall
    time and the ``(t, state)`` snapshots taken at the requested times."""

    n_steps: int
    max_residual: float
    energies: np.ndarray
    wall_time: float
    snapshots: list = field(default_factory=list)


class CoupledSystem:
    """Discretization of a TransportProblem on DEFAULT_BOX with n_cells cells
    per axis and a uniform vessel partition of n_cells elements; the box
    part without coefficients is the shared ``fem3d.box_level(n_cells)``."""

    def __init__(
        self,
        problem: TransportProblem,
        n_cells: int,
        n_circle: int = coupling.DEFAULT_N_CIRCLE,
    ):
        check_level(n_cells, n_circle)
        dt = problem.dt or 0.1 * float(np.max(np.subtract(DEFAULT_BOX[1], DEFAULT_BOX[0]) / n_cells))
        steps = problem.t_end / dt - 1e-12  # compared before ceil: it may be inf
        if not steps <= MAX_STEPS:
            raise ConfigError(f"t_end / dt = {steps:.3g} steps exceeds the limit of {MAX_STEPS}")
        self.n_steps = max(1, math.ceil(steps))
        self.dt = problem.t_end / self.n_steps
        self.problem = problem
        geom = problem.geometry
        geom.check_inside_box(*DEFAULT_BOX)

        level = fem3d.box_level(n_cells)
        self.fem: FemSpace = level.space
        self.mesh: TetMesh = level.space.mesh
        self.dg = DgSpace(Partition1D.uniform(geom.length, n_cells), problem.degree)
        self.n_circle = n_circle

        self.mass3 = level.mass
        inv_dt = 1.0 / self.dt
        box = fem3d.box_block(level, inv_dt, problem.kappa, problem.velocity)

        area = lambda s: geom.section_area(s)
        self.mass1 = dg1d.assemble_mass_weighted(self.dg, area)
        stiff1 = dg1d.assemble_a_lambda(self.dg, problem.kappa_hat, area, problem.dg)
        adv1 = dg1d.assemble_b_lambda(self.dg, problem.u_hat, area)

        self.blocks = coupling.assemble_coupling(
            geom, self.fem, self.dg, n_circle=n_circle
        )

        self.dirichlet_rows = level.dirichlet_rows
        self._boundary_points = (None if problem.dirichlet is None
                                else self.fem.dof_points[self.dirichlet_rows])
        # the Dirichlet rows are constrained in the box rows [box, -c_ol]
        # before the stack, and the one CSC operator is what the LU factors
        top = fem3d.constrain_rows(sp.hstack([box + self.blocks.c_oo, -self.blocks.c_ol]),
                                   self.dirichlet_rows)
        bottom = sp.hstack([-self.blocks.c_lo, inv_dt * self.mass1 + (stiff1 + adv1 + self.blocks.c_ll)])
        self.operator = sp.vstack([top, bottom], format="csc")
        del box, stiff1, adv1, top, bottom  # freed before the LU is factored
        self.factorization = linalg.Factorization(self.operator)
        self._part_loads = None  # projected source3 parts, filled on first use

        self._quad1 = self.dg.element_quadrature(self.dg.degree + 2)
        self._inflow = dg1d.inflow_factors(self.dg, area, problem.u_hat)
        self._rhs_buffer = np.empty(self.n_dofs)

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

    def _rhs(self, t_new: float, masses):
        pr = self.problem
        inv_dt = 1.0 / self.dt
        rhs = self._rhs_buffer
        rhs3, rhs1 = self.split(rhs)
        np.multiply(inv_dt, masses[0], out=rhs3)
        if not pr.source3.is_zero:
            rhs3 += self._load3(t_new)
        np.multiply(inv_dt, masses[1], out=rhs1)
        if pr.source1 is not None:
            rhs1 += self._load1(pr.source1, t_new)
        if pr.c_in is not None:
            dofs, scale, vl = self._inflow
            rhs1[dofs] += scale * float(pr.c_in(t_new)) * vl
        rhs[self.dirichlet_rows] = fem3d.dirichlet_values(self._boundary_points, pr.dirichlet, t_new)
        return rhs

    def _load3(self, t):
        """Box load of source3 at time t; the parts of a separable source are
        projected in one pass on first use and afterwards only recombined."""
        source = self.problem.source3
        if source.parts is None:
            return fem3d.assemble_load(self.fem, source, t)
        if self._part_loads is None:
            parts = ScalarField3(fn=lambda x, t: source.parts(x))
            self._part_loads = fem3d.assemble_load(self.fem, parts, 0.0)
        out = np.zeros(self.fem.n_dofs)
        for g, load in zip(source.times(t), self._part_loads):
            out += float(g) * load
        return out

    def _load1(self, fn, t):
        """Vessel load (fn(., t), phi_i) over every element and Gauss point at once."""
        pts, wts, vals, _ = self._quad1
        fq = np.broadcast_to(np.asarray(fn(pts.ravel(), t), dtype=float), (pts.size,))
        return np.einsum("eq,iq->ei", wts * fq.reshape(pts.shape), vals).ravel()

    def mass_products(self, state: CoupledState):
        """(M3 c, M1 c_hat): a state's energy and its share of the next step."""
        return self.mass3 @ state.c, self.mass1 @ state.c_hat

    def step(self, state: CoupledState, masses=None) -> CoupledState:
        """The next state; ``masses`` are ``mass_products(state)`` if formed."""
        n_new = state.n + 1
        t_new = self.problem.t_end if n_new == self.n_steps else n_new * self.dt
        rhs = self._rhs(t_new, masses or self.mass_products(state))
        c, c_hat = self.split(self.factorization.solve(rhs))
        return CoupledState(c=c, c_hat=c_hat, t=t_new, n=n_new)

    def energy(self, state: CoupledState, masses=None) -> float:
        """Squared L2 norm of the box field plus area-weighted vessel field."""
        mc, m1c = masses or self.mass_products(state)
        return float(state.c.dot(mc) + state.c_hat.dot(m1c))

    def vessel_mass(self, state: CoupledState) -> float:
        """Total solute content of the vessel, integral of area * chat."""
        ones = self.dg.constant_one()
        return float(ones.dot(self.mass1 @ state.c_hat))

    def run(self, times: Sequence[float] = ()) -> tuple[CoupledState, RunReport]:
        """March to t_end.  For every distinct requested time, the report keeps
        the first state at or after it (to 1e-12) as ``(t, state)``; a state
        that reaches several times is kept once for each."""
        n_steps = self.n_steps
        state = self.initialize()
        energies = np.empty(n_steps + 1)
        masses = self.mass_products(state)
        energies[0] = self.energy(state, masses)
        pending = set(times)
        snapshots = []

        def take(state):
            reached = {target for target in pending if state.t >= target - 1e-12}
            pending.difference_update(reached)
            snapshots.extend([(state.t, state)] * len(reached))

        take(state)
        start = _time.perf_counter()
        for _ in range(n_steps):
            state = self.step(state, masses)
            masses = self.mass_products(state)
            energies[state.n] = self.energy(state, masses)
            take(state)
        wall = _time.perf_counter() - start
        report = RunReport(
            n_steps=n_steps,
            max_residual=self.factorization.max_residual,
            energies=energies,
            wall_time=wall,
            snapshots=snapshots,
        )
        return state, report
