"""Backward Euler time stepping for the coupled box/vessel transport system.

The monolithic operator over (3D dofs, 1D dofs) is time-independent, so it is
built in one pass, as one CSC matrix in its LU's order (``linalg.compose``),
and factored once.  Below MAX_CELLS that order is the Dirichlet rows
(identity rows, no fill), the box level's cached nested dissection of the
interior vertices without the box dofs the exchange couples, those coupled
dofs, then the vessel dofs; the coupled dofs reach across any grid plane
near the vessel, so they go last with it.  At MAX_CELLS the matrix stays in
natural order, which SuperLU orders by minimum degree.  Each step assembles the
right-hand side from the previous state, the sources at the new time level
and the inflow datum, overwrites the Dirichlet rows, and back-substitutes.
A march forms one mass product per state, for its energy and the next
right-hand side.  A separable box source, vessel source or Dirichlet datum
has its parts evaluated once per system; each step only recombines them.
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
from .geometry import MAX_CIRCLE_POINTS, MIN_CIRCLE_POINTS, VesselGeometry
from .mesh3d import DEFAULT_BOX, FemSpace, TetMesh

# Largest box level the direct (LU) solver factors in a few GB of memory; the
# fill of n = 64 is extrapolated to hundreds of millions of nonzeros.
MAX_CELLS = 32
# Longest march accepted, about 300 times the n = 32 default of 320 steps.
MAX_STEPS = 100_000
# Highest vessel DG degree accepted.  Degree 64 still marches n = 32 under the
# solve residual check (9.0e-11 for the run defaults); far higher degrees
# exhaust memory in the Gauss rules.
MAX_DEGREE = 64


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
    number of steps lands on ``t_end``, of at most MAX_STEPS.  The parts of a
    separable ``source3``, ``source1`` or ``dirichlet`` are evaluated once per system.
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
        if not 1 <= self.degree <= MAX_DEGREE:
            raise ConfigError(f"polynomial degree must be >= 1 and <= {MAX_DEGREE}")


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
        self._boundary_points = self.fem.dof_points[self.dirichlet_rows]
        # n = MAX_CELLS keeps SuperLU's minimum-degree ordering only because
        # bench/gates.py's DIAGONAL_RECORDED holds that LU's round-off
        order = None if n_cells == MAX_CELLS else self._level_order()
        b, nb = self.blocks, self.fem.n_dofs
        # [box + c_oo, -c_ol; -c_lo, inv_dt M1 + (A + B + c_ll)] in the LU's order
        parts = [(box, 0, 0, 1.0), (b.c_oo, 0, 0, 1.0), (b.c_ol, 0, nb, -1.0), (b.c_lo, nb, 0, -1.0),
                 (stiff1, nb, nb, 1.0), (adv1, nb, nb, 1.0), (b.c_ll, nb, nb, 1.0), (self.mass1, nb, nb, inv_dt)]
        matrix = linalg.compose(self.n_dofs, parts, order, self.dirichlet_rows)
        del box, stiff1, adv1, parts  # freed before the LU is factored
        self.factorization = linalg.Factorization(matrix, order=order)
        self._parts = {}  # evaluated parts of the separable data, filled on first use

        self._quad1 = self.dg.element_quadrature(self.dg.degree + 2)
        self._inflow = dg1d.inflow_factors(self.dg, area, problem.u_hat)
        self._rhs_buffer = np.empty(self.n_dofs)

    def _level_order(self):
        """Dirichlet rows, the level's dissection order less the exchange-coupled
        box dofs, those dofs (the rows of c_ol holding entries), vessel dofs."""
        coupled = np.diff(self.blocks.c_ol.indptr) > 0
        coupled[self.dirichlet_rows] = False
        interior = self.mesh.dissection_order
        return np.concatenate([self.dirichlet_rows, interior[~coupled[interior]],
                               np.flatnonzero(coupled), self.fem.n_dofs + np.arange(self.dg.n_dofs)])

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
            rhs1 += self._datum("source1", pr.source1, t_new, self._load1)
        if pr.c_in is not None:
            dofs, scale, vl = self._inflow
            rhs1[dofs] += scale * float(pr.c_in(t_new)) * vl
        trace = None if pr.dirichlet is None else (
            lambda x, t: self._datum("dirichlet", pr.dirichlet, t, lambda g, t: g(x, t)))
        rhs[self.dirichlet_rows] = fem3d.dirichlet_values(self._boundary_points, trace, t_new)
        return rhs

    def _datum(self, key, datum, t, evaluate):
        """evaluate(datum, t), a datum's vector at t.  A separable datum's parts are evaluated
        once, on first use, as evaluate(parts, 0.0) of shape (k, ...); each step recombines them."""
        if getattr(datum, "parts", None) is None:
            return evaluate(datum, t)
        if key not in self._parts:
            self._parts[key] = evaluate(ScalarField3(fn=lambda x, t: datum.parts(x), lattice=datum.lattice), 0.0)
        return sum(float(g) * part for g, part in zip(datum.times(t), self._parts[key]))

    def _load3(self, t):
        """Box load of source3 at time t."""
        return self._datum("source3", self.problem.source3, t,
                           lambda f, t: fem3d.assemble_load(self.fem, f, t))

    def _load1(self, fn, t):
        """Vessel load (fn(., t), phi_i) over every element and Gauss point at
        once; stacked values, shape (k, m), give the k loads as (k, n_dofs)."""
        pts, wts, vals, _ = self._quad1
        fq = np.asarray(fn(pts.ravel(), t), dtype=float)
        lead = fq.shape[:-1]  # (k,) for stacked values
        fq = np.broadcast_to(fq, lead + (pts.size,)).reshape(lead + pts.shape)
        return np.einsum("...eq,iq->...ei", wts * fq, vals).reshape(lead + (-1,))

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
