"""Backward Euler time stepping for the coupled box/vessel transport system.

The monolithic operator over (3D dofs, 1D dofs) is time-independent, so it is
built in one pass, as one CSC matrix in its LU's order (``linalg.compose``),
and factored once.  At every level but n = 32 that order is the Dirichlet
rows (identity rows, no fill), the box level's cached nested dissection of
the interior vertices without the box dofs the exchange couples, those
coupled dofs, then the vessel dofs; the coupled dofs reach across any grid
plane near the vessel, so they go last with it.  At n = 32 the matrix stays
in natural order, which SuperLU orders by minimum degree.  Each step adds to
the previous state's mass products each datum's vector at the new time (box
source, vessel source, and the inflow: ``dg1d.assemble_inflow_rhs`` built once
and scaled by c_in(t)) in its rows, writes the Dirichlet trace and
back-substitutes; one rule (``_in_time``) evaluates a separable datum's parts
once per system and any other datum every step.  A march forms one mass
product per state, for its energy and the next right-hand side.
"""
from __future__ import annotations

import functools
import math
import operator
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import coupling, dg1d, fem3d, linalg
from .dg1d import DgParams, DgSpace, Partition1D
from .errors import ConfigError, ReleasedError
from .fem3d import ScalarField3
from .geometry import VesselGeometry
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
# Section circle points accepted; at any count the averaging matrix is built
# from blocks of mesh3d.POINT_BLOCK circle points, which bound its temporaries.
MIN_CIRCLE_POINTS, MAX_CIRCLE_POINTS = 4, 1024  # the top is 16x any study's


def _round_off(x):
    """The rounding a march's time comparisons absorb at x: 1e-12 of |x|, at least 1e-12."""
    return 1e-12 * max(1.0, abs(x))


def _check_integer(name, value):
    """Refuse a count that is not an integer (numpy integers are; 8.0 is not)."""
    try:
        operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def check_level(n_cells: int, n_circle: int):
    """Refuse a box level the mesh or the direct solver cannot take, or a
    section circle with too few or too many points, before any mesh is built."""
    _check_integer("box level", n_cells)
    _check_integer("n_circ", n_circle)
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
    """Continuous problem data: geometry, coefficients, sources and horizon;
    the march starts from rest.

    The coefficients are constants: ``kappa``, ``kappa_hat`` and ``u_hat``
    positive floats, ``velocity`` three floats.  ``source1`` acts on vessel
    arclength; ``dirichlet`` maps (boundary points, t) to trace values
    (None = homogeneous); ``c_in`` is the prescribed inflow concentration.
    ``dt`` is the requested step, 0.1 times the mesh cell size when left
    None; the system shortens it so that a whole number of steps lands on
    ``t_end``, of at most MAX_STEPS.  The parts of a separable ``source3``,
    ``source1`` or ``dirichlet`` are evaluated once per system.
    """

    geometry: VesselGeometry
    kappa: float
    kappa_hat: float
    velocity: tuple
    u_hat: float
    source3: ScalarField3
    source1: Callable | None
    c_in: Callable | None
    dirichlet: Callable | None
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
        for medium, value in (("vessel", self.kappa_hat), ("box", self.kappa)):
            if not 0.0 < value < math.inf:  # NaN fails too
                raise ConfigError(f"{medium} diffusivity must be positive and finite, got {value}")
        u = np.asarray(self.velocity, dtype=float)
        if u.shape != (3,):
            raise ConfigError(f"box velocity needs 3 components, got shape {u.shape}")
        if not np.all(np.isfinite(u)):
            raise ConfigError(f"box velocity needs finite components, got {tuple(u)}")
        _check_integer("polynomial degree", self.degree)
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


def _in_time(datum, vector):
    """t -> vector(datum, t), a datum's vector at t.  A separable datum's parts
    are evaluated once, on first use, as vector(parts, 0.0) of shape (k, ...),
    and recombined at each t; any other datum is evaluated at each t."""
    if getattr(datum, "parts", None) is None:
        return lambda t: vector(datum, t)
    parts = ScalarField3(fn=lambda x, t: datum.parts(x), lattice=datum.lattice)
    evaluated = functools.cache(lambda: vector(parts, 0.0))  # on first use
    return lambda t: sum(float(g) * part for g, part in zip(datum.times(t), evaluated()))


class CoupledSystem:
    """Discretization of a TransportProblem on DEFAULT_BOX with n_cells cells
    per axis and a uniform vessel partition of n_cells elements; the box
    part without coefficients is the shared ``fem3d.box_level(n_cells)``.

    ``run`` frees the LU and its operator when the march ends, failed or
    not, so a caller that keeps a marched system while it builds the next
    holds one factorization, not two; the spaces, mass matrices, blocks,
    ``dt`` and ``problem`` stay.  A march stepped by hand keeps its LU."""

    def __init__(
        self,
        problem: TransportProblem,
        n_cells: int,
        n_circle: int = coupling.DEFAULT_N_CIRCLE,
    ):
        check_level(n_cells, n_circle)
        dt = problem.dt or 0.1 * float(np.max(np.subtract(DEFAULT_BOX[1], DEFAULT_BOX[0]) / n_cells))
        ratio = problem.t_end / dt
        steps = ratio - _round_off(ratio)  # compared before ceil: nan when the ratio is inf
        if not steps <= MAX_STEPS:
            raise ConfigError(f"t_end / dt = {ratio:.3g} steps exceeds the limit of {MAX_STEPS}")
        self.n_steps = max(1, math.ceil(steps))
        self.dt = problem.t_end / self.n_steps
        if not math.isfinite(1.0 / self.dt):  # the operator holds M / dt
            raise ConfigError(f"step dt = {self.dt:.3g} is so small that 1 / dt overflows")
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
        # n = 32 keeps SuperLU's minimum-degree ordering only because
        # bench/gates.py's DIAGONAL_RECORDED holds that LU's round-off
        order = None if n_cells == 32 else self._level_order()
        b, nb = self.blocks, self.fem.n_dofs
        # [box + c_oo, -c_ol; -c_lo, inv_dt M1 + (A + B + c_ll)] in the LU's order
        parts = [(box, 0, 0, 1.0), (b.c_oo, 0, 0, 1.0), (b.c_ol, 0, nb, -1.0), (b.c_lo, nb, 0, -1.0),
                 (stiff1, nb, nb, 1.0), (adv1, nb, nb, 1.0), (b.c_ll, nb, nb, 1.0), (self.mass1, nb, nb, inv_dt)]
        matrix = linalg.compose(self.n_dofs, parts, order, self.dirichlet_rows)
        del box, stiff1, adv1, parts  # freed before the LU is factored
        self.factorization = linalg.Factorization(matrix, order=order)

        # each datum's rows and its vector at t; the closures hold fem, dg and
        # arrays, never self, so a system dies with its last reference
        fem, dg, points = self.fem, self.dg, self.mesh.vertices[self.dirichlet_rows]
        inflow = dg1d.assemble_inflow_rhs(dg, area, problem.u_hat, 1.0)
        data = [(slice(0, nb), None if problem.source3.is_zero else problem.source3,
                 lambda f, t: fem3d.assemble_load(fem, f, t)),
                (slice(nb, None), problem.source1, lambda f, t: dg1d.assemble_load(dg, f, t, dg.degree + 2)),
                (slice(nb, None), problem.c_in, lambda c, t: float(c(t)) * inflow)]
        self._data = [(rows, _in_time(datum, vector)) for rows, datum, vector in data if datum is not None]
        self._trace = (lambda t: 0.0) if problem.dirichlet is None else _in_time(
            problem.dirichlet, lambda g, t: fem3d.dirichlet_values(points, g, t))
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
        """The state at rest: every march starts from zero concentrations."""
        return CoupledState(np.zeros(self.fem.n_dofs), np.zeros(self.dg.n_dofs), 0.0, 0)

    def _rhs(self, t_new: float, masses):
        inv_dt = 1.0 / self.dt
        rhs = self._rhs_buffer
        rhs3, rhs1 = self.split(rhs)
        np.multiply(inv_dt, masses[0], out=rhs3)
        np.multiply(inv_dt, masses[1], out=rhs1)
        for rows, at in self._data:
            rhs[rows] += at(t_new)
        rhs[self.dirichlet_rows] = self._trace(t_new)
        return rhs

    def mass_products(self, state: CoupledState):
        """(M3 c, M1 c_hat): a state's energy and its share of the next step."""
        return self.mass3 @ state.c, self.mass1 @ state.c_hat

    def step(self, state: CoupledState, masses=None) -> CoupledState:
        """The next state; ``masses`` are ``mass_products(state)`` if formed.
        Raises ReleasedError once ``run`` has freed the LU."""
        if self.factorization is None:
            raise ReleasedError("this system has marched and freed its LU; build a new one")
        n_new = state.n + 1
        t_new = self.problem.t_end if n_new == self.n_steps else n_new * self.dt
        rhs = self._rhs(t_new, masses or self.mass_products(state))
        c, c_hat = self.split(self.factorization.solve(rhs))
        return CoupledState(c=c, c_hat=c_hat, t=t_new, n=n_new)

    def energy(self, state: CoupledState, masses=None) -> float:
        """Squared L2 norm of the box field plus area-weighted vessel field; a
        finite state whose sum overflows reads inf, never nan."""
        mc, m1c = masses or self.mass_products(state)
        energy = float(state.c.dot(mc) + state.c_hat.dot(m1c))
        if not math.isfinite(energy) and np.isfinite(state.c).all() and np.isfinite(state.c_hat).all():
            scale = float(max(np.abs(state.c).max(), np.abs(state.c_hat).max()))  # summed again on state / scale
            energy = self.energy(CoupledState(state.c / scale, state.c_hat / scale, 0.0, 0)) * scale * scale
        return energy

    def vessel_mass(self, state: CoupledState) -> float:
        """Total solute content of the vessel, integral of area * chat."""
        ones = self.dg.constant_one()
        return float(ones.dot(self.mass1 @ state.c_hat))

    def run(self, times: Sequence[float] = ()) -> tuple[CoupledState, RunReport]:
        """March to t_end.  For every distinct requested time, the report keeps
        the first state at or after it (to 1e-12 of the time, at least 1e-12)
        as ``(t, state)``; a state that reaches several times is kept once.
        The LU is freed when the march ends, also by an error, so a
        system marches once."""
        n_steps = self.n_steps
        state = self.initialize()
        energies = np.empty(n_steps + 1)
        masses = self.mass_products(state)
        energies[0] = self.energy(state, masses)
        pending = set(times)
        snapshots = []

        def take(state):
            reached = {target for target in pending if state.t >= target - _round_off(target)}
            if reached:
                pending.difference_update(reached)
                snapshots.append((state.t, state))

        take(state)
        start = _time.perf_counter()
        try:
            for _ in range(n_steps):
                state = self.step(state, masses)
                masses = self.mass_products(state)
                energies[state.n] = self.energy(state, masses)
                take(state)
            wall = _time.perf_counter() - start
            max_residual = self.factorization.max_residual
        finally:
            self.factorization = None
        report = RunReport(
            n_steps=n_steps,
            max_residual=max_residual,
            energies=energies,
            wall_time=wall,
            snapshots=snapshots,
        )
        return state, report
