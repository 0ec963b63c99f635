import math
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from vesselfem import cli, coupling, dg1d, fem3d, linalg, stepper, verify
from vesselfem.dg1d import DgParams
from vesselfem.errors import CoefficientError, ConfigError, GeometryError, ReleasedError, SolverError
from vesselfem.fem3d import ScalarField3
from vesselfem.geometry import ConstantPermeability, ConstantRadius, VesselGeometry
from vesselfem.stepper import CoupledSystem, TransportProblem

from _oracles import constrain_rows, reference_march, stacked_operator


def quiescent_problem(t_end=0.1, dt=None, velocity=(0, 0, 1)):
    """Zero data on the vertical vessel; used for decay/fixed-point checks."""
    geom = VesselGeometry(
        (0, 0, -0.5), (0, 0, 0.5), ConstantRadius(0.05), ConstantPermeability(1.0)
    )
    return TransportProblem(
        geometry=geom,
        kappa=1.0,
        kappa_hat=1.0,
        velocity=velocity,
        u_hat=1.0,
        source3=ScalarField3.zero(),
        source1=None,
        c_in=None,
        dirichlet=None,
        t_end=t_end,
        dg=DgParams(1, 50.0),
        degree=1,
        dt=dt,
    )


class TestInputRefused:
    """The library refuses inadmissible data itself, and a level before any mesh."""

    @pytest.mark.parametrize("name, value", [("dt", math.nan), ("t_end", math.nan),
                                             ("t_end", math.inf), ("u_hat", math.nan),
                                             ("u_hat", 0.0), ("u_hat", -1.0), ("degree", 0),
                                             ("degree", 2.0), ("degree", 1.5)])
    def test_problem(self, name, value):
        with pytest.raises(ConfigError):
            replace(quiescent_problem(), **{name: value})

    def test_degree_cap(self):
        assert replace(quiescent_problem(), degree=stepper.MAX_DEGREE).degree == stepper.MAX_DEGREE
        with pytest.raises(ConfigError, match=f"<= {stepper.MAX_DEGREE}"):
            replace(quiescent_problem(), degree=stepper.MAX_DEGREE + 1)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, 0.0, -1.0])
    def test_box_diffusivity(self, kappa):
        with pytest.raises(CoefficientError, match="diffusivity must be positive and finite"):
            replace(quiescent_problem(), kappa=kappa)

    @pytest.mark.parametrize("kappa_hat", [0.0, -1.0, math.nan, math.inf])
    def test_vessel_diffusivity(self, kappa_hat):
        with pytest.raises(CoefficientError, match="vessel diffusivity must be positive and finite"):
            replace(quiescent_problem(), kappa_hat=kappa_hat)

    @pytest.mark.parametrize("velocity, message", [
        ((1.0, 2.0), "needs 3 components"),
        ((1.0, 2.0, 3.0, 4.0), "needs 3 components"),
        ((math.nan, 0.0, 0.0), "finite components"),
        ((math.inf, 0.0, 0.0), "finite components"),
        ((0.0, math.inf, 0.0), "finite components"),
        ((0.0, 0.0, -math.inf), "finite components"),
    ], ids=["two", "four", "nan", "inf", "y_inf", "minus_inf"])
    def test_box_velocity(self, velocity, message):
        with pytest.raises(ConfigError, match=message):
            replace(quiescent_problem(), velocity=velocity)

    @pytest.mark.parametrize("n_cells, n_circle", [(64, 16), (1, 16), (4, 3), (8.0, 16), (8, 16.0)])
    def test_level(self, monkeypatch, n_cells, n_circle):
        def refuse(*args, **kwargs):
            raise AssertionError("a mesh was built for a refused level")

        monkeypatch.setattr(fem3d, "box_level", refuse)
        with pytest.raises(ConfigError):
            CoupledSystem(quiescent_problem(), n_cells=n_cells, n_circle=n_circle)

    def test_numpy_integers_pass(self):
        stepper.check_level(np.int64(8), np.int64(16))
        assert replace(quiescent_problem(), degree=np.int64(2)).degree == 2


class TestSharedBoxLevel:
    """Systems at one n share the box level and stay independent of each other."""

    def test_same_n_shares_one_level(self):
        a = CoupledSystem(quiescent_problem(), n_cells=4)
        b = CoupledSystem(quiescent_problem(velocity=(1, 0, 0)), n_cells=4)
        level = fem3d.box_level(4)
        assert a.fem is b.fem is level.space
        assert a.mass3 is b.mass3 is level.mass
        assert a.dirichlet_rows is b.dirichlet_rows is level.dirichlet_rows

    def test_other_system_leaves_operator_and_solves(self):
        problem = replace(quiescent_problem(t_end=0.05), c_in=lambda t: 5.0)
        first = CoupledSystem(problem, n_cells=4)
        op = first.factorization._matrix
        before = [op.indptr.copy(), op.indices.copy(), op.data.copy()]
        state, _ = first.run()
        other = replace(
            problem,
            geometry=VesselGeometry((-0.3, -0.3, -0.3), (0.3, 0.2, 0.3),
                                    ConstantRadius(0.04), ConstantPermeability(0.5)),
            velocity=(0.3, -0.2, 0.5),
            kappa=2.5,
        )
        CoupledSystem(other, n_cells=4).run()
        for a, b in zip(before, [op.indptr, op.indices, op.data]):
            assert np.array_equal(a, b)
        again, _ = CoupledSystem(problem, n_cells=4).run()
        assert np.array_equal(again.c, state.c) and np.array_equal(again.c_hat, state.c_hat)

    def test_level_arrays_are_read_only(self):
        level = fem3d.box_level(4)
        mesh = level.space.mesh
        indptr, indices = mesh.csr_pattern
        arrays = [mesh.vertices, mesh.tets, mesh.grid_index, mesh.boundary_vertex,
                  mesh.shape_gradients, indptr, indices, level.mass.data, level.mass.indices,
                  level.mass.indptr, level.dirichlet_rows]
        for a in arrays:
            with pytest.raises(ValueError):
                a.flat[0] = a.flat[0]


class TestOperatorParts:
    """The box stiffness and convection die before the LU is factored, so the
    factorization does not start on top of them."""

    def test_released_before_factorization(self, monkeypatch):
        parts = []
        for name in ("assemble_stiffness", "assemble_convection"):
            def tracked(*args, build=getattr(fem3d, name), **kwargs):
                matrix = build(*args, **kwargs)
                parts.append(weakref.ref(matrix))
                return matrix
            monkeypatch.setattr(fem3d, name, tracked)
        alive = []

        def factor(matrix, order=None, build=linalg.Factorization):
            alive.extend(ref for ref in parts if ref() is not None)
            return build(matrix, order=order)

        monkeypatch.setattr(linalg, "Factorization", factor)
        CoupledSystem(quiescent_problem(), n_cells=4)
        assert len(parts) == 2 and not alive


@pytest.mark.slow
class TestFactorizationStart:
    """What is alive when the n = 32 factorization of diagonal case 1 starts:
    the box level, the exchange and vessel blocks and one CSC operator,
    which SuperLU orders by minimum degree; the level has no dissection."""

    def test_live_set_at_splu(self, monkeypatch):
        class Probe(Exception):
            pass

        live, levels = [], []

        def probe(matrix, permc_spec=None, **kwargs):
            live.append(tracemalloc.get_traced_memory()[0])
            assert permc_spec == "MMD_AT_PLUS_A"
            raise Probe  # nothing is factored

        def fresh(n, build=fem3d.box_level.__wrapped__):  # built afresh, outside the cache
            levels.append(build(n))
            return levels[-1]

        monkeypatch.setattr(linalg.spla, "splu", probe)
        monkeypatch.setattr(fem3d, "box_level", fresh)
        tracemalloc.start()
        try:
            with pytest.raises(Probe):
                CoupledSystem(cli.diagonal_problem(1), n_cells=32)
        finally:
            tracemalloc.stop()
        assert live[0] <= 26e6  # bytes
        assert "dissection_order" not in vars(levels[0].space.mesh)


class TestLevelOrdering:
    """Below n = 32 the LU is that of the level's nested-dissection order with
    the exchange-coupled box dofs and the vessel dofs last, and fills less
    than SuperLU's minimum-degree ordering of the same operator."""

    @pytest.mark.parametrize("problem", [cli.diagonal_problem(1), verify.manufactured_problem()],
                             ids=["diagonal_case1", "manufactured"])
    def test_fill_below_minimum_degree(self, problem):
        system = CoupledSystem(problem, n_cells=16)
        lu = system.factorization._lu
        mmd = linalg.spla.splu(stacked_operator(system), permc_spec="MMD_AT_PLUS_A")
        assert lu.L.nnz + lu.U.nnz <= 0.9 * (mmd.L.nnz + mmd.U.nnz)

    def test_order_groups(self):
        """Dirichlet rows, dissection order, coupled box dofs, vessel dofs."""
        system = CoupledSystem(cli.diagonal_problem(1), n_cells=8)
        order = system._level_order()
        n_box, n_rows = system.fem.n_dofs, system.dirichlet_rows.size
        coupled = np.flatnonzero(np.diff(system.blocks.c_ol.indptr) > 0)
        coupled = coupled[~system.mesh.boundary_vertex[coupled]]
        assert coupled.size > 0
        assert np.array_equal(np.sort(order), np.arange(system.n_dofs))
        interior = system.mesh.dissection_order
        assert np.array_equal(order[:n_rows], system.dirichlet_rows)
        assert np.array_equal(order[n_rows:n_box - coupled.size], interior[~np.isin(interior, coupled)])
        assert np.array_equal(order[n_box - coupled.size:n_box], coupled)
        assert np.array_equal(order[n_box:], n_box + np.arange(system.dg.n_dofs))


def _run_config_problem():
    """A run configuration with a tanh radius, piecewise permeability, DG
    degree 2 and a box velocity off the vessel axis."""
    return cli.problem_from_config(cli.RunConfig(degree=2, epsilon=0, u=(0.3, -0.2, 0.5),
                                                 **cli.DIAGONAL_CASES[3]))


class TestOperatorComposition:
    """The one-pass build gives, byte for byte, the operator that sparse sums
    of its parts, a stack, the Dirichlet rows' constraint and a permutation
    into the LU's order give; general sums agree to round-off."""

    @pytest.mark.parametrize("problem", [verify.manufactured_problem(), cli.diagonal_problem(1)],
                             ids=["manufactured", "diagonal_case1"])
    def test_matches_general_sums(self, problem):
        system = CoupledSystem(problem, n_cells=8)
        fem, dg, geom, inv_dt = system.fem, system.dg, problem.geometry, 1.0 / system.dt
        area = lambda s: geom.section_area(s)
        blocks = coupling.assemble_coupling(geom, fem, dg)
        top = inv_dt * system.mass3 + (fem3d.assemble_stiffness(fem, problem.kappa)
                                       + fem3d.assemble_convection(fem, problem.velocity)
                                       + blocks.c_oo)
        bottom = inv_dt * dg1d.assemble_mass_weighted(dg, area) + (
            dg1d.assemble_a_lambda(dg, problem.kappa_hat, area, problem.dg)
            + dg1d.assemble_b_lambda(dg, problem.u_hat, area) + blocks.c_ll)
        full = sp.bmat([[top, -blocks.c_ol], [-blocks.c_lo, bottom]], format="csr")
        order = system._level_order()
        general = constrain_rows(full, system.dirichlet_rows).tocsc()[order][:, order]
        general.sum_duplicates()
        operator = system.factorization._matrix
        assert operator.format == "csc" and system.factorization._order is not None
        assert np.array_equal(operator.indptr, general.indptr)
        assert np.array_equal(operator.indices, general.indices)
        assert np.abs(operator.data - general.data).max() <= 1e-15 * np.abs(general.data).max()

    @pytest.mark.parametrize("n_cells", [8, 16])
    @pytest.mark.parametrize("problem", [verify.manufactured_problem(), cli.diagonal_problem(1),
                                         _run_config_problem()],
                             ids=["manufactured", "diagonal_case1", "run_tanh_piecewise"])
    def test_equals_stacked_operator(self, problem, n_cells):
        system = CoupledSystem(problem, n_cells=n_cells)
        expected = stacked_operator(system, system._level_order())
        for name in ("indptr", "indices", "data"):
            a, b = getattr(system.factorization._matrix, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    @pytest.mark.slow
    def test_equals_stacked_operator_at_max_cells(self, monkeypatch):
        """At n = 32 the matrix is in natural order, as SuperLU's minimum
        degree takes it; nothing is factored here."""
        monkeypatch.setattr(linalg.spla, "splu", lambda matrix, **kwargs: None)
        system = CoupledSystem(cli.diagonal_problem(1), n_cells=stepper.MAX_CELLS)
        assert system.factorization._order is None
        expected = stacked_operator(system)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(system.factorization._matrix, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("n_cells", [8, 16])
    def test_one_operator_copy(self, monkeypatch, n_cells):
        """SuperLU is handed the stored matrix itself, not a permuted copy."""
        handed = []

        def splu(matrix, build=linalg.spla.splu, **kwargs):
            handed.append(matrix)
            return build(matrix, **kwargs)

        monkeypatch.setattr(linalg.spla, "splu", splu)
        system = CoupledSystem(verify.manufactured_problem(), n_cells=n_cells)
        assert len(handed) == 1 and handed[0] is system.factorization._matrix

    def test_sparse_objects_per_build(self, monkeypatch):
        """Regression guard on the SciPy sparse objects one build makes
        (manufactured, n = 8; 70 when the blocks were summed, stacked,
        constrained and permuted by SciPy)."""
        spbase = getattr(pytest.importorskip("scipy.sparse._base"), "_spbase", None)
        if spbase is None:
            pytest.skip("scipy.sparse._base._spbase is missing")
        problem = verify.manufactured_problem()
        CoupledSystem(problem, n_cells=8)  # the level and its caches
        made = []

        def counted(self, *args, init=spbase.__init__, **kwargs):
            made.append(type(self).__name__)
            return init(self, *args, **kwargs)

        monkeypatch.setattr(spbase, "__init__", counted)
        CoupledSystem(problem, n_cells=8)
        monkeypatch.undo()
        assert len(made) <= 22, made


class TestGaussRuleCache:
    def test_one_build_computes_each_rule_at_most_once(self, monkeypatch):
        calls = Counter()
        leggauss = dg1d.leggauss

        def counted(n_points):
            calls[n_points] += 1
            return leggauss(n_points)

        monkeypatch.setattr(dg1d, "leggauss", counted)
        dg1d._gauss_rule.cache_clear()
        try:
            CoupledSystem(quiescent_problem(), n_cells=4)
        finally:
            dg1d._gauss_rule.cache_clear()
        assert calls and max(calls.values()) == 1

    def test_rule_is_read_only_and_unchanged(self):
        xi, w = dg1d._gauss_rule(4)
        ref_xi, ref_w = dg1d.leggauss(4)
        assert np.array_equal(xi, ref_xi) and np.array_equal(w, ref_w)
        for a in (xi, w):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestInitialize:
    def test_zero_data(self):
        system = CoupledSystem(quiescent_problem(), n_cells=4)
        state = system.initialize()
        assert np.all(state.c == 0.0) and np.all(state.c_hat == 0.0)
        assert state.t == 0.0 and state.n == 0

    def test_verification_data_is_zero_at_start(self):
        system = CoupledSystem(verify.manufactured_problem(), n_cells=4)
        state = system.initialize()
        assert np.abs(state.c).max() == 0.0
        assert np.abs(state.c_hat).max() < 1e-14


class TestStep:
    def test_zero_fixed_point(self):
        system = CoupledSystem(quiescent_problem(), n_cells=4)
        state = system.initialize()
        for _ in range(3):
            state = system.step(state)
        assert np.abs(state.c).max() == 0.0
        assert np.abs(state.c_hat).max() == 0.0

    def test_deterministic(self):
        s1 = CoupledSystem(verify.manufactured_problem(), n_cells=4)
        s2 = CoupledSystem(verify.manufactured_problem(), n_cells=4)
        a = s1.step(s1.initialize())
        b = s2.step(s2.initialize())
        assert np.array_equal(a.c, b.c)
        assert np.array_equal(a.c_hat, b.c_hat)

    def test_time_shift_invariance(self):
        # time-constant data: the step map does not depend on the step index
        problem = replace(quiescent_problem(dt=0.01), c_in=lambda t: 2.0)
        system = CoupledSystem(problem, n_cells=4)
        state = system.initialize()
        rng = np.random.default_rng(8)
        state.c = rng.standard_normal(system.fem.n_dofs)
        state.c[system.fem.mesh.boundary_vertex] = 0.0
        state.c_hat = rng.standard_normal(system.dg.n_dofs)
        early = system.step(state)
        later_start = type(state)(c=state.c, c_hat=state.c_hat, t=0.05, n=5)
        later = system.step(later_start)
        assert np.array_equal(early.c, later.c)
        assert np.array_equal(early.c_hat, later.c_hat)


class TestRun:
    def test_single_step_horizon(self):
        problem = quiescent_problem(t_end=0.025, dt=0.025)
        system = CoupledSystem(problem, n_cells=4)
        _, report = system.run()
        assert report.n_steps == 1

    @pytest.mark.parametrize("target", [0.5, 0.49])
    def test_snapshot_at_time_between_steps(self, target):
        system = CoupledSystem(quiescent_problem(t_end=0.6, dt=0.0125), n_cells=2)
        _, report = system.run(times=(target,))
        assert [(t, s.n) for t, s in report.snapshots] == [(pytest.approx(0.5), 40)]

    def test_snapshot_at_time_zero_is_initial_state(self):
        system = CoupledSystem(verify.manufactured_problem(), n_cells=2)
        _, report = system.run(times=(0.0, -0.5))  # a time before 0 is reached at once
        start = system.initialize()
        assert len(report.snapshots) == 2
        for t, state in report.snapshots:
            assert t == 0.0 and state.n == 0
            assert np.array_equal(state.c, start.c)
            assert np.array_equal(state.c_hat, start.c_hat)

    def test_one_step_reaching_two_times_gives_two_entries(self):
        system = CoupledSystem(quiescent_problem(t_end=0.6, dt=0.0125), n_cells=2)
        _, report = system.run(times=(0.505, 0.501, 0.505))  # a repeated time counts once
        assert [(t, s.n) for t, s in report.snapshots] == [(pytest.approx(0.5125), 41)] * 2
        assert report.snapshots[0][1] is report.snapshots[1][1]

    def test_time_past_horizon_is_never_reached(self):
        system = CoupledSystem(quiescent_problem(t_end=0.1), n_cells=2)
        _, report = system.run(times=(0.2,))
        assert report.snapshots == []

    def test_energy_trace_and_residuals(self):
        system = CoupledSystem(verify.manufactured_problem(), n_cells=4)
        state, report = system.run()
        assert report.energies.shape == (report.n_steps + 1,)
        assert report.max_residual <= 1e-10
        assert report.wall_time > 0.0

    def test_vessel_mass_decays_after_pulse(self):
        problem = cli.diagonal_problem(1)
        system = CoupledSystem(problem, n_cells=8)
        final, report = system.run(times=(0.2,))
        [(_, early)] = report.snapshots
        final_mass = system.vessel_mass(final)
        assert final_mass > 0.0
        assert final_mass < system.vessel_mass(early)


class TestRelease:
    """A finished march frees its LU, so a caller that keeps a marched system
    while it builds the next holds one factorization at a time."""

    def test_run_frees_the_lu(self):
        system = CoupledSystem(replace(quiescent_problem(), c_in=lambda t: 5.0), n_cells=4)
        lu = weakref.ref(system.factorization)
        state, report = system.run()
        assert lu() is None and report.max_residual <= 1e-10
        with pytest.raises(ReleasedError):
            system.step(state)
        with pytest.raises(ReleasedError):
            system.run()
        assert system.energy(state) == report.energies[-1]  # the mass matrices stay

    def test_failed_march_frees_the_lu(self):
        """README's thin vessel that exits 3: run defaults, radius 1e-3, n = 4."""
        cfg = replace(cli.RunConfig(), n=4, t_end=0.1, radius=1e-3)
        system = CoupledSystem(cli.problem_from_config(cfg), n_cells=cfg.n, n_circle=cfg.n_circ)
        lu = weakref.ref(system.factorization)
        try:
            system.run()
        except SolverError:
            pass
        else:
            pytest.fail("the thin vessel marched")
        assert lu() is None

    def test_sweep_holds_one_factorization(self, monkeypatch):
        """In ``system = CoupledSystem(...); system.run()`` the previous LU is
        dead whenever the next is built."""
        built, alive = [], []

        def factor(matrix, order=None, build=linalg.Factorization):
            alive.extend(ref for ref in built if ref() is not None)
            lu = build(matrix, order=order)
            built.append(weakref.ref(lu))
            return lu

        monkeypatch.setattr(linalg, "Factorization", factor)
        for velocity in ((0, 0, 1), (1, 0, 0), (0, 1, 0)):
            system = CoupledSystem(quiescent_problem(velocity=velocity), n_cells=4)
            system.run()
        assert len(built) == 3 and not alive


class TestEnergy:
    def test_zero_state(self):
        system = CoupledSystem(quiescent_problem(), n_cells=4)
        assert system.energy(system.initialize()) == 0.0

    def test_unit_box_field(self):
        system = CoupledSystem(quiescent_problem(), n_cells=4)
        state = system.initialize()
        state.c = np.ones(system.fem.n_dofs)
        assert abs(system.energy(state) - 1.0) < 1e-12

    @pytest.mark.parametrize("velocity", [(0, 0, 1), (0, 0, 0.0 + 0)])
    def test_zero_source_decay(self, velocity):
        problem = quiescent_problem(t_end=0.25, dt=0.0125, velocity=velocity)
        system = CoupledSystem(problem, n_cells=4)
        rng = np.random.default_rng(11)
        state = system.initialize()
        state.c = rng.standard_normal(system.fem.n_dofs)
        state.c[system.fem.mesh.boundary_vertex] = 0.0
        state.c_hat = rng.standard_normal(system.dg.n_dofs)
        energies = [system.energy(state)]
        for _ in range(20):
            state = system.step(state)
            energies.append(system.energy(state))
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-10)


class TestLinearity:
    def test_scaling_all_data(self):
        alpha = 3.0
        ms = verify.ManufacturedSolution()
        base = verify.manufactured_problem()
        scaled = TransportProblem(
            geometry=base.geometry,
            kappa=base.kappa,
            kappa_hat=base.kappa_hat,
            velocity=base.velocity,
            u_hat=base.u_hat,
            source3=ScalarField3(fn=lambda x, t: alpha * ms.f(x, t)),
            source1=lambda s, t: alpha * ms.f_hat(s, t),
            c_in=lambda t: alpha * ms.c_in(t),
            dirichlet=lambda x, t: alpha * ms.c(x, t),
            t_end=0.1,
            dg=base.dg,
            degree=base.degree,
        )
        base = replace(base, t_end=0.1)
        sys_a = CoupledSystem(base, n_cells=4)
        sys_b = CoupledSystem(scaled, n_cells=4)
        state_a, _ = sys_a.run()
        state_b, _ = sys_b.run()
        scale = np.abs(state_b.c).max()
        assert np.abs(state_b.c - alpha * state_a.c).max() < 1e-9 * scale
        assert np.abs(state_b.c_hat - alpha * state_a.c_hat).max() < 1e-9 * scale


class TestModuleLevelApi:
    def test_functional_wrappers(self):
        # the system's own initialize / step / energy / run, one call each
        system = CoupledSystem(quiescent_problem(t_end=0.05, dt=0.025), n_cells=4)
        state = system.initialize()
        state = system.step(state)
        assert state.n == 1
        assert system.energy(state) == 0.0
        final, report = system.run()
        assert report.n_steps == 2
        assert final.t == pytest.approx(0.05)


class TestHigherDegree:
    def test_quadratic_vessel_space_runs(self):
        from dataclasses import replace

        problem = replace(verify.manufactured_problem(degree=2), t_end=0.1)
        system = CoupledSystem(problem, n_cells=4)
        assert system.dg.n_dofs == 4 * 3
        state, report = system.run()
        assert report.max_residual <= 1e-10
        assert np.all(np.isfinite(state.c_hat))
        ms = verify.ManufacturedSolution()
        l2, _ = verify.error_norms_1d(system.dg, state.c_hat, ms.c_hat, ms.c_hat_ds, state.t)
        # the degree-2 vessel error at this size is dominated by the coarse
        # box field feeding the exchange, but stays small
        assert l2 < 0.05


class TestGeometryGuard:
    def test_tube_outside_box_rejected(self):
        geom = VesselGeometry(
            (0.46, 0, -0.4), (0.46, 0, 0.4), ConstantRadius(0.05), ConstantPermeability(1.0)
        )
        problem = TransportProblem(
            geometry=geom,
            kappa=1.0,
            kappa_hat=1.0,
            velocity=(0.0, 0.0, 1.0),
            u_hat=1.0,
            source3=ScalarField3.zero(),
            source1=None,
            c_in=None,
            dirichlet=None,
            t_end=1.0,
            dg=DgParams(1, 50.0),
        )
        with pytest.raises(GeometryError):
            CoupledSystem(problem, n_cells=4)


class TestSeparableSource:
    def test_manufactured_source_is_sum_of_terms(self):
        ms = verify.ManufacturedSolution()
        source = verify.manufactured_problem().source3
        x = np.random.default_rng(2).uniform(-0.5, 0.5, size=(200, 3))
        for t in (0.0, 0.37, 1.0):
            expected = sum(g * p for g, p in zip(source.times(t), source.parts(x)))
            np.testing.assert_array_equal(ms.f(x, t), expected)
            np.testing.assert_array_equal(source(x, t), expected)

    @pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
    def test_box_load_matches_per_step_assembly(self, t):
        ms = verify.ManufacturedSolution()
        source = verify.manufactured_problem().source3
        fem = fem3d.box_level(4).space
        parts = fem3d.assemble_load(fem, ScalarField3(fn=lambda x, t: source.parts(x), lattice=True), 0.0)
        combined = sum(float(g) * part for g, part in zip(source.times(t), parts))
        plain = fem3d.assemble_load(fem, ScalarField3(fn=ms.f), t)
        assert np.abs(combined - plain).max() <= 1e-13 * np.abs(plain).max()

    def test_run_matches_plain_source(self):
        ms = verify.ManufacturedSolution()
        separable = verify.manufactured_problem()
        plain = replace(separable, source3=ScalarField3(fn=ms.f))
        state_a, _ = CoupledSystem(separable, n_cells=4).run()
        state_b, _ = CoupledSystem(plain, n_cells=4).run()
        for a, b in ((state_a.c, state_b.c), (state_a.c_hat, state_b.c_hat)):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_terms_are_projected_once_per_run(self, monkeypatch):
        problem = replace(verify.manufactured_problem(), t_end=0.1)
        calls = []
        real = fem3d.assemble_load

        def counting(space, f, t, order=4):
            calls.append(t)
            return real(space, f, t, order)

        monkeypatch.setattr(fem3d, "assemble_load", counting)
        system = CoupledSystem(problem, n_cells=4)
        assert calls == []  # built but not marched: nothing projected yet
        _, report = system.run()
        assert report.n_steps == 4
        assert len(calls) == 1  # both parts in one pass

    def test_study_projects_once_per_level(self, monkeypatch):
        calls = []
        real = fem3d.assemble_load

        def counting(space, f, t, order=4):
            calls.append(space.mesh.n)
            return real(space, f, t, order)

        monkeypatch.setattr(fem3d, "assemble_load", counting)
        verify.convergence_study([2, 4])
        assert calls == [2, 4]


class _CountingMatrix:
    """A matrix that counts its products with a vector."""

    def __init__(self, matrix):
        self.matrix, self.products = matrix, 0

    def __matmul__(self, x):
        self.products += 1
        return self.matrix @ x


def _counted(calls, name, fn):
    """fn, counting its calls in ``calls[name]``."""
    def wrapped(*args):
        calls[name] += 1
        return fn(*args)
    return wrapped


def _plain_data_problem():
    """The manufactured problem with its three separable data as plain callables."""
    ms = verify.ManufacturedSolution()
    return replace(verify.manufactured_problem(), source3=ScalarField3(fn=ms.f), source1=ms.f_hat, dirichlet=ms.c)


class TestSeparableData:
    """The manufactured trace and vessel source are separable too: their parts
    are evaluated once per system, and each step only recombines them."""

    def test_march_equals_reference_with_plain_callables(self):
        state, _ = CoupledSystem(verify.manufactured_problem(), n_cells=8).run()
        ref, _ = reference_march(CoupledSystem(_plain_data_problem(), n_cells=8))
        for a, b in ((state.c, ref.c), (state.c_hat, ref.c_hat)):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_parts_evaluated_once_per_run(self):
        calls = Counter()
        problem = verify.manufactured_problem()
        problem = replace(problem, **{
            name: ScalarField3.separable(datum.times, _counted(calls, name, datum.parts))
            for name, datum in (("source1", problem.source1), ("dirichlet", problem.dirichlet))})
        system = CoupledSystem(problem, n_cells=4)
        assert not calls  # built but not marched: nothing evaluated yet
        _, report = system.run()
        assert report.n_steps == 40
        assert calls == {"source1": 1, "dirichlet": 1}

    def test_plain_callables_evaluated_every_step(self):
        ms, calls = verify.ManufacturedSolution(), Counter()
        problem = replace(verify.manufactured_problem(), source1=_counted(calls, "source1", ms.f_hat),
                          dirichlet=_counted(calls, "dirichlet", ms.c))
        _, report = CoupledSystem(problem, n_cells=4).run()
        assert calls == {"source1": report.n_steps, "dirichlet": report.n_steps}


class TestReferenceLoop:
    """The march forms only what changes with t, with the reference formula's
    operands in the reference formula's order: every output is bitwise equal."""

    @pytest.mark.parametrize("problem", [
        verify.manufactured_problem(), cli.diagonal_problem(1), _run_config_problem(),
        _plain_data_problem(),
    ], ids=["manufactured", "diagonal_case1", "run_tanh_piecewise", "manufactured_plain_callables"])
    def test_bitwise_equal_to_reference_loop(self, problem):
        system = CoupledSystem(problem, n_cells=8)
        factorization = system.factorization  # run frees it
        ref_state, ref_energies = reference_march(system)
        state, report = system.run()
        n = report.n_steps
        residuals = factorization.residuals
        assert len(residuals) == 2 * n
        assert residuals[:n] == residuals[n:]
        assert np.array_equal(report.energies, ref_energies)
        assert np.array_equal(state.c, ref_state.c)
        assert np.array_equal(state.c_hat, ref_state.c_hat)

    def test_one_box_mass_product_per_state(self):
        system = CoupledSystem(verify.manufactured_problem(), n_cells=4)
        system.mass3 = _CountingMatrix(system.mass3)
        _, report = system.run()
        assert system.mass3.products == report.n_steps + 1

    def test_public_step_and_energy_match_the_march(self):
        final, report = CoupledSystem(cli.diagonal_problem(1), n_cells=4).run()
        system = CoupledSystem(cli.diagonal_problem(1), n_cells=4)
        state = system.initialize()
        energies = [system.energy(state)]
        for _ in range(system.n_steps):
            state = system.step(state)
            energies.append(system.energy(state))
        assert np.array_equal(energies, report.energies)
        assert np.array_equal(state.c_hat, final.c_hat)


class TestStepLimit:
    """A march longer than MAX_STEPS is refused before any mesh exists."""

    @pytest.mark.parametrize("t_end, dt", [(1e300, 0.1), (1e300, 1e-10), (1e9, None),
                                           (0.1 * (stepper.MAX_STEPS + 1), 0.1)])
    def test_refused(self, t_end, dt, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a mesh was built for a refused step count")

        monkeypatch.setattr(fem3d, "box_level", refuse)
        with pytest.raises(ConfigError, match="exceeds the limit"):
            CoupledSystem(quiescent_problem(t_end=t_end, dt=dt), n_cells=2)

    def test_limit_is_accepted(self):
        # builds the n = 2 system only; nothing is marched
        system = CoupledSystem(quiescent_problem(t_end=stepper.MAX_STEPS * 0.05, dt=0.05), n_cells=2)
        assert system.n_steps == stepper.MAX_STEPS


class TestVesselLoad:
    @staticmethod
    def _per_element_load(dg, fn, t):
        """Reference: one basis evaluation and one source call per element."""
        pts, wts = dg.gauss_points(dg.degree + 2)
        out = np.zeros(dg.n_dofs)
        for e in range(dg.partition.n_elements):
            vals, _ = dg.basis_at(e, pts[e])
            out[dg.element_dofs(e)] = vals @ (wts[e] * np.asarray(fn(pts[e], t)))
        return out

    @pytest.mark.parametrize("degree", [1, 2])
    def test_matches_element_loop(self, degree):
        ms = verify.ManufacturedSolution()
        system = CoupledSystem(verify.manufactured_problem(degree=degree), n_cells=7)
        dg = system.dg
        for t in (0.0, 0.37, 1.0):
            ref = self._per_element_load(dg, ms.f_hat, t)
            assert np.abs(dg1d.assemble_load(dg, ms.f_hat, t, dg.degree + 2) - ref).max() <= 1e-14 * max(
                1.0, np.abs(ref).max()
            )

    def test_scalar_source(self):
        dg = CoupledSystem(quiescent_problem(), n_cells=3).dg
        fn = lambda s, t: 2.0
        ref = self._per_element_load(dg, fn, 0.0)
        assert np.abs(dg1d.assemble_load(dg, fn, 0.0, dg.degree + 2) - ref).max() < 1e-15


class TestTimeGrid:
    def test_step_shortened_to_land_on_horizon(self):
        system = CoupledSystem(quiescent_problem(t_end=1.0, dt=0.3), n_cells=2)
        state, report = system.run()
        assert report.n_steps == 4
        assert system.dt == 0.25
        assert state.t == 1.0

    def test_uneven_division_ends_exactly_at_horizon(self):
        system = CoupledSystem(quiescent_problem(t_end=1.0, dt=1.0 / 49), n_cells=2)
        state, report = system.run()
        assert report.n_steps == 49
        assert state.t == 1.0

    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("t_end", [1.0, 0.1])
    def test_default_step_unchanged_on_power_of_two_meshes(self, n, t_end):
        system = CoupledSystem(quiescent_problem(t_end=t_end), n_cells=n)
        assert system.dt == 0.1 * (1.0 / n)
