import math
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from vesselfem import coupling, dg1d, fem3d, linalg, stepper, verify
from vesselfem.dg1d import DgParams
from vesselfem.errors import ConfigError, GeometryError
from vesselfem.fem3d import ScalarField3, VectorField3
from vesselfem.geometry import ConstantPermeability, ConstantRadius, VesselGeometry
from vesselfem.stepper import CoupledSystem, TransportProblem

from _oracles import reference_march


def quiescent_problem(t_end=0.1, dt=None, velocity=(0, 0, 1)):
    """Zero data on the vertical vessel; used for decay/fixed-point checks."""
    geom = VesselGeometry(
        (0, 0, -0.5), (0, 0, 0.5), ConstantRadius(0.05), ConstantPermeability(1.0)
    )
    return TransportProblem(
        geometry=geom,
        kappa=ScalarField3.constant(1.0),
        kappa_hat=lambda s: np.broadcast_to(1.0, np.shape(s)),
        velocity=VectorField3.constant(velocity),
        u_hat=1.0,
        source3=ScalarField3.zero(),
        source1=None,
        c_in=None,
        dirichlet=None,
        c0=None,
        c0_hat=None,
        t_end=t_end,
        dg=DgParams(1, 50.0),
        degree=1,
        dt=dt,
    )


class TestInputRefused:
    """The library refuses inadmissible data itself, and a level before any mesh."""

    @pytest.mark.parametrize("name, value", [("dt", math.nan), ("t_end", math.nan),
                                             ("t_end", math.inf), ("u_hat", math.nan),
                                             ("degree", 0)])
    def test_problem(self, name, value):
        with pytest.raises(ConfigError):
            replace(quiescent_problem(), **{name: value})

    @pytest.mark.parametrize("n_cells, n_circle", [(64, 16), (1, 16), (4, 3)])
    def test_level(self, monkeypatch, n_cells, n_circle):
        def refuse(*args, **kwargs):
            raise AssertionError("a mesh was built for a refused level")

        monkeypatch.setattr(fem3d, "box_level", refuse)
        with pytest.raises(ConfigError):
            CoupledSystem(quiescent_problem(), n_cells=n_cells, n_circle=n_circle)


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
        problem = replace(quiescent_problem(t_end=0.05), c_in=lambda t: 5.0,
                          c0=lambda x: 1.0 + x[:, 0] * x[:, 2])
        first = CoupledSystem(problem, n_cells=4)
        op = first.operator
        before = [op.indptr.copy(), op.indices.copy(), op.data.copy()]
        state, _ = first.run()
        other = replace(
            problem,
            geometry=VesselGeometry((-0.3, -0.3, -0.3), (0.3, 0.2, 0.3),
                                    ConstantRadius(0.04), ConstantPermeability(0.5)),
            velocity=VectorField3.constant((0.3, -0.2, 0.5)),
            kappa=ScalarField3.constant(2.5),
        )
        CoupledSystem(other, n_cells=4).run()
        for a, b in zip(before, [op.indptr, op.indices, op.data]):
            assert np.array_equal(a, b)
        again, _ = first.run()
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

        def factor(matrix, build=linalg.Factorization):
            alive.extend(ref for ref in parts if ref() is not None)
            return build(matrix)

        monkeypatch.setattr(linalg, "Factorization", factor)
        CoupledSystem(quiescent_problem(), n_cells=4)
        assert len(parts) == 2 and not alive


class TestFactorizationStart:
    """What is alive when the n = 32 factorization of diagonal case 1 starts:
    the box level, the exchange and vessel blocks and one CSC operator."""

    def test_live_set_at_splu(self, monkeypatch):
        class Probe(Exception):
            pass

        live = []

        def probe(matrix, **kwargs):
            live.append(tracemalloc.get_traced_memory()[0])
            raise Probe  # nothing is factored

        monkeypatch.setattr(linalg.spla, "splu", probe)
        monkeypatch.setattr(fem3d, "box_level", fem3d.box_level.__wrapped__)  # level built afresh
        tracemalloc.start()
        try:
            with pytest.raises(Probe):
                CoupledSystem(verify.diagonal_problem(1), n_cells=32)
        finally:
            tracemalloc.stop()
        assert live[0] <= 26e6  # bytes


class TestOperatorComposition:
    """The box block summed on the mesh pattern leaves the operator's pattern
    as general sparse sums of its seven parts give it, and its entries to
    round-off."""

    @pytest.mark.parametrize("problem", [verify.manufactured_problem(), verify.diagonal_problem(1)],
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
        general = fem3d.constrain_rows(full, system.dirichlet_rows).tocsc()
        operator = system.operator
        assert operator.format == "csc" and system.factorization._matrix is operator
        assert np.array_equal(operator.indptr, general.indptr)
        assert np.array_equal(operator.indices, general.indices)
        assert np.abs(operator.data - general.data).max() <= 1e-15 * np.abs(general.data).max()

    @pytest.mark.parametrize("problem", [verify.manufactured_problem(), verify.diagonal_problem(1)],
                             ids=["manufactured", "diagonal_case1"])
    def test_rows_constrained_before_the_stack(self, problem):
        """Constraining the Dirichlet rows of [box, -c_ol] before a CSC stack
        gives bit for bit the operator of constraining the stacked CSR matrix."""
        system = CoupledSystem(problem, n_cells=8)
        dg, area, inv_dt = system.dg, system.problem.geometry.section_area, 1.0 / system.dt
        box = fem3d.box_block(fem3d.box_level(8), inv_dt, problem.kappa, problem.velocity)
        bottom = inv_dt * system.mass1 + (dg1d.assemble_a_lambda(dg, problem.kappa_hat, area, problem.dg)
                                          + dg1d.assemble_b_lambda(dg, problem.u_hat, area)
                                          + system.blocks.c_ll)
        full = sp.bmat([[box + system.blocks.c_oo, -system.blocks.c_ol],
                        [-system.blocks.c_lo, bottom]], format="csr")
        stacked_then_constrained = fem3d.constrain_rows(full, system.dirichlet_rows).tocsc()
        for name in ("indptr", "indices", "data"):
            a, b = getattr(system.operator, name), getattr(stacked_then_constrained, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_large_variable_velocity_warns(self):
        velocity = VectorField3(
            fn=lambda x, t: np.stack([40 + x[:, 0], 0 * x[:, 0], 0 * x[:, 0]], axis=1),
            time_constant=True,
        )
        with pytest.warns(UserWarning, match="diffusion-dominance"):
            CoupledSystem(replace(quiescent_problem(), velocity=velocity), n_cells=4)


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

    def test_affine_exact(self):
        problem = replace(
            quiescent_problem(), c0=lambda x: 1.0 + x[:, 2], c0_hat=lambda s: 2.0 * s
        )
        system = CoupledSystem(problem, n_cells=4)
        state = system.initialize()
        assert np.abs(state.c - (1.0 + system.fem.dof_points[:, 2])).max() < 1e-14
        ss = np.linspace(0, 1, 33)
        assert np.abs(system.dg.evaluate(state.c_hat, ss) - 2.0 * ss).max() < 1e-12

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
        state.c[system.fem.dirichlet_mask] = 0.0
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
        problem = verify.diagonal_problem(1)
        system = CoupledSystem(problem, n_cells=8)
        final, report = system.run(times=(0.2,))
        [(_, early)] = report.snapshots
        final_mass = system.vessel_mass(final)
        assert final_mass > 0.0
        assert final_mass < system.vessel_mass(early)


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
        state.c[system.fem.dirichlet_mask] = 0.0
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
            c0=lambda x: alpha * ms.c(x, 0.0),
            c0_hat=lambda s: alpha * ms.c_hat(s, 0.0),
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
            kappa=ScalarField3.constant(1.0),
            kappa_hat=lambda s: np.broadcast_to(1.0, np.shape(s)),
            velocity=VectorField3.constant((0, 0, 1)),
            u_hat=1.0,
            source3=ScalarField3.zero(),
            source1=None,
            c_in=None,
            dirichlet=None,
            c0=None,
            c0_hat=None,
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
        system = CoupledSystem(verify.manufactured_problem(), n_cells=4)
        plain = fem3d.assemble_load(system.fem, ScalarField3(fn=ms.f), t)
        assert np.abs(system._load3(t) - plain).max() <= 1e-13 * np.abs(plain).max()

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


class TestReferenceLoop:
    """The march forms only what changes with t, with the reference formula's
    operands in the reference formula's order: every output is bitwise equal."""

    @pytest.mark.parametrize("problem", [verify.manufactured_problem(), verify.diagonal_problem(1)],
                             ids=["manufactured", "diagonal_case1"])
    def test_bitwise_equal_to_reference_loop(self, problem):
        system = CoupledSystem(problem, n_cells=8)
        state, report = system.run()
        ref_state, ref_energies = reference_march(system)
        n = report.n_steps
        residuals = system.factorization.residuals
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
        system = CoupledSystem(verify.diagonal_problem(1), n_cells=4)
        final, report = system.run()
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
        for t in (0.0, 0.37, 1.0):
            ref = self._per_element_load(system.dg, ms.f_hat, t)
            assert np.abs(system._load1(ms.f_hat, t) - ref).max() <= 1e-14 * max(
                1.0, np.abs(ref).max()
            )

    def test_scalar_source(self):
        system = CoupledSystem(quiescent_problem(), n_cells=3)
        fn = lambda s, t: 2.0
        ref = self._per_element_load(system.dg, fn, 0.0)
        assert np.abs(system._load1(fn, 0.0) - ref).max() < 1e-15


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
