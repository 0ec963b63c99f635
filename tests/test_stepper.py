from dataclasses import replace

import numpy as np
import pytest

from vesselfem import fem3d, verify
from vesselfem.dg1d import DgParams
from vesselfem.errors import GeometryError
from vesselfem.fem3d import ScalarField3, VectorField3
from vesselfem.geometry import ConstantPermeability, ConstantRadius, VesselGeometry
from vesselfem.stepper import CoupledSystem, Observer, TransportProblem


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

    def test_observer_fires_at_configured_time(self):
        problem = quiescent_problem(t_end=0.6, dt=0.0125)
        system = CoupledSystem(problem, n_cells=2)
        hits = []
        obs = Observer(times=(0.5,), fn=lambda n, t, s: hits.append((n, t)))
        system.run([obs])
        assert hits == [(40, pytest.approx(0.5))]

    def test_energy_trace_and_residuals(self):
        system = CoupledSystem(verify.manufactured_problem(), n_cells=4)
        state, report = system.run()
        assert report.energies.shape == (report.n_steps + 1,)
        assert report.max_residual <= 1e-10
        assert report.wall_time > 0.0

    def test_vessel_mass_decays_after_pulse(self):
        problem = verify.diagonal_problem(1)
        system = CoupledSystem(problem, n_cells=8)
        masses = []
        obs = Observer(times=(0.2,), fn=lambda n, t, s: masses.append(system.vessel_mass(s)))
        final, _ = system.run([obs])
        final_mass = system.vessel_mass(final)
        assert final_mass > 0.0
        assert final_mass < masses[0]


class TestEnergy:
    def test_zero_state(self):
        system = CoupledSystem(quiescent_problem(), n_cells=4)
        assert system.energy(system.initialize()) == 0.0

    def test_unit_box_field(self):
        system = CoupledSystem(quiescent_problem(), n_cells=4)
        state = system.initialize()
        state.c = np.ones(system.fem.n_dofs)
        assert abs(system.energy(state) - 1.0) < 1e-12

    def test_lower_bound_below_energy(self):
        system = CoupledSystem(quiescent_problem(), n_cells=4)
        rng = np.random.default_rng(3)
        state = system.initialize()
        state.c = rng.standard_normal(system.fem.n_dofs)
        state.c_hat = rng.standard_normal(system.dg.n_dofs)
        lower = system.energy_lower_bound(state)
        assert 0.0 < lower <= system.energy(state) + 1e-15

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
        from vesselfem import stepper

        system = stepper.build_system(quiescent_problem(t_end=0.05, dt=0.025), n_cells=4)
        state = stepper.initialize(system)
        state = stepper.step(system, state)
        assert state.n == 1
        assert stepper.energy(system, state) == 0.0
        final, report = stepper.run(system)
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
        terms = verify.manufactured_problem().source3.terms
        x = np.random.default_rng(2).uniform(-0.5, 0.5, size=(200, 3))
        for t in (0.0, 0.37, 1.0):
            expected = sum(g(t) * fk(x) for g, fk in terms)
            np.testing.assert_array_equal(ms.f(x, t), expected)

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
        assert len(calls) == len(problem.source3.terms)


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
        system = CoupledSystem(verify.manufactured_problem(degree=degree), n_cells=4, n_line=7)
        for t in (0.0, 0.37, 1.0):
            ref = self._per_element_load(system.dg, ms.f_hat, t)
            assert np.abs(system._load1(ms.f_hat, t) - ref).max() <= 1e-14 * max(
                1.0, np.abs(ref).max()
            )

    def test_scalar_source(self):
        system = CoupledSystem(quiescent_problem(), n_cells=2, n_line=3)
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
