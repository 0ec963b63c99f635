import gc
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from vesselfem import fem3d, stepper, verify
from vesselfem.errors import ConfigError, VerificationError
from vesselfem.mesh3d import FemSpace, build_box_mesh
from vesselfem.dg1d import DgSpace, Partition1D
from vesselfem.stepper import CoupledSystem

from _oracles import manufactured_f0, manufactured_f1

CENTERED = ((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))


@pytest.fixture(scope="module")
def ms():
    return verify.ManufacturedSolution()


class TestSourceParts:
    """The fused space parts of the bulk source equal the closed forms as
    first written, so the loads, the tables and the source gate do not move."""

    def test_parts_equal_the_closed_forms(self, ms):
        x = np.random.default_rng(4).uniform(-0.5, 0.5, size=(5000, 3))
        x[:10, :2] = 0.0  # on the axis, inside the vessel
        p0, p1 = ms.f_parts(x)
        assert np.array_equal(p0, manufactured_f0(x))
        assert np.array_equal(p1, manufactured_f1(x))

    def test_source_gate_residuals_unchanged(self):
        class ClosedForms(verify.ManufacturedSolution):
            def f(self, x, t):
                return manufactured_f0(x) + t * manufactured_f1(x)

        assert verify.verify_sources() == verify.verify_sources(ClosedForms())


class TestExactPair:
    def test_box_field_at_start(self, ms):
        # t -> 0 limit inside the vessel: f = (sin(pi z) + 2) / 2
        pts = np.array([[0.0, 0.0, 0.3], [0.01, -0.02, -0.4]])
        f0 = ms.f(pts, 0.0)
        expected = 0.5 * (np.sin(np.pi * pts[:, 2]) + 2.0)
        assert np.allclose(f0, expected, atol=1e-15)

    def test_profile_continuous_at_wall(self, ms):
        R = ms.radius
        for d in (1e-6, 1e-9):
            assert abs(ms.w(R + d) - 1.0) < 2e-5
        assert ms.w(R) == 1.0
        z = 0.2
        t = 0.7
        inner = ms.c(np.array([[R - 1e-12, 0, z]]), t)
        outer = ms.c(np.array([[R + 1e-12, 0, z]]), t)
        assert abs(inner - outer) < 1e-10

    def test_wall_flux_balance(self, ms):
        # the conormal jump of c at the wall equals gamma (cbar - chat):
        # both sides are -chat/2, which is what removes the line source
        R = ms.radius
        t, z = 0.6, 0.15
        chat = float(ms.c_hat_of_z(z, t))
        d = 1e-7
        outer_slope = float(
            (ms.c(np.array([[R + 2 * d, 0, z]]), t) - ms.c(np.array([[R + d, 0, z]]), t))[0]
        ) / d
        assert abs(outer_slope - (-0.5 * chat)) < 1e-4
        theta = 2 * np.pi * np.arange(32) / 32
        ring = np.stack([R * np.cos(theta), R * np.sin(theta), np.full(32, z)], axis=1)
        cbar = float(np.mean(ms.c(ring, t)))
        assert abs(cbar - 0.5 * chat) < 1e-14
        assert abs((cbar - chat) - (-0.5 * chat)) < 1e-14

    def test_inflow_value(self, ms):
        for t in (0.0, 0.3, 1.0):
            assert ms.c_in(t) == t

    def test_outflow_condition(self, ms):
        # zero diffusive flux at the outlet: d chat/ds (L) = 0
        assert abs(ms.c_hat_ds(1.0, 0.8)) < 1e-15


class TestSourceGate:
    def test_residuals_within_tolerance(self):
        res = verify.verify_sources(n_points=300, seed=1)
        assert res["f"] <= verify.F_RESIDUAL_TOL
        assert res["f_hat"] <= verify.FHAT_RESIDUAL_TOL
        assert res["c_in"] == 0.0

    def test_gate_raises_on_corrupted_source(self, ms):
        class Corrupted(verify.ManufacturedSolution):
            def f_hat(self, s, t):
                return super().f_hat(s, t) + 0.01

        with pytest.raises(VerificationError):
            verify.source_gate(ms=Corrupted(), n_points=100)


class TestErrorNorms:
    def test_zero_fields(self):
        fem = FemSpace(build_box_mesh(*CENTERED, 3))
        l2, grad = verify.error_norms_3d(fem, np.zeros(fem.n_dofs), None, None, 0.0)
        assert l2 == 0.0 and grad == 0.0
        dg = DgSpace(Partition1D.uniform(1.0, 4), 1)
        l2, broken = verify.error_norms_1d(dg, np.zeros(dg.n_dofs), None, None, 0.0)
        assert l2 == 0.0 and broken == 0.0

    def test_interpolant_errors_decrease(self, ms):
        prev = None
        for n in (4, 8):
            fem = FemSpace(build_box_mesh(*CENTERED, n))
            interp = ms.c(fem.dof_points, 1.0)
            l2, grad = verify.error_norms_3d(fem, interp, ms.c, ms.grad_c, 1.0)
            assert l2 > 0 and grad > 0
            if prev is not None:
                assert l2 < prev[0] and grad < prev[1]
            prev = (l2, grad)

    def test_norm_of_known_function(self):
        # ||z||_{L2} on the centered unit cube = 1/sqrt(12)
        fem = FemSpace(build_box_mesh(*CENTERED, 4))
        l2, _ = verify.error_norms_3d(fem, fem.dof_points[:, 2], None, None, 0.0)
        assert l2 == pytest.approx(1.0 / math.sqrt(12.0), rel=1e-12)


class TestErrorNormMemory:
    """Quadrature blocks bound the temporaries of the error norms at n = 32."""

    LIMIT = 32e6  # bytes; one block of points with every per-point temporary

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_cross_error_3d(self):
        coarse, fine = (FemSpace(build_box_mesh(*CENTERED, n)) for n in (16, 32))
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(coarse.n_dofs), rng.standard_normal(fine.n_dofs)
        assert self._peak(lambda: verify.cross_error_3d(coarse, a, fine, b)) < self.LIMIT

    def test_error_norms_3d(self, ms):
        fem = FemSpace(build_box_mesh(*CENTERED, 32))
        c = np.random.default_rng(1).standard_normal(fem.n_dofs)
        assert self._peak(lambda: verify.error_norms_3d(fem, c, ms.c, ms.grad_c, 1.0)) < self.LIMIT


class TestRates:
    def test_pure_rate_function(self):
        report = verify.ConvergenceReport(levels=[4, 8, 16], l2_3=[1.0, 0.25], grad3=[8.0, 4.0, 1.0])
        assert report.rates("l2_3") == [2.0]
        assert report.rates("grad3") == pytest.approx([1.0, 2.0])

    def test_report_requires_increasing_levels(self):
        with pytest.raises(ValueError):
            verify.ConvergenceReport(levels=[8, 4])


class TestTimeRate:
    """The time half of the error bound: backward Euler converges at first
    order in dt, in the box mass norm and the vessel area-weighted norm."""

    def test_first_order_in_dt(self):
        problem = verify.diagonal_problem(1)

        def final(dt):
            system = CoupledSystem(replace(problem, dt=dt), n_cells=8)
            state, _ = system.run()
            return system, state

        system, ref = final(0.1 / 128)
        errors = []
        for dt in (0.1, 0.05, 0.025, 0.0125):
            _, state = final(dt)
            e3, e1 = state.c - ref.c, state.c_hat - ref.c_hat
            errors.append((math.sqrt(e3 @ (system.mass3 @ e3)), math.sqrt(e1 @ (system.mass1 @ e1))))
        rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))  # (3, box and vessel)
        assert np.all((0.9 <= rates) & (rates <= 1.2)), rates


class TestAveragingConsistency:
    def test_gap_decays(self, ms):
        # the discrete circle average of the interpolated exact field tends to
        # chat / 2 along the vessel
        gaps = []
        for n in (8, 16):
            system = CoupledSystem(verify.manufactured_problem(), n_cells=n)
            geom = system.problem.geometry
            c_nodal = ms.c(system.fem.dof_points, 1.0)
            ss = np.linspace(0.05, geom.length - 0.05, 21)
            gaps.append(max(
                abs(system.fem.evaluate(c_nodal, geom.circle_points(s, system.n_circle)[0]).mean()
                    - 0.5 * float(ms.c_hat(s, 1.0)))
                for s in ss
            ))
        assert gaps[1] < 0.65 * gaps[0]


class TestDiagonalSetup:
    def test_case_parameters(self):
        g1 = verify.diagonal_geometry(1)
        assert g1.radius_at(0.3) == 0.05
        assert g1.gamma_at(0.3) == 0.1
        g2 = verify.diagonal_geometry(2)
        assert abs(g2.radius_at(g2.length / 2) - 0.065) < 1e-15
        g3 = verify.diagonal_geometry(3)
        L = g3.length
        assert g3.gamma_at(0.1 * L) == 0.0
        assert g3.gamma_at(0.5 * L) == 0.05
        assert g3.gamma_at(0.9 * L) == 0.1
        with pytest.raises(ValueError):
            verify.diagonal_geometry(4)

    def test_pulse_inflow(self):
        problem = verify.diagonal_problem(1)
        assert problem.c_in(0.05) == 5.0
        assert problem.c_in(0.1) == 5.0
        assert problem.c_in(0.1000001) == 0.0

    def test_velocity_along_tangent(self):
        problem = verify.diagonal_problem(2)
        u = problem.velocity(np.zeros((1, 3)))[0]
        assert np.allclose(u, problem.geometry.tangent, atol=1e-15)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-15


class TestCrossErrors:
    def test_identical_fields_zero(self):
        fem = FemSpace(build_box_mesh(*CENTERED, 4))
        rng = np.random.default_rng(0)
        dofs = rng.standard_normal(fem.n_dofs)
        assert verify.cross_error_3d(fem, dofs, fem, dofs) < 1e-13
        dg = DgSpace(Partition1D.uniform(1.0, 4), 1)
        d1 = rng.standard_normal(dg.n_dofs)
        assert verify.cross_error_1d(dg, d1, dg, d1) < 1e-14

    def test_known_difference(self):
        fem = FemSpace(build_box_mesh(*CENTERED, 4))
        a = np.zeros(fem.n_dofs)
        b = np.ones(fem.n_dofs)
        assert verify.cross_error_3d(fem, a, fem, b) == pytest.approx(1.0, rel=1e-12)

    def test_fine_level_must_exceed_coarse(self):
        with pytest.raises(ValueError):
            verify.self_convergence(1, coarse_levels=(4, 8), fine_n=8)


class TestStudySmoke:
    def test_two_level_structure(self):
        report = verify.convergence_study((4, 8))
        assert report.levels == [4, 8]
        assert report.h_labels == [0.25, 0.125]
        assert len(report.grad3) == 2
        assert len(report.rates("grad3")) == 1
        assert report.max_residual <= 1e-10
        assert 0.1 < report.grad3[0] < 0.5
        assert report.l2_3[1] < report.l2_3[0]

    def test_output_level_is_the_finest_final_state(self):
        report = verify.convergence_study((2, 4))
        state, _ = CoupledSystem(verify.manufactured_problem(), n_cells=4).run()
        assert report.mesh.n == 4 and report.dg.partition.n_elements == 4
        [(t, snap)] = report.snapshots
        assert t == state.t == 1.0
        assert np.array_equal(snap.c, state.c)
        assert np.array_equal(snap.c_hat, state.c_hat)

    def test_self_convergence_output_level_is_the_reference(self):
        report = verify.self_convergence(1, coarse_levels=(2,), fine_n=4, snapshot_times=(0.5, 1.0))
        _, run_report = CoupledSystem(verify.diagonal_problem(1), n_cells=4).run(times=(0.5, 1.0))
        assert report.mesh.n == 4 and report.dg.partition.n_elements == 4
        assert [t for t, _ in report.snapshots] == [t for t, _ in run_report.snapshots]
        for (_, a), (_, b) in zip(report.snapshots, run_report.snapshots):
            assert np.array_equal(a.c, b.c) and np.array_equal(a.c_hat, b.c_hat)


class TestStudyInputRefused:
    """A study refuses its inputs before the source gate and before any mesh."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started for a refused study")

        monkeypatch.setattr(fem3d, "box_level", refuse)
        monkeypatch.setattr(verify, "source_gate", refuse)

    def test_convergence_level_beyond_solver(self):
        with pytest.raises(ConfigError, match="direct-solver memory limit"):
            verify.convergence_study([4, 64])

    def test_convergence_levels_out_of_order(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            verify.convergence_study([8, 4])

    def test_self_convergence_levels_out_of_order(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            verify.self_convergence(1, (8, 4), fine_n=16)

    @pytest.mark.parametrize("case", [0, 4])
    def test_unknown_case(self, case):
        with pytest.raises(ConfigError, match="case must be 1, 2 or 3"):
            verify.self_convergence(case, (4,), fine_n=8)


class TestOneSystemAlive:
    """A study builds a level only once every earlier system, and with it
    that system's LU, is freed."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        init = stepper.CoupledSystem.__init__

        def tracked(system, *args, **kwargs):
            gc.collect()
            alive = [ref for ref in built if ref() is not None]
            assert not alive, f"{len(alive)} earlier system(s) alive at a new build"
            init(system, *args, **kwargs)
            built.append(weakref.ref(system))

        monkeypatch.setattr(stepper.CoupledSystem, "__init__", tracked)
        return built

    def test_convergence_study(self, builds):
        verify.convergence_study([4, 8])
        assert len(builds) == 2

    def test_self_convergence(self, builds):
        verify.self_convergence(1, (4,), fine_n=8)
        assert len(builds) == 2
