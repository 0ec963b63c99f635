import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from vesselfem import cli, coupling, fem3d, stepper, verify
from vesselfem.errors import ConfigError, VerificationError
from vesselfem.fem3d import ScalarField3
from vesselfem.geometry import ConstantPermeability, ConstantRadius, VesselGeometry
from vesselfem.mesh3d import FemSpace, build_box_mesh
from vesselfem.dg1d import DgSpace, Partition1D
from vesselfem.stepper import CoupledSystem

from _oracles import batched_verify_sources, error_norms_3d_off_axis, manufactured_f0, manufactured_f1
from _oracles import smooth_box, smooth_box_and_grad, smooth_box_parts, smooth_coupled_problem, tracemalloc_peak
from _oracles import diagonal_problem as oracle_diagonal_problem

CENTERED = ((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))


@pytest.fixture(scope="module")
def ms():
    return verify.ManufacturedSolution()


class TestSourceParts:
    """The fused space parts of the bulk source equal the closed forms as
    first written, so the loads, the tables and the source gate do not move."""

    def test_parts_equal_the_closed_forms(self, ms):
        x = np.random.default_rng(4).uniform(-0.5, 0.5, size=(3, 5000))
        x[:2, :10] = 0.0  # on the axis, inside the vessel
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
        f0 = ms.f(pts.T, 0.0)
        expected = 0.5 * (np.sin(np.pi * pts[:, 2]) + 2.0)
        assert np.allclose(f0, expected, atol=1e-15)

    def test_profile_continuous_at_wall(self, ms):
        R = ms.radius
        for d in (1e-6, 1e-9):
            assert abs(ms.w(R + d) - 1.0) < 2e-5
        assert ms.w(R) == 1.0
        z = 0.2
        t = 0.7
        inner = ms.c((R - 1e-12, 0.0, z), t)
        outer = ms.c((R + 1e-12, 0.0, z), t)
        assert abs(inner - outer) < 1e-10

    def test_wall_flux_balance(self, ms):
        # the conormal jump of c at the wall equals gamma (cbar - chat):
        # both sides are -chat/2, which is what removes the line source
        R = ms.radius
        t, z = 0.6, 0.15
        chat = float(ms.c_hat(z + 0.5, t))
        d = 1e-7
        outer_slope = float(ms.c((R + 2 * d, 0.0, z), t) - ms.c((R + d, 0.0, z), t)) / d
        assert abs(outer_slope - (-0.5 * chat)) < 1e-4
        theta = 2 * np.pi * np.arange(32) / 32
        ring = (R * np.cos(theta), R * np.sin(theta), z)
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

    @pytest.mark.parametrize("kwargs", [{}, {"n_points": 300, "seed": 1},
                                        {"ms": verify.ManufacturedSolution(phi=np.exp, phi_dt=np.exp)}],
                             ids=["default", "300-points-seed-1", "exp-time-factor"])
    def test_one_pass_equals_batched(self, kwargs):
        """All points in one pass, each at its own time sample, give the
        residuals of one batch per time sample exactly."""
        assert verify.verify_sources(**kwargs) == batched_verify_sources(**kwargs)

    def test_exponential_time_factor_passes(self):
        res = verify.source_gate(ms=verify.ManufacturedSolution(phi=np.exp, phi_dt=np.exp), n_points=300)
        assert res["f"] <= verify.F_RESIDUAL_TOL and res["f_hat"] <= verify.FHAT_RESIDUAL_TOL

    def test_gate_raises_on_wrong_time_derivative(self):
        with pytest.raises(VerificationError):
            verify.source_gate(ms=verify.ManufacturedSolution(phi=np.exp, phi_dt=lambda t: 1.0), n_points=100)

    def test_gate_raises_on_corrupted_source(self, ms):
        class Corrupted(verify.ManufacturedSolution):
            def f_hat(self, s, t):
                return super().f_hat(s, t) + 0.01

        with pytest.raises(VerificationError):
            verify.source_gate(ms=Corrupted(), n_points=100)


class TestErrorNorms:
    def test_zero_fields(self):
        fem = FemSpace(build_box_mesh(*CENTERED, 3))
        zero = lambda x, t: (0.0, 0.0)
        l2, grad = verify.error_norms_3d(fem, np.zeros(fem.n_dofs), zero, 0.0)
        assert l2 == 0.0 and grad == 0.0
        dg = DgSpace(Partition1D.uniform(1.0, 4), 1)
        l2, broken = verify.error_norms_1d(dg, np.zeros(dg.n_dofs), zero, 0.0)
        assert l2 == 0.0 and broken == 0.0

    def test_interpolant_errors_decrease(self, ms):
        prev = None
        for n in (4, 8):
            fem = FemSpace(build_box_mesh(*CENTERED, n))
            interp = ms.c(fem.mesh.vertices.T, 1.0)
            l2, grad = verify.error_norms_3d(fem, interp, ms.c_and_grad, 1.0)
            assert l2 > 0 and grad > 0
            if prev is not None:
                assert l2 < prev[0] and grad < prev[1]
            prev = (l2, grad)

    def test_norm_of_known_function(self):
        # ||z||_{L2} on the centered unit cube = 1/sqrt(12)
        fem = FemSpace(build_box_mesh(*CENTERED, 4))
        l2, _ = verify.error_norms_3d(fem, fem.mesh.vertices[:, 2], lambda x, t: (0.0, 0.0), 0.0)
        assert l2 == pytest.approx(1.0 / math.sqrt(12.0), rel=1e-12)


class TestErrorNormMemory:
    """Quadrature blocks bound the temporaries of the error norms at n = 32,
    and point blocks those of the cross-mesh error."""

    LIMIT = 32e6  # bytes; one block of points with every per-point temporary
    CROSS_LIMIT = 6e6  # bytes; one quadrature block's fine values and one point block located

    @staticmethod
    def _cross_peak(levels):
        coarse, fine = (FemSpace(build_box_mesh(*CENTERED, n)) for n in levels)
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(coarse.n_dofs), rng.standard_normal(fine.n_dofs)
        return tracemalloc_peak(lambda: verify.cross_error_3d(coarse, a, fine, b))

    def test_cross_error_3d(self):
        assert self._cross_peak((16, 32)) < self.CROSS_LIMIT  # 9.9 MB with each quadrature block located at once

    def test_cross_error_3d_coarse_pair(self):
        assert self._cross_peak((8, 16)) < self.CROSS_LIMIT  # 14.2 MB with each quadrature block located at once

    def test_error_norms_3d(self, ms):
        """The values alone, with 0.0 for the gradient."""
        fem = FemSpace(build_box_mesh(*CENTERED, 32))
        c = np.random.default_rng(1).standard_normal(fem.n_dofs)
        assert tracemalloc_peak(lambda: verify.error_norms_3d(fem, c, lambda x, t: (ms.c(x, t), 0.0), 1.0)) < self.LIMIT

    def test_one_pass_error_norms_3d(self, ms):
        """Value and gradient from one evaluation per block, under the same bound."""
        fem = FemSpace(build_box_mesh(*CENTERED, 32))
        c = np.random.default_rng(1).standard_normal(fem.n_dofs)
        assert tracemalloc_peak(lambda: verify.error_norms_3d(fem, c, ms.c_and_grad, 1.0)) < self.LIMIT


class TestRates:
    def test_pure_rate_function(self):
        report = verify.ConvergenceReport(levels=[4, 8, 16], l2_3=[1.0, 0.25], grad3=[8.0, 4.0, 1.0])
        assert report.rates("l2_3") == [2.0]
        assert report.rates("grad3") == pytest.approx([1.0, 2.0])
        # halving levels divide by exactly 1: the log2 ratio, to the last bit
        e = [0.3, 0.07, 0.011]
        assert verify.ConvergenceReport(levels=[4, 8, 16], l2_3=e).rates("l2_3") == [
            float(np.log2(e[0] / e[1])), float(np.log2(e[1] / e[2]))]
        # other level ratios give the order log(e_k / e_k+1) / log(n_k+1 / n_k):
        # errors that fall like h^p give p
        for levels in ((4, 16), (3, 5)):
            for p in (0.75, 1.0, 2.0):
                e = [n ** -p for n in levels]
                report = verify.ConvergenceReport(levels=list(levels), l2_3=e)
                assert report.rates("l2_3") == pytest.approx([p], rel=1e-14)

    def test_report_requires_increasing_levels(self):
        with pytest.raises(ValueError):
            verify.ConvergenceReport(levels=[8, 4])


class TestTimeRate:
    """The time half of the error bound: backward Euler converges at first
    order in dt, in the box mass norm and the vessel area-weighted norm."""

    @staticmethod
    def _rates(problem):
        """Rates of the final-state errors at dt = 0.1 / 2^k, k = 0..3, against
        dt = 0.1 / 128, in the two norms: (3, box and vessel)."""
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
        return np.log2(np.array(errors[:-1]) / np.array(errors[1:]))

    def test_first_order_in_dt(self):
        rates = self._rates(cli.diagonal_problem(1))
        assert np.all((0.9 <= rates) & (rates <= 1.2)), rates

    def test_first_order_in_dt_on_the_manufactured_pair(self):
        """With phi(t) = e^t - 1 the manufactured data start at rest and are
        not affine in t, so backward Euler has a time error to converge."""
        ms = verify.ManufacturedSolution(phi=np.expm1, phi_dt=np.exp)
        rates = self._rates(verify.manufactured_problem(ms=ms))
        assert np.all((0.9 <= rates) & (rates <= 1.2)), rates


class TestSpatialRates:
    """The space half of the error bound: with permeability 0 (no exchange),
    box P1 and vessel DG of degree p reach their optimal orders from h = 1/8
    to 1/16.  Backward Euler is exact for data affine in t, so the errors are
    spatial; every level factors through the nested-dissection ordering."""

    @pytest.mark.parametrize("degree", [1, 2])
    def test_optimal_orders(self, ms, degree):
        R = ms.radius
        vessel_source = lambda s, t: np.pi * R**2 * (
            (np.sin(np.pi * (s - 0.5)) + 2.0)
            + t * (np.pi**2 * np.sin(np.pi * (s - 0.5)) + np.pi * np.cos(np.pi * (s - 0.5))))
        problem = replace(
            verify.manufactured_problem(degree=degree),
            geometry=VesselGeometry((0, 0, -0.5), (0, 0, 0.5), ConstantRadius(R), ConstantPermeability(0.0)),
            source3=ScalarField3.separable(lambda t: (1.0, t), smooth_box_parts),
            source1=vessel_source,
            dirichlet=smooth_box,
        )
        c_hat_and_ds = lambda s, t: (ms.c_hat(s, t), ms.c_hat_ds(s, t))
        errors = []
        for n in (4, 8, 16):
            system = CoupledSystem(problem, n_cells=n)
            state, _ = system.run()
            errors.append(verify.error_norms_3d(system.fem, state.c, smooth_box_and_grad, 1.0)
                          + verify.error_norms_1d(system.dg, state.c_hat, c_hat_and_ds, 1.0))
        box_l2, box_grad, vessel_l2, vessel_grad = np.log2(np.divide(errors[1], errors[2]))
        assert 1.85 <= box_l2 <= 2.15 and 0.9 <= box_grad <= 1.1, (box_l2, box_grad)
        assert degree + 0.85 <= vessel_l2 <= degree + 1.15, vessel_l2
        assert degree - 0.15 <= vessel_grad <= degree + 0.15, vessel_grad


@pytest.fixture(scope="module")
def coupled_pair():
    """The manufactured pair marched to t = 1 with DG degree 1: the box space,
    vessel space and final state at each of the levels 4, 8 and 16."""
    problem = verify.manufactured_problem()
    marched = {}
    for n in (4, 8, 16):
        system = CoupledSystem(problem, n_cells=n)
        marched[n] = (system.fem, system.dg, system.run()[0])
    return marched


class TestCoupledRates:
    """Where the paper's regularity holds, the coupled scheme keeps its orders:
    away from the vessel the box field converges at the optimal order, and
    the vessel field is as accurate as the box field's average on the wall,
    which carries a kink in the exact solution."""

    def test_off_axis_norms_cover_the_whole_box(self, coupled_pair, ms):
        fem, _, state = coupled_pair[4]
        np.testing.assert_allclose(error_norms_3d_off_axis(fem, state.c, ms.c_and_grad, 1.0, 0.0),
                                   verify.error_norms_3d(fem, state.c, ms.c_and_grad, 1.0),
                                   rtol=1e-12)

    def test_box_optimal_away_from_the_vessel(self, coupled_pair, ms):
        errors = [error_norms_3d_off_axis(fem, state.c, ms.c_and_grad, state.t, 0.2)
                  for fem, _, state in coupled_pair.values()]
        l2, grad = np.log2(np.divide(errors[:-1], errors[1:])).T
        assert np.all((1.85 <= l2) & (l2 <= 2.15)), l2
        assert np.all((0.9 <= grad) & (grad <= 1.1)), grad

    @pytest.mark.parametrize("n", [8, 16])
    def test_vessel_follows_the_wall(self, coupled_pair, ms, n):
        fem, dg, state = coupled_pair[n]
        s = np.linspace(0.02, 0.98, 200)
        ring = ms.geometry().circle_points(s, 64)  # (200, 64, 3) at r = R
        wall = fem.evaluate(state.c, ring.reshape(-1, 3)).reshape(s.size, -1).mean(axis=1)
        wall_error = math.sqrt(np.mean((wall - 0.5 * ms.c_hat(s, state.t)) ** 2))
        vessel_error = verify.error_norms_1d(dg, state.c_hat, lambda s, t: (ms.c_hat(s, t), 0.0), state.t)[0]
        assert 1.0 / 1.25 <= vessel_error / wall_error <= 1.25, (vessel_error, wall_error)


@pytest.fixture(scope="module")
def smooth_errors():
    """Box L2, box gradient, vessel L2 and vessel broken gradient errors at
    t = 1 of the smooth coupled pair, per DG degree, at levels 4, 8 and 16."""
    errors = {}
    for degree in (1, 2):
        problem, c_hat_and_ds = smooth_coupled_problem(degree)
        errors[degree] = []
        for n in (4, 8, 16):
            system = CoupledSystem(problem, n_cells=n)
            state, _ = system.run()
            errors[degree].append(verify.error_norms_3d(system.fem, state.c, smooth_box_and_grad, 1.0)
                                  + verify.error_norms_1d(system.dg, state.c_hat, c_hat_and_ds, 1.0))
    return {degree: np.array(e) for degree, e in errors.items()}


class TestSmoothCoupledRates:
    """The paper's orders with the exchange on: for the smooth pair, whose
    exact exchange term vanishes while the discrete blocks stay on, every
    norm converges at its optimal order from h = 1/8 to 1/16, except that
    the vessel L2 order is capped at 2 by the P1 box trace on the wall."""

    @staticmethod
    def rates(errors):
        return np.log2(errors[1] / errors[2])

    @pytest.mark.parametrize("degree", [1, 2])
    def test_box_orders(self, smooth_errors, degree):
        box_l2, box_grad, _, _ = self.rates(smooth_errors[degree])
        assert 1.85 <= box_l2 <= 2.15 and 0.9 <= box_grad <= 1.1, (box_l2, box_grad)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_vessel_l2_order(self, smooth_errors, degree):
        vessel_l2 = self.rates(smooth_errors[degree])[2]
        assert 1.75 <= vessel_l2 <= 2.15, vessel_l2

    @pytest.mark.parametrize("degree, band", [(1, (0.9, 1.15)), (2, (1.75, 2.15))])
    def test_vessel_gradient_order(self, smooth_errors, degree, band):
        vessel_grad = self.rates(smooth_errors[degree])[3]
        assert band[0] <= vessel_grad <= band[1], vessel_grad

    def test_wall_trace_caps_the_vessel_l2_error(self, smooth_errors):
        ratio = smooth_errors[2][2, 2] / smooth_errors[1][2, 2]  # n = 16, degree 2 over degree 1
        assert 0.9 <= ratio <= 1.1, ratio


class TestAveragingConsistency:
    def test_gap_decays(self, ms):
        # the discrete circle average of the interpolated exact field tends to
        # chat / 2 along the vessel
        gaps = []
        for n in (8, 16):
            system = CoupledSystem(verify.manufactured_problem(), n_cells=n)
            geom = system.problem.geometry
            c_nodal = ms.c(system.fem.mesh.vertices.T, 1.0)
            ss = np.linspace(0.05, geom.length - 0.05, 21)
            gaps.append(max(
                abs(system.fem.evaluate(c_nodal, geom.circle_points(s, coupling.DEFAULT_N_CIRCLE)).mean()
                    - 0.5 * float(ms.c_hat(s, 1.0)))
                for s in ss
            ))
        assert gaps[1] < 0.65 * gaps[0]


class TestDiagonalSetup:
    def test_case_parameters(self):
        g1 = cli.diagonal_problem(1).geometry
        assert g1.radius_at(0.3) == 0.05
        assert g1.gamma_at(0.3) == 0.1
        g2 = cli.diagonal_problem(2).geometry
        assert abs(g2.radius_at(g2.length / 2) - 0.065) < 1e-15
        g3 = cli.diagonal_problem(3).geometry
        L = g3.length
        assert g3.gamma_at(0.1 * L) == 0.0
        assert g3.gamma_at(0.5 * L) == 0.05
        assert g3.gamma_at(0.9 * L) == 0.1
        with pytest.raises(ValueError):
            cli.diagonal_problem(4)

    def test_pulse_inflow(self):
        problem = cli.diagonal_problem(1)
        assert problem.c_in(0.05) == 5.0
        assert problem.c_in(0.1) == 5.0
        assert problem.c_in(0.1000001) == 0.0

    def test_velocity_along_tangent(self):
        problem = cli.diagonal_problem(2)
        u = np.asarray(problem.velocity)
        assert np.allclose(u, problem.geometry.tangent, atol=1e-15)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-15

    def test_run_defaults_are_case_1(self):
        # one pulse problem: the run defaults build diagonal case 1's operator bit for bit
        run = CoupledSystem(cli.problem_from_config(cli.RunConfig()), n_cells=8).factorization._matrix
        case1 = CoupledSystem(cli.diagonal_problem(1), n_cells=8).factorization._matrix
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(run, name), getattr(case1, name), err_msg=name)

    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_cases_match_hand_written(self, case):
        # the run-config overrides give the profiles and inflow of the cases as written out
        ref = oracle_diagonal_problem(case)
        problem = cli.diagonal_problem(case)
        s = np.linspace(0.0, ref.geometry.length, 1000)
        geom = problem.geometry
        np.testing.assert_array_equal(geom.p0, ref.geometry.p0)
        np.testing.assert_array_equal(geom.p1, ref.geometry.p1)
        np.testing.assert_array_equal(geom.radius_at(s), ref.geometry.radius_at(s))
        np.testing.assert_array_equal(geom.gamma_at(s), ref.geometry.gamma_at(s))
        for t in (0.0, 0.1, 0.1 + 1e-12, 0.5):
            assert problem.c_in(t) == ref.c_in(t)
        assert (problem.t_end, problem.dg, problem.u_hat, problem.dt) == (
            ref.t_end, ref.dg, ref.u_hat, ref.dt)


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
            verify.self_convergence(cli.diagonal_problem(1), coarse_levels=(4, 8), fine_n=8)


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
        system = report.system
        assert system.mesh.n == 4 and system.dg.partition.n_elements == 4 and system.factorization is None
        assert np.array_equal(system.problem.geometry.p1, (0.0, 0.0, 0.5))
        assert system.problem.geometry.radius_at(0.3) == 0.05
        [(t, snap)] = report.snapshots
        assert t == state.t == 1.0
        assert np.array_equal(snap.c, state.c)
        assert np.array_equal(snap.c_hat, state.c_hat)

    def test_self_convergence_output_level_is_the_reference(self):
        report = verify.self_convergence(cli.diagonal_problem(1), coarse_levels=(2,), fine_n=4, snapshot_times=(0.5, 1.0))
        _, run_report = CoupledSystem(cli.diagonal_problem(1), n_cells=4).run(times=(0.5, 1.0))
        system = report.system
        assert system.mesh.n == 4 and system.dg.partition.n_elements == 4 and system.factorization is None
        assert np.array_equal(system.problem.geometry.p1, (0.4, 0.4, 0.4))
        assert system.problem.geometry.gamma_at(0.3) == 0.1
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
            verify.self_convergence(cli.diagonal_problem(1), (8, 4), fine_n=16)

    def test_convergence_no_levels(self):
        with pytest.raises(ConfigError, match="at least one level"):
            verify.convergence_study([])

    def test_self_convergence_no_levels(self):
        with pytest.raises(ConfigError, match="at least one level"):
            verify.self_convergence(cli.diagonal_problem(1), coarse_levels=(), fine_n=8)

    @pytest.mark.parametrize("case", [0, 4])
    def test_unknown_case(self, case):
        with pytest.raises(ConfigError, match="case must be 1, 2 or 3"):
            cli.diagonal_problem(case)


def _track_builds(monkeypatch, collect):
    """Weak references (system, its LU) to every system built; each build
    first asserts that every earlier LU is dead, after a cyclic collection if
    ``collect``.  A study keeps its marched systems, whose LUs ``run`` freed."""
    built = []
    init = stepper.CoupledSystem.__init__

    def tracked(system, *args, **kwargs):
        if collect:
            gc.collect()
        alive = [lu for _, lu in built if lu() is not None]
        assert not alive, f"{len(alive)} earlier LU(s) alive at a new build"
        init(system, *args, **kwargs)
        built.append((weakref.ref(system), weakref.ref(system.factorization)))

    monkeypatch.setattr(stepper.CoupledSystem, "__init__", tracked)
    return built


class TestOneSystemAlive:
    """A study builds a level only once every earlier system's LU is freed:
    the marched systems stay, the self-convergence study's fine reference
    among them, but hold no factorization."""

    @pytest.fixture
    def builds(self, monkeypatch):
        return _track_builds(monkeypatch, collect=True)

    def test_convergence_study(self, builds):
        verify.convergence_study([4, 8])
        assert len(builds) == 2

    def test_self_convergence(self, builds):
        verify.self_convergence(cli.diagonal_problem(1), (4,), fine_n=8)
        assert len(builds) == 2


class TestOneSystemFreedByRefcount(TestOneSystemAlive):
    """The same with the cyclic collector off and never run: an earlier LU
    dies by reference counting alone, so nothing it holds refers back to it,
    and a run command's system dies with the command."""

    @pytest.fixture
    def builds(self, monkeypatch):
        enabled = gc.isenabled()
        gc.disable()
        try:
            yield _track_builds(monkeypatch, collect=False)
        finally:
            if enabled:
                gc.enable()

    def test_run_config_marched_twice(self, builds, tmp_path):
        """A degree-2 run with a tanh radius and a piecewise permeability, twice."""
        config = tmp_path / "run.cfg"
        config.write_text(
            "n = 4\ndegree = 2\nepsilon = 0\nt_end = 0.2\nu = 0.3, -0.2, 0.5\n"
            "radius_min = 0.05\nradius_max = 0.08\nradius_beta = 8.0\n"
            "gamma_breaks = 0.4, 0.9\ngamma_values = 0.0, 0.05, 0.1\n"
            f"snapshots = 0.2\nout = {tmp_path / 'out'}\n")
        for _ in range(2):
            assert cli.main(["run", "--config", str(config)]) == 0
        assert len(builds) == 2
        assert [system() for system, _ in builds] == [None, None]
