import numpy as np
import pytest

from vesselfem import fem3d, linalg
from vesselfem.errors import CoefficientError, ConfigError
from vesselfem.fem3d import ScalarField3, VectorField3
from vesselfem.mesh3d import FemSpace, build_box_mesh

CENTERED = ((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))


@pytest.fixture(scope="module")
def space():
    return FemSpace(build_box_mesh(*CENTERED, 3))


class TestMass:
    def test_total_volume(self, space):
        M = fem3d.assemble_mass(space)
        assert abs(M.sum() - 1.0) < 1e-12

    def test_symmetric(self, space):
        M = fem3d.assemble_mass(space)
        assert abs((M - M.T)).max() < 1e-14

    def test_positive_definite_samples(self, space):
        M = fem3d.assemble_mass(space)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(space.n_dofs)
            assert x @ (M @ x) > 0


class TestStiffness:
    def test_constants_in_kernel(self, space):
        A = fem3d.assemble_stiffness(space, ScalarField3.constant(1.0))
        ones = np.ones(space.n_dofs)
        assert np.abs(A @ ones).max() < 1e-12

    def test_affine_energy(self, space):
        A = fem3d.assemble_stiffness(space, ScalarField3.constant(1.0))
        g = space.dof_points[:, 0]
        assert abs(g @ (A @ g) - 1.0) < 1e-12

    def test_coefficient_scaling(self, space):
        A1 = fem3d.assemble_stiffness(space, ScalarField3.constant(1.0))
        A2 = fem3d.assemble_stiffness(space, ScalarField3.constant(2.0))
        assert abs(A2 - 2 * A1).max() < 1e-13

    def test_nonpositive_rejected(self, space):
        with pytest.raises(CoefficientError):
            fem3d.assemble_stiffness(space, ScalarField3.constant(0.0))
        bad = ScalarField3(fn=lambda x, t: x[:, 0])  # negative for x < 0
        with pytest.raises(CoefficientError):
            fem3d.assemble_stiffness(space, bad)

    def test_variable_coefficient_matches_constant(self, space):
        A1 = fem3d.assemble_stiffness(space, ScalarField3.constant(1.5))
        A2 = fem3d.assemble_stiffness(
            space, ScalarField3(fn=lambda x, t: np.full(x.shape[0], 1.5))
        )
        assert abs(A1 - A2).max() < 1e-13


class TestConvection:
    def test_zero_velocity(self, space):
        B = fem3d.assemble_convection(space, VectorField3.constant((0, 0, 0)))
        assert abs(B).max() == 0.0

    def test_odd_integrand_vanishes(self, space):
        B = fem3d.assemble_convection(space, VectorField3.constant((0, 0, 1)))
        z = space.dof_points[:, 2]
        assert abs(z @ (B @ z)) < 1e-13  # -\int z dz/dz over the symmetric cube

    def test_affine_pairing(self, space):
        B = fem3d.assemble_convection(space, VectorField3.constant((0, 0, 1)))
        z = space.dof_points[:, 2]
        ones = np.ones(space.n_dofs)
        assert abs(z @ (B @ ones) - (-1.0)) < 1e-12

    def test_time_dependent_rejected(self, space):
        u = VectorField3(fn=lambda x, t: np.broadcast_to((0.0, 0.0, t), (x.shape[0], 3)))
        with pytest.raises(ConfigError):
            fem3d.assemble_convection(space, u)

    def test_variable_velocity_matches_constant(self, space):
        B1 = fem3d.assemble_convection(space, VectorField3.constant((1.0, 0.5, -2.0)))
        B2 = fem3d.assemble_convection(
            space,
            VectorField3(
                fn=lambda x, t: np.broadcast_to((1.0, 0.5, -2.0), (x.shape[0], 3)),
                time_constant=True,
            ),
        )
        assert abs(B1 - B2).max() < 1e-13


class TestLoad:
    def test_constant_source_total(self, space):
        F = fem3d.assemble_load(space, ScalarField3.constant(1.0), t=0.0)
        assert abs(F.sum() - 1.0) < 1e-12

    def test_zero_source(self, space):
        F = fem3d.assemble_load(space, ScalarField3.zero(), t=1.0)
        assert np.all(F == 0.0)

    def test_deterministic(self, space):
        f = ScalarField3(fn=lambda x, t: np.sin(x[:, 0] * 3) + t * x[:, 2] ** 2)
        F1 = fem3d.assemble_load(space, f, t=1.0)
        F2 = fem3d.assemble_load(space, f, t=1.0)
        assert np.array_equal(F1, F2)


def _sample_terms():
    return (
        (lambda t: 1.0, lambda x: np.sin(3.0 * x[:, 0]) + x[:, 1]),
        (lambda t: t, lambda x: x[:, 2] ** 2),
        (lambda t: np.cos(t), lambda x: np.exp(x[:, 0] * x[:, 1])),
    )


class TestSeparableSource:
    def test_fn_is_sum_of_terms(self):
        terms = _sample_terms()
        f = ScalarField3.separable(*terms)
        x = np.random.default_rng(5).uniform(-0.5, 0.5, size=(50, 3))
        for t in (0.0, 0.37, 1.0):
            expected = sum(g(t) * fk(x) for g, fk in terms)
            assert np.abs(f(x, t) - expected).max() < 1e-15
        assert len(f.terms) == 3
        assert not f.is_zero

    def test_plain_field_has_no_terms(self):
        assert ScalarField3(fn=lambda x, t: x[:, 0]).terms == ()
        assert ScalarField3.zero().terms == ()

    def test_needs_a_term(self):
        with pytest.raises(ValueError):
            ScalarField3.separable()

    @pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
    def test_projected_terms_match_plain_load(self, space, t):
        terms = _sample_terms()
        f = ScalarField3.separable(*terms)
        loads = [fem3d.assemble_load(space, fk, 0.0) for fk in f.term_fields()]
        combined = sum(g(t) * F for (g, _), F in zip(terms, loads))
        plain = fem3d.assemble_load(space, ScalarField3(fn=f.fn), t)
        assert np.abs(combined - plain).max() <= 1e-13 * np.abs(plain).max()


class TestDirichlet:
    def test_row_structure(self, space):
        A = fem3d.assemble_stiffness(space, ScalarField3.constant(1.0))
        A2, _ = fem3d.apply_dirichlet(A, None, space, None, 0.0)
        rows = np.nonzero(space.dirichlet_mask)[0]
        for i in rows[:10]:
            row = A2.getrow(i)
            assert row.nnz == 1
            assert row[0, i] == 1.0

    def test_homogeneous_solve_vanishes_on_boundary(self, space):
        A = fem3d.assemble_stiffness(space, ScalarField3.constant(1.0))
        F = fem3d.assemble_load(space, ScalarField3.constant(1.0), 0.0)
        A2, F2 = fem3d.apply_dirichlet(A, F, space, None, 0.0)
        x = linalg.factorize(A2).solve(F2)
        assert np.abs(x[space.dirichlet_mask]).max() == 0.0
        assert x[~space.dirichlet_mask].max() > 0  # -lap c = 1 has positive interior

    def test_exact_trace(self, space):
        g = lambda x, t: x[:, 0] + 2 * x[:, 1] - x[:, 2] + t
        A = fem3d.assemble_stiffness(space, ScalarField3.constant(1.0))
        F = np.zeros(space.n_dofs)
        A2, F2 = fem3d.apply_dirichlet(A, F, space, g, t=0.5)
        x = linalg.factorize(A2).solve(F2)
        pts = space.dof_points[space.dirichlet_mask]
        assert np.array_equal(x[space.dirichlet_mask], g(pts, 0.5))


class TestPoissonConvergence:
    def test_second_order_l2(self):
        # -lap g = -12 with g = x^2 + 2y^2 + 3z^2, exact trace on the boundary
        from vesselfem.verify import error_norms_3d

        g = lambda x, t: x[:, 0] ** 2 + 2 * x[:, 1] ** 2 + 3 * x[:, 2] ** 2
        grad_g = lambda x, t: np.stack(
            [2 * x[:, 0], 4 * x[:, 1], 6 * x[:, 2]], axis=1
        )
        errors = []
        for n in (4, 8, 16):
            sp_ = FemSpace(build_box_mesh(*CENTERED, n))
            A = fem3d.assemble_stiffness(sp_, ScalarField3.constant(1.0))
            F = fem3d.assemble_load(sp_, ScalarField3.constant(-12.0), 0.0)
            A2, F2 = fem3d.apply_dirichlet(A, F, sp_, g, 0.0)
            x = linalg.factorize(A2).solve(F2)
            l2, _ = error_norms_3d(sp_, x, g, grad_g, t=0.0)
            errors.append(l2)
        slopes = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(slopes >= 1.8)


class TestVelocityBound:
    def test_poincare_constant_unit_cube(self):
        c0 = fem3d.poincare_constant((0, 0, 0), (1, 1, 1))
        assert abs(c0 - 1.0 / (np.pi * np.sqrt(3))) < 1e-15

    def test_constant_velocity_exempt(self, space):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fem3d.check_velocity_bound(space, VectorField3.constant((50, 0, 0)), 1.0)

    def test_large_variable_velocity_warns(self, space):
        u = VectorField3(
            fn=lambda x, t: np.stack([40 + x[:, 0], 0 * x[:, 0], 0 * x[:, 0]], axis=1),
            time_constant=True,
        )
        with pytest.warns(UserWarning, match="diffusion-dominance"):
            fem3d.check_velocity_bound(space, u, 1.0)
