import math
from functools import lru_cache

import numpy as np
import pytest
import sympy as sp

from _oracles import average_flux, dense_1d_operators, dg_seminorm, jump, trace_eval
from _oracles import l2_project as oracle_l2_project
from vesselfem import dg1d
from vesselfem.dg1d import DgParams, DgSpace, Partition1D
from vesselfem.errors import ConfigError, DomainError
from vesselfem.geometry import ConstantPermeability, ConstantRadius, TanhRadius, VesselGeometry

ONE = lambda s: np.broadcast_to(1.0, np.shape(s))


def uniform_space(n, degree, length=1.0):
    return DgSpace(Partition1D.uniform(length, n), degree)


# graded partition with a degree-1 area, so the Gauss rules stay exact
GRADED_AREA = lambda s: 1.0 + s
GRADED_KAPPA = 2.0


def graded_space(degree):
    return DgSpace(Partition1D(np.array([0.0, 0.25, 0.6, 1.0])), degree)


@lru_cache(maxsize=None)
def graded_oracle(degree, epsilon=1):
    nodes = [sp.Integer(0), sp.Rational(1, 4), sp.Rational(3, 5), sp.Integer(1)]
    return dense_1d_operators(nodes, degree, GRADED_KAPPA, GRADED_AREA, 1, 50, epsilon, 1)


def assert_matches(got, want):
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def profile_area(kind):
    length = 0.8 * math.sqrt(3)
    radius = ConstantRadius(0.05) if kind == "constant" else TanhRadius(0.05, 0.08, 8.0)
    geom = VesselGeometry(
        (-0.4, -0.4, -0.4), (0.4, 0.4, 0.4), radius, ConstantPermeability(0.1)
    )
    return geom, (lambda s: geom.section_area(s)), length


class TestParams:
    def test_epsilon_values(self):
        for eps in (-1, 0, 1):
            DgParams(eps, 50.0)
        with pytest.raises(ConfigError):
            DgParams(2, 50.0)

    def test_sigma_threshold(self):
        with pytest.raises(ConfigError):
            DgParams(1, 10.0)
        with pytest.raises(ConfigError):
            DgParams(0, 49.0)
        DgParams(-1, 1.0)
        with pytest.raises(ConfigError):
            DgParams(-1, 0.5)

    @pytest.mark.parametrize("epsilon", [-1, 0, 1])
    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, 0.0])
    def test_sigma_positive_and_finite(self, epsilon, sigma):
        with pytest.raises(ConfigError, match="positive and finite"):
            DgParams(epsilon, sigma)


class TestPartition:
    def test_monotone_required(self):
        with pytest.raises(ConfigError):
            Partition1D(np.array([0.0, 0.5, 0.5, 1.0]))

    def test_uniform(self):
        p = Partition1D.uniform(2.0, 4)
        assert p.n_elements == 4
        assert p.h_max == 0.5
        assert p.length == 2.0


class TestMass:
    def test_weighted_total(self):
        space = uniform_space(5, 1)
        area = lambda s: np.broadcast_to(np.pi * 0.05**2, np.shape(s))
        M = dg1d.assemble_mass_weighted(space, area)
        ones = space.constant_one()
        assert abs(ones @ (M @ ones) - np.pi * 0.05**2 * 1.0) < 1e-15

    def test_single_element_reference(self):
        # unit element, unit weight: basis {1, 2s-1} gives diag(1, 1/3)
        space = uniform_space(1, 1)
        M = dg1d.assemble_mass_weighted(space, ONE).toarray()
        assert np.allclose(M, np.diag([1.0, 1.0 / 3.0]), atol=1e-15)

    def test_symmetry_and_block_diagonal(self):
        space = uniform_space(4, 2)
        M = dg1d.assemble_mass_weighted(space, ONE).toarray()
        assert np.abs(M - M.T).max() < 1e-14
        # off-diagonal zero: orthogonal basis, constant weight
        assert np.abs(M - np.diag(np.diag(M))).max() < 1e-12


class TestDiffusionForm:
    def test_constants_in_kernel(self):
        space = uniform_space(6, 2)
        A = dg1d.assemble_a_lambda(space, 1.0, ONE, DgParams(1, 50.0))
        v = space.constant_one()
        assert np.abs(A @ v).max() < 1e-12

    def test_antisymmetric_identity(self):
        # for epsilon = -1 the cross terms cancel:
        # v' A v = sum w k (v')^2 + sigma/h sum [v]^2 exactly
        space = uniform_space(4, 2)
        params = DgParams(-1, 1.0)
        geom, area, _ = profile_area("tanh")
        space = DgSpace(Partition1D.uniform(geom.length, 4), 2)
        A = dg1d.assemble_a_lambda(space, 1.0, area, params)
        rng = np.random.default_rng(5)
        pts, wts = space.gauss_points(space.degree + 2)
        for _ in range(100):
            v = rng.standard_normal(space.n_dofs)
            lhs = v @ (A @ v)
            rhs = 0.0
            for e in range(space.partition.n_elements):
                _, ders = space.basis_at(e, pts[e])
                dv = ders.T @ v[space.element_dofs(e)]
                rhs += float(wts[e] @ (np.asarray(area(pts[e])) * dv**2))
            for i in range(1, space.partition.n_elements):
                rhs += params.sigma / space.partition.h_max * jump(space, v, i) ** 2
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("epsilon", [-1, 0, 1])
    def test_dense_oracle(self, degree, epsilon):
        sigma = 50.0
        space = uniform_space(2, degree)
        params = DgParams(epsilon, sigma)
        A = dg1d.assemble_a_lambda(space, 1.0, ONE, params).toarray()
        nodes = [sp.Integer(0), sp.Rational(1, 2), sp.Integer(1)]
        one = lambda s: sp.Integer(1)
        _, A_ref, _, _ = dense_1d_operators(nodes, degree, 1.0, one, 1, 50, epsilon, 1)
        assert np.abs(A - A_ref).max() < 1e-12

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("epsilon", [-1, 0, 1])
    def test_dense_oracle_graded(self, degree, epsilon):
        params = DgParams(epsilon, 50.0)
        A = dg1d.assemble_a_lambda(graded_space(degree), GRADED_KAPPA, GRADED_AREA, params)
        assert_matches(A.toarray(), graded_oracle(degree, epsilon)[1])

    def test_symmetry_iff_symmetric_variant(self):
        space = uniform_space(4, 2)
        for eps in (-1, 0, 1):
            A = dg1d.assemble_a_lambda(space, 1.0, ONE, DgParams(eps, 50.0))
            asym = np.abs((A - A.T)).max()
            if eps == 1:
                assert asym < 1e-13
            else:
                assert asym > 1e-3


class TestAdvectionForm:
    @pytest.mark.parametrize("kind", ["constant", "tanh"])
    def test_constant_pairs_to_outflow(self, kind):
        geom, area, length = profile_area(kind)
        space = DgSpace(Partition1D.uniform(length, 3), 1)
        B = dg1d.assemble_b_lambda(space, 1.0, area)
        v = space.constant_one()
        assert abs(v @ (B @ v) - float(area(length))) < 1e-13

    @pytest.mark.parametrize("kind", ["constant", "tanh"])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_positivity(self, kind, degree):
        geom, area, length = profile_area(kind)
        u_hat = 1.0
        space = DgSpace(Partition1D.uniform(length, 8), degree)
        B = dg1d.assemble_b_lambda(space, u_hat, area)
        nodes = space.partition.nodes
        rng = np.random.default_rng(42)
        for _ in range(1000):
            v = rng.standard_normal(space.n_dofs)
            lhs = v @ (B @ v)
            rhs = 0.5 * float(area(nodes[0])) * u_hat * trace_eval(space, v, 0, "+") ** 2
            rhs += 0.5 * float(area(nodes[-1])) * u_hat * trace_eval(
                space, v, space.partition.n_elements, "-"
            ) ** 2
            for i in range(1, space.partition.n_elements):
                rhs += 0.5 * float(area(nodes[i])) * u_hat * jump(space, v, i) ** 2
            assert lhs >= rhs - 1e-10

    @pytest.mark.parametrize("degree", [1, 2])
    def test_dense_oracle(self, degree):
        space = uniform_space(2, degree)
        B = dg1d.assemble_b_lambda(space, 1.0, ONE).toarray()
        nodes = [sp.Integer(0), sp.Rational(1, 2), sp.Integer(1)]
        one = lambda s: sp.Integer(1)
        _, _, B_ref, _ = dense_1d_operators(nodes, degree, 1.0, one, 1, 50, 1, 1)
        assert np.abs(B - B_ref).max() < 1e-12

    @pytest.mark.parametrize("degree", [1, 2])
    def test_dense_oracle_graded(self, degree):
        B = dg1d.assemble_b_lambda(graded_space(degree), 1.0, GRADED_AREA)
        assert_matches(B.toarray(), graded_oracle(degree)[2])


class TestInflow:
    def test_zero_inflow(self):
        space = uniform_space(3, 1)
        assert np.all(dg1d.assemble_inflow_rhs(space, ONE, 1.0, 0.0) == 0.0)

    def test_pairing_with_constant(self):
        space = uniform_space(4, 2)
        area = lambda s: np.broadcast_to(np.pi * 0.05**2, np.shape(s))
        rhs = dg1d.assemble_inflow_rhs(space, area, 1.0, 5.0)
        ones = space.constant_one()
        assert abs(ones @ rhs - np.pi * 0.05**2 * 5.0) < 1e-15
        assert np.all(rhs[space.n_local :] == 0.0)

    def test_linearity(self):
        space = uniform_space(3, 1)
        r1 = dg1d.assemble_inflow_rhs(space, ONE, 1.0, 1.0)
        r3 = dg1d.assemble_inflow_rhs(space, ONE, 1.0, 3.0)
        assert np.allclose(r3, 3 * r1, atol=1e-15)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_dense_oracle(self, degree):
        space = uniform_space(2, degree)
        rhs = dg1d.assemble_inflow_rhs(space, ONE, 1.0, 1.0)
        nodes = [sp.Integer(0), sp.Rational(1, 2), sp.Integer(1)]
        one = lambda s: sp.Integer(1)
        _, _, _, ref = dense_1d_operators(nodes, degree, 1.0, one, 1, 50, 1, 1)
        assert np.abs(rhs - ref).max() < 1e-12

    @pytest.mark.parametrize("degree", [1, 2])
    def test_dense_oracle_graded(self, degree):
        rhs = dg1d.assemble_inflow_rhs(graded_space(degree), GRADED_AREA, 1.0, 1.0)
        assert_matches(rhs, graded_oracle(degree)[3])

    @pytest.mark.parametrize("degree", [1, 2])
    def test_mass_dense_oracle_graded(self, degree):
        M = dg1d.assemble_mass_weighted(graded_space(degree), GRADED_AREA)
        assert_matches(M.toarray(), graded_oracle(degree)[0])

    @pytest.mark.parametrize("degree", [1, 2])
    def test_mass_dense_oracle(self, degree):
        space = uniform_space(2, degree)
        M = dg1d.assemble_mass_weighted(space, ONE).toarray()
        nodes = [sp.Integer(0), sp.Rational(1, 2), sp.Integer(1)]
        one = lambda s: sp.Integer(1)
        M_ref, _, _, _ = dense_1d_operators(nodes, degree, 1.0, one, 1, 50, 1, 1)
        assert np.abs(M - M_ref).max() < 1e-12


class TestSeminorm:
    def test_constant_is_zero(self):
        space = uniform_space(5, 2)
        assert dg_seminorm(space, space.constant_one(), DgParams(1, 50.0)) == 0.0

    def test_linear_interpolant(self):
        for n in (1, 2, 5):
            space = uniform_space(n, 1)
            v = dg1d.l2_project(space, lambda s: s)  # continuous, slope one
            assert abs(dg_seminorm(space, v, DgParams(1, 50.0)) - 1.0) < 1e-12

    def test_single_jump(self):
        space = uniform_space(2, 1)
        v = np.zeros(space.n_dofs)
        v[0] = 1.0  # indicator of the first element
        norm = dg_seminorm(space, v, DgParams(1, 50.0))
        assert abs(norm**2 - 50.0 / 0.5) < 1e-12


class TestProjection:
    @pytest.mark.parametrize("degree", [1, 2])
    def test_reproduces_polynomials(self, degree):
        space = uniform_space(3, degree)
        fn = lambda s: 2.0 - s + 0.5 * s**degree
        v = dg1d.l2_project(space, fn)
        ss = np.linspace(0, 1, 101)
        assert np.abs(space.evaluate(v, ss) - fn(ss)).max() < 1e-12

    @pytest.mark.parametrize("degree", [1, 2])
    def test_convergence_order(self, degree):
        errors = []
        for n in (4, 8, 16):
            space = uniform_space(n, degree)
            v = dg1d.l2_project(space, lambda s: np.sin(np.pi * s))
            pts, wts = space.gauss_points(degree + 4)
            err = 0.0
            for e in range(n):
                vals, _ = space.basis_at(e, pts[e])
                vh = vals.T @ v[space.element_dofs(e)]
                err += float(wts[e] @ (np.sin(np.pi * pts[e]) - vh) ** 2)
            errors.append(math.sqrt(err))
        slopes = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(slopes > degree + 0.7)

    def test_zero(self):
        space = uniform_space(4, 1)
        assert np.all(dg1d.l2_project(space, lambda s: np.zeros_like(s)) == 0.0)

    @pytest.mark.parametrize("space", [uniform_space(10, k) for k in (1, 2, 3, 7)]
                             + [graded_space(k) for k in (1, 2, 3, 7)],
                             ids=[f"{p}-{k}" for p in ("uniform", "graded") for k in (1, 2, 3, 7)])
    @pytest.mark.parametrize("fn", [lambda s: np.exp(s) * np.sin(5.0 * s), lambda s: 2.0],
                             ids=["array", "scalar"])
    def test_bitwise_equal_to_its_own_quadrature(self, space, fn):
        """The projection is the vessel load at degree + 4 points over the unit
        mass, with every bit of the projection's own formula."""
        assert dg1d.l2_project(space, fn).tobytes() == oracle_l2_project(space, fn).tobytes()


class TestTraces:
    def test_continuous_jump_vanishes(self):
        space = uniform_space(4, 2)
        v = dg1d.l2_project(space, lambda s: 1.0 + 2.0 * s)
        for i in range(1, 4):
            assert abs(jump(space, v, i)) < 1e-13

    def test_indicator_sign_convention(self):
        space = uniform_space(2, 1)
        v = np.zeros(space.n_dofs)
        v[0] = 1.0
        assert abs(jump(space, v, 1) - 1.0) < 1e-15
        assert abs(average_flux(space, v, 1) - 0.5) < 1e-15

    def test_boundary_nodes_rejected(self):
        space = uniform_space(2, 1)
        with pytest.raises(DomainError):
            jump(space, np.zeros(space.n_dofs), 0)
        with pytest.raises(DomainError):
            jump(space, np.zeros(space.n_dofs), 2)
