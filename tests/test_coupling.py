import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vesselfem.coupling import assemble_coupling, average_matrix
from vesselfem.dg1d import DgSpace, Partition1D
from vesselfem.errors import GeometryError
from vesselfem.geometry import (
    ConstantPermeability,
    ConstantRadius,
    PiecewisePermeability,
    TanhRadius,
    VesselGeometry,
)
from vesselfem.mesh3d import FemSpace, build_box_mesh

from _oracles import product_coupling

CENTERED = ((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))


def vertical_geometry(gamma=1.0):
    return VesselGeometry(
        (0, 0, -0.5), (0, 0, 0.5), ConstantRadius(0.05), ConstantPermeability(gamma)
    )


def diagonal_geometry(permeability=None):
    return VesselGeometry(
        (-0.4, -0.4, -0.4), (0.4, 0.4, 0.4),
        ConstantRadius(0.05), permeability or ConstantPermeability(0.1),
    )


@pytest.fixture(scope="module")
def setup():
    geom = vertical_geometry()
    fem = FemSpace(build_box_mesh(*CENTERED, 8))
    dg = DgSpace(Partition1D.uniform(geom.length, 8), 1)
    return geom, fem, dg


def circle_mean(fem, geom, c, s, n_circle):
    """Mean of the P1 field over the section circle, point by point."""
    return fem.evaluate(c, geom.circle_points(s, n_circle)).mean()


class TestLateralAverage:
    def test_constant_field(self, setup):
        geom, fem, _ = setup
        c = np.full(fem.n_dofs, 3.0)
        assert (average_matrix(fem, geom, 0.4, 16) @ c)[0] == pytest.approx(3.0, abs=1e-14)

    def test_odd_field_vanishes(self, setup):
        geom, fem, _ = setup
        c = fem.mesh.vertices[:, 0]
        assert abs((average_matrix(fem, geom, 0.37, 16) @ c)[0]) < 1e-12

    def test_quadratic_gap_decays(self):
        # average of the interpolated r^2 tends to R^2 at the interpolation rate
        geom = vertical_geometry()
        gaps = []
        for n in (8, 16, 32):
            fem = FemSpace(build_box_mesh(*CENTERED, n))
            c = fem.mesh.vertices[:, 0] ** 2 + fem.mesh.vertices[:, 1] ** 2
            avg = (average_matrix(fem, geom, 0.5, 16) @ c)[0]
            gaps.append(abs(avg - 0.05**2))
        assert gaps[0] > gaps[1] > gaps[2]
        slope = np.log2(gaps[0] / gaps[2]) / 2
        assert slope > 1.5

    def test_circle_outside_box(self):
        geom = VesselGeometry(
            (0, 0, -0.5), (0, 0, 0.5), ConstantRadius(0.05), ConstantPermeability(1.0)
        )
        small_fem = FemSpace(build_box_mesh((-0.04, -0.04, -0.5), (0.04, 0.04, 0.5), 4))
        with pytest.raises(GeometryError, match="s = 0.5"):
            average_matrix(small_fem, geom, [0.5], 16)

    @pytest.mark.parametrize("n_circle", [4, 16, 64])
    def test_rows_sum_to_one(self, n_circle):
        geom = diagonal_geometry()
        fem = FemSpace(build_box_mesh(*CENTERED, 4))
        s = np.linspace(0.0, geom.length, 37)
        avg = average_matrix(fem, geom, s, n_circle)
        assert avg.shape == (s.size, fem.n_dofs)
        assert np.abs(np.asarray(avg.sum(axis=1)).ravel() - 1.0).max() <= 1e-14
        u = np.random.default_rng(2).standard_normal(fem.n_dofs)
        expected = [circle_mean(fem, geom, u, sk, n_circle) for sk in s]
        assert np.abs(avg @ u - expected).max() < 1e-13


class TestAssembly:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("geom", [vertical_geometry(), diagonal_geometry(),
                                      VesselGeometry((-0.4, -0.4, -0.4), (0.4, 0.4, 0.4),
                                                     TanhRadius(0.05, 0.08, 8.0),
                                                     PiecewisePermeability((0.4, 0.9), (0.0, 0.05, 0.1))),
                                      VesselGeometry((0.375, 0.375, -0.5), (0.375, 0.375, 0.5),
                                                     ConstantRadius(0.125), ConstantPermeability(1.0))],
                             ids=["vertical", "diagonal", "tanh_piecewise", "circles_on_grid_planes"])
    def test_blocks_equal_sparse_products(self, geom, degree):
        """The weighted transposes give the blocks of SciPy's products with
        the weight diagonal byte for byte, index order included.  Circles
        through grid planes have zero barycentric weights, which the products
        drop; kept, they would reorder c_oo's indices."""
        fem = FemSpace(build_box_mesh(*CENTERED, 8))
        dg = DgSpace(Partition1D.uniform(geom.length, 8), degree)
        blocks, expected = assemble_coupling(geom, fem, dg), product_coupling(geom, fem, dg)
        for name in ("c_oo", "c_ol", "c_lo", "c_ll"):
            for part in ("indptr", "indices", "data"):
                a, b = getattr(getattr(blocks, name), part), getattr(getattr(expected, name), part)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, part)

    def test_zero_permeability_zero_blocks(self):
        geom = vertical_geometry(gamma=0.0)
        fem = FemSpace(build_box_mesh(*CENTERED, 4))
        dg = DgSpace(Partition1D.uniform(geom.length, 4), 1)
        blocks = assemble_coupling(geom, fem, dg)
        for b in (blocks.c_oo, blocks.c_ol, blocks.c_lo, blocks.c_ll):
            assert b.nnz == 0

    def test_equal_constants_no_exchange(self, setup):
        geom, fem, dg = setup
        blocks = assemble_coupling(geom, fem, dg)
        alpha = 1.7
        c = np.full(fem.n_dofs, alpha)
        c_hat = alpha * dg.constant_one()
        assert np.abs(blocks.c_oo @ c - blocks.c_ol @ c_hat).max() < 1e-12
        assert np.abs(blocks.c_ll @ c_hat - blocks.c_lo @ c).max() < 1e-12

    def test_line_integral_of_weight(self):
        # 1' C_LL 1 = integral of gamma * circumference over the vessel
        geom = diagonal_geometry()
        fem = FemSpace(build_box_mesh(*CENTERED, 8))
        dg = DgSpace(Partition1D.uniform(geom.length, 8), 1)
        blocks = assemble_coupling(geom, fem, dg)
        ones = dg.constant_one()
        expected = 0.1 * 2 * math.pi * 0.05 * 0.8 * math.sqrt(3.0)
        assert ones @ (blocks.c_ll @ ones) == pytest.approx(expected, rel=1e-12)

    def test_transpose_pairing(self, setup):
        geom, fem, dg = setup
        blocks = assemble_coupling(geom, fem, dg)
        assert (blocks.c_lo != blocks.c_ol.T).nnz == 0

    def test_quadratic_form_nonnegative(self, setup):
        geom, fem, dg = setup
        blocks = assemble_coupling(geom, fem, dg)
        rng = np.random.default_rng(1)
        U = rng.standard_normal((200, fem.n_dofs))
        V = rng.standard_normal((200, dg.n_dofs))
        q = (
            np.einsum("ki,ki->k", U, (blocks.c_oo @ U.T).T)
            - 2 * np.einsum("ki,ki->k", U, (blocks.c_ol @ V.T).T)
            + np.einsum("ki,ki->k", V, (blocks.c_ll @ V.T).T)
        )
        assert q.min() >= -1e-12

    @pytest.mark.parametrize("degree, n_circle", [
        pytest.param(1, 16, id="1"),
        pytest.param(2, 16, id="2"),
        pytest.param(2, 64, id="2-64"),  # many circle points share a tet vertex
    ])
    def test_quadratic_form_is_exchange_integral(self, degree, n_circle):
        # u' C_oo u - 2 u' C_ol v + v' C_ll v equals the Gauss x circle sum of
        # gamma |circumference| (ubar - v)^2, summed here point by point
        geom = diagonal_geometry(PiecewisePermeability((0.4, 0.9), (0.0, 0.05, 0.1)))
        fem = FemSpace(build_box_mesh(*CENTERED, 4))
        dg = DgSpace(Partition1D.uniform(geom.length, 5), degree)
        blocks = assemble_coupling(geom, fem, dg, n_circle=n_circle)
        rng = np.random.default_rng(8)
        u = rng.standard_normal(fem.n_dofs)
        v = rng.standard_normal(dg.n_dofs)
        form = u @ (blocks.c_oo @ u) - 2 * u @ (blocks.c_ol @ v) + v @ (blocks.c_ll @ v)
        pts, wts = dg.gauss_points(dg.degree + 2)
        expected = 0.0
        for s, w in zip(pts.ravel(), wts.ravel()):
            factor = geom.gamma_at(s) * geom.section_circumference(s) * w
            gap = circle_mean(fem, geom, u, s, n_circle) - dg.evaluate(v, s)
            expected += factor * gap**2
        assert form == pytest.approx(expected, rel=1e-12)

    def test_impermeable_stretch_has_zero_rows(self):
        length = 0.8 * math.sqrt(3)
        geom = diagonal_geometry(
            PiecewisePermeability((length / 3, 2 * length / 3), (0.0, 0.05, 0.1))
        )
        fem = FemSpace(build_box_mesh(*CENTERED, 8))
        dg = DgSpace(Partition1D.uniform(geom.length, 9), 1)
        blocks = assemble_coupling(geom, fem, dg)
        ll = blocks.c_ll.toarray()
        lo = np.abs(blocks.c_lo).sum(axis=1)
        for e in range(dg.partition.n_elements):
            if dg.partition.nodes[e + 1] <= length / 3 + 1e-12:
                dofs = dg.element_dofs(e)
                assert np.abs(ll[dofs]).max() == 0.0
                assert np.max(lo[dofs]) == 0.0

    def test_refinement_stability(self, setup):
        # doubling the circle count moves no block entry by more than 1% of the scale
        geom, fem, dg = setup
        blocks = assemble_coupling(geom, fem, dg, n_circle=16)
        fine = assemble_coupling(geom, fem, dg, n_circle=32)
        scale = max(np.abs(b.data).max() for b in (blocks.c_oo, blocks.c_ll))
        for name in ("c_oo", "c_ol", "c_lo", "c_ll"):
            delta = getattr(fine, name) - getattr(blocks, name)
            change = float(np.abs(delta.data).max()) if delta.nnz else 0.0
            assert np.isfinite(change)
            assert change < 1e-2 * scale, f"{name}: {change} vs scale {scale}"


class TestExchangeProperties:
    """Mass-conservation structure of the blocks over random vessels."""

    @given(
        ends=st.tuples(*[st.floats(-0.4, 0.4) for _ in range(6)]).filter(
            lambda p: math.dist(p[:3], p[3:]) >= 0.3
        ),
        radius=st.one_of(
            st.builds(ConstantRadius, st.floats(0.02, 0.09)),
            st.builds(TanhRadius, st.floats(0.02, 0.05), st.floats(0.05, 0.09),
                      st.floats(1.0, 10.0)),
        ),
        cuts=st.tuples(st.floats(0.1, 0.45), st.floats(0.55, 0.9)),
        zero=st.integers(0, 2),
        degree=st.integers(1, 2),
        n_el=st.integers(3, 8),
        n_circle=st.sampled_from([4, 16, 64]),
    )
    def test_exchange_pairing(self, ends, radius, cuts, zero, degree, n_el, n_circle):
        length = math.dist(ends[:3], ends[3:])
        values = [0.1, 0.05, 0.2]
        values[zero] = 0.0  # one impermeable stretch
        breaks = (cuts[0] * length, cuts[1] * length)
        gamma = PiecewisePermeability(breaks, tuple(values))
        geom = VesselGeometry(ends[:3], ends[3:], radius, gamma)
        fem = FemSpace(build_box_mesh(*CENTERED, 4))
        dg = DgSpace(Partition1D.uniform(length, n_el), degree)
        blocks = assemble_coupling(geom, fem, dg, n_circle=n_circle)

        assert (blocks.c_lo != blocks.c_ol.T).nnz == 0
        ones = np.ones(fem.n_dofs)
        assert np.abs(blocks.c_oo @ ones - blocks.c_ol @ dg.constant_one()).max() <= 1e-12
        assert np.abs(blocks.c_ll @ dg.constant_one() - blocks.c_lo @ ones).max() <= 1e-12

        stretch = (0.0, *breaks, length)[zero : zero + 2]
        nodes = dg.partition.nodes
        for e in range(n_el):
            if stretch[0] <= nodes[e] and nodes[e + 1] <= stretch[1]:
                dofs = dg.element_dofs(e)
                assert blocks.c_ll[dofs].nnz == 0
                assert blocks.c_lo[dofs].nnz == 0

        rng = np.random.default_rng(n_el)
        for _ in range(4):
            u = rng.standard_normal(fem.n_dofs)
            v = rng.standard_normal(dg.n_dofs)
            form = u @ (blocks.c_oo @ u) - 2 * u @ (blocks.c_ol @ v) + v @ (blocks.c_ll @ v)
            au, av = np.abs(u), np.abs(v)
            scale = au @ (abs(blocks.c_oo) @ au) + av @ (abs(blocks.c_ll) @ av)
            assert form >= -1e-12 * scale
