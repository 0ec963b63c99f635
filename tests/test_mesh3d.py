from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi, roots_legendre

from _oracles import evaluate_one_piece, simplex_moment
from vesselfem import mesh3d
from vesselfem.errors import ConfigError, DomainError
from vesselfem.geometry import ConstantPermeability, ConstantRadius, VesselGeometry
from vesselfem.mesh3d import POINT_BLOCK, FemSpace, build_box_mesh, tet_quadrature

UNIT = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
CENTERED = ((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
# the order-4 tet rule's 3-point Gauss factors as SciPy computes them
SCIPY_GAUSS_FACTORS = (roots_jacobi(3, 2.0, 0.0), roots_jacobi(3, 1.0, 0.0), roots_legendre(3))


class TestBuild:
    def test_counts_n2(self):
        mesh = build_box_mesh(*UNIT, 2)
        assert mesh.n_vertices == 27
        assert mesh.n_tets == 48
        assert abs(mesh.volumes.sum() - 1.0) < 1e-14

    def test_counts_n4_centered(self):
        mesh = build_box_mesh(*CENTERED, 4)
        assert mesh.n_vertices == 125
        assert mesh.n_tets == 384

    def test_volume_partition_n8(self):
        mesh = build_box_mesh(*UNIT, 8)
        assert abs(mesh.volumes.sum() - 1.0) < 1e-12

    def test_positive_volumes(self):
        mesh = build_box_mesh(*CENTERED, 3)
        assert np.all(mesh.volumes > 0)

    def test_face_conformity(self):
        mesh = build_box_mesh(*UNIT, 2)
        faces = Counter()
        for tet in mesh.tets:
            for tri in combinations(sorted(tet), 3):
                faces[tri] += 1
        assert set(faces.values()) <= {1, 2}
        verts = mesh.vertices
        for tri, count in faces.items():
            if count == 1:
                pts = verts[list(tri)]
                on_plane = [
                    np.allclose(pts[:, ax], v)
                    for ax in range(3)
                    for v in (0.0, 1.0)
                ]
                assert any(on_plane)

    def test_boundary_mask(self):
        n = 3
        mesh = build_box_mesh(*UNIT, n)
        assert mesh.boundary_vertex.sum() == (n + 1) ** 3 - (n - 1) ** 3
        inner = mesh.vertices[~mesh.boundary_vertex]
        assert np.all((inner > 0) & (inner < 1))

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            build_box_mesh(*UNIT, 1)
        with pytest.raises(ConfigError):
            build_box_mesh((0, 0, 0), (1, -1, 1), 4)


class TestLocate:
    def test_vertex(self):
        mesh = build_box_mesh(*CENTERED, 4)
        vid = 37
        tet, bary = mesh.locate_many(mesh.vertices[vid][None])
        assert bary[0].max() > 1 - 1e-12
        assert vid in mesh.tets[tet[0]]

    def test_centroid_of_tet0(self):
        mesh = build_box_mesh(*UNIT, 2)
        centroid = mesh.vertices[mesh.tets[0]].mean(axis=0)
        tet, bary = mesh.locate_many(centroid[None])
        assert tet[0] == 0
        assert np.allclose(bary[0], 0.25, atol=1e-13)

    def test_affine_reproduction_bulk(self):
        mesh = build_box_mesh(*CENTERED, 8)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.5, 0.5, size=(100_000, 3))
        coef = np.array([1.5, -2.0, 0.5])
        dofs = mesh.vertices @ coef + 0.25
        tets, bary = mesh.locate_many(pts)
        vals = np.einsum("pi,pi->p", bary, dofs[mesh.tets[tets]])
        assert np.abs(vals - (pts @ coef + 0.25)).max() < 1e-12

    def test_reconstruction(self):
        mesh = build_box_mesh(*UNIT, 4)
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1, size=(2000, 3))
        tets, bary = mesh.locate_many(pts)
        rec = np.einsum("pi,pic->pc", bary, mesh.vertices[mesh.tets[tets]])
        assert np.abs(rec - pts).max() < 1e-12
        assert bary.min() > -1e-12
        assert bary.max() < 1 + 1e-12

    def test_boundary_faces_and_corners(self):
        mesh = build_box_mesh(*UNIT, 3)
        for p in [(0, 0, 0), (1, 1, 1), (0.5, 1.0, 0.25), (1e-13, 0.3, 0.99)]:
            _, bary = mesh.locate_many(np.array(p, dtype=float)[None])
            assert bary.min() > -1e-9

    def test_round_off_outside_is_clamped(self):
        # within the box tolerance: located at the nearest box point
        mesh = build_box_mesh(*UNIT, 3)
        pts = np.array([[-5e-13, 0.5, 0.2], [1 + 5e-13, -5e-13, 0.7], [0.4, 1 + 5e-13, 1 + 5e-13]])
        tets, bary = mesh.locate_many(pts)
        assert bary.min() >= 0.0
        rec = np.einsum("pi,pic->pc", bary, mesh.vertices[mesh.tets[tets]])
        assert np.abs(rec - np.clip(pts, 0.0, 1.0)).max() < 1e-15

    def test_outside_raises(self):
        mesh = build_box_mesh(*UNIT, 2)
        with pytest.raises(DomainError):
            mesh.locate_many(np.array([1.1, 0.5, 0.5])[None])

    def test_roundtrip_with_circle_points(self):
        # circle quadrature points along the vessel land in valid tets
        mesh = build_box_mesh(*CENTERED, 8)
        geom = VesselGeometry(
            (0, 0, -0.5), (0, 0, 0.5), ConstantRadius(0.05), ConstantPermeability(1.0)
        )
        for s in np.linspace(0, geom.length, 1000):
            pts = geom.circle_points(s, 8)
            tets, bary = mesh.locate_many(pts)
            rec = np.einsum("pi,pic->pc", bary, mesh.vertices[mesh.tets[tets]])
            assert np.abs(rec - pts).max() < 1e-10


class TestEvaluateBlocks:
    """evaluate locates and contracts POINT_BLOCK points at a time, and equals,
    byte for byte, every point located and contracted at once."""

    def test_many_blocks(self):
        fem = FemSpace(build_box_mesh(*CENTERED, 8))
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.5, 0.5, size=(2 * POINT_BLOCK + 17, 3))
        pts[::97] = fem.mesh.vertices[rng.integers(fem.n_dofs, size=pts[::97].shape[0])]  # on vertices and faces
        dofs = rng.standard_normal(fem.n_dofs)
        values = fem.evaluate(dofs, pts)
        expected = evaluate_one_piece(fem, dofs, pts)
        assert values.shape == expected.shape and values.dtype == expected.dtype
        assert values.tobytes() == expected.tobytes()

    def test_one_point_and_integer_dofs(self):
        fem = FemSpace(build_box_mesh(*CENTERED, 4))
        dofs = np.arange(fem.n_dofs)
        point = np.array([0.1, -0.2, 0.3])
        np.testing.assert_array_equal(fem.evaluate(dofs, point), evaluate_one_piece(fem, dofs, point[None]))
        assert fem.evaluate(dofs, point).dtype == np.float64

    def test_outside_point_in_a_later_block(self):
        fem = FemSpace(build_box_mesh(*CENTERED, 4))
        pts = np.zeros((POINT_BLOCK + 3, 3))
        pts[-1] = (0.0, 0.0, 0.7)
        with pytest.raises(DomainError, match="outside the box"):
            fem.evaluate(np.zeros(fem.n_dofs), pts)


class TestQuadrature:
    @pytest.mark.parametrize("order", [2, 4])
    def test_weight_sum(self, order):
        _, w = tet_quadrature(order)
        assert abs(w.sum() - 1 / 6) < 1e-15

    @pytest.mark.parametrize("order", [2, 4])
    def test_monomial_exactness(self, order):
        bary, w = tet_quadrature(order)
        xyz = bary[:, 1:]
        for a in range(order + 1):
            for b in range(order + 1 - a):
                for c in range(order + 1 - a - b):
                    quad = np.sum(w * xyz[:, 0] ** a * xyz[:, 1] ** b * xyz[:, 2] ** c)
                    assert abs(quad - simplex_moment(a, b, c)) < 1e-15

    def test_x2y2_moment(self):
        bary, w = tet_quadrature(4)
        xyz = bary[:, 1:]
        quad = np.sum(w * xyz[:, 0] ** 2 * xyz[:, 1] ** 2)
        assert abs(quad - 1.0 / 1260.0) < 1e-14

    def test_unsupported_order(self):
        with pytest.raises(ConfigError):
            tet_quadrature(3)

    def test_stored_gauss_factors_are_scipys(self):
        for stored, (x, w) in zip(mesh3d._GAUSS_FACTORS, SCIPY_GAUSS_FACTORS, strict=True):
            assert np.array_equal(stored[0], x) and np.array_equal(stored[1], w)

    def test_order4_rule_is_the_collapse_of_scipys_roots(self):
        """Stroud's conical product: x = a, y = b(1-a), z = c(1-a)(1-b) with
        Gauss-Jacobi a, b and Gauss-Legendre c mapped to [0, 1]; bitwise."""
        (xa, wa), (xb, wb), (xc, wc) = SCIPY_GAUSS_FACTORS
        xa, wa = 0.5 * (xa + 1.0), wa / 8.0
        xb, wb = 0.5 * (xb + 1.0), wb / 4.0
        xc, wc = 0.5 * (xc + 1.0), wc / 2.0
        A, B, C = np.meshgrid(xa, xb, xc, indexing="ij")
        WA, WB, WC = np.meshgrid(wa, wb, wc, indexing="ij")
        x, y, z = A.ravel(), (B * (1.0 - A)).ravel(), (C * (1.0 - A) * (1.0 - B)).ravel()
        bary, w = tet_quadrature(4)
        assert bary.tobytes() == np.stack([1.0 - x - y - z, x, y, z], axis=1).tobytes()
        assert w.tobytes() == (WA * WB * WC).ravel().tobytes()

    def test_rule_computed_once_and_read_only(self):
        bary, w = tet_quadrature(4)
        assert tet_quadrature(4)[0] is bary
        with pytest.raises(ValueError):
            w[0] = 0.0

    @pytest.mark.parametrize("n, order, chunk, full", [
        (24, 2, 65536, (4, 24, 24)),  # whole i-planes
        (24, 4, 65536, (1, 16, 24)),  # whole k-rows of one plane
        (6, 4, 5 * 162, (1, 1, 5)),  # part of one row
        (4, 4, 7, (1, 1, 1)),  # one cell holds more than a block
    ], ids=["2", "4", "4-part-row", "4-one-cell"])
    def test_points_from_cell_origins_match_corners(self, n, order, chunk, full, monkeypatch):
        """Blocks are boxes of whole cells that tile the tets in order, each
        as large as ``full`` unless the grid ends first, of at most _CHUNK
        points unless one cell; a point is its cell origin plus a per-shape
        offset, bitwise, as its broadcast axes give it, and the barycentric
        combination of the tet corners."""
        monkeypatch.setattr(mesh3d, "_CHUNK", chunk)
        mesh = build_box_mesh(*CENTERED, n)
        bary, w = tet_quadrature(order)
        corners = mesh.vertices[mesh.tets[:6]]
        offsets = np.einsum("qi,sic->sqc", bary, corners - corners[:, :1]).reshape(-1, 3)
        blocks = list(zip(mesh.quadrature(order), mesh.quadrature(order, axes=True)))
        assert len(blocks) > 1
        stop = 0
        for (sl, xq, wq), (sl_axes, axes, wq_axes) in blocks:
            assert sl == sl_axes and sl.start == stop and np.array_equal(wq, wq_axes)
            extent = tuple(a.shape[d] for d, a in enumerate(axes))
            assert [a.shape for a in axes] == [tuple(e if d == c else 1 for d in range(3)) + (6 * w.size,)
                                               for c, e in enumerate(extent)]  # X, Y, Z
            first = np.unravel_index(sl.start // 6, (n,) * 3)
            assert extent == tuple(min(f, n - a) for f, a in zip(full, first))
            box = np.ravel_multi_index(np.ix_(*(range(a, a + e) for a, e in zip(first, extent))), (n,) * 3)
            assert np.array_equal(box.ravel(), np.arange(sl.start // 6, sl.stop // 6))
            assert xq.shape[0] <= mesh3d._CHUNK or sl.stop - sl.start == 6
            origins = mesh.vertices[mesh.tets[sl][::6, 0]]
            assert np.array_equal(xq, (origins[:, None] + offsets).reshape(-1, 3))
            assert np.array_equal(xq, np.stack(np.broadcast_arrays(*axes), axis=-1).reshape(-1, 3))
            ref = np.einsum("qi,eic->eqc", bary, mesh.vertices[mesh.tets[sl]]).reshape(-1, 3)
            assert np.abs(xq - ref).max() <= 1e-15
            assert wq.shape == (sl.stop - sl.start, w.size)
            assert np.abs(wq - 6.0 * mesh.tet_volume * w).max() <= 1e-15 * wq.max()
            stop = sl.stop
        assert stop == mesh.n_tets


class TestShapeFunctions:
    def test_kronecker(self):
        # P1 values are the barycentric coordinates: one at their own vertex
        mesh = build_box_mesh(*UNIT, 2)
        tets, bary = mesh.locate_many(mesh.vertices)
        own = mesh.tets[tets] == np.arange(mesh.n_vertices)[:, None]
        assert np.all(own.sum(axis=1) == 1)
        assert np.allclose(bary, own, atol=1e-14)

    @given(st.integers(0, 47), st.tuples(*[st.floats(0.01, 1.0) for _ in range(4)]))
    def test_partition_of_unity(self, tet, raw):
        mesh = build_box_mesh(*UNIT, 2)
        bary = np.asarray(raw) / sum(raw)
        point = bary @ mesh.vertices[mesh.tets[tet]]
        found, coords = mesh.locate_many(point[None])
        assert found[0] == tet  # interior point: its own tet
        assert abs(coords[0].sum() - 1.0) < 1e-13
        assert np.abs(coords[0] - bary).max() < 1e-13
        assert np.abs(mesh.shape_gradients[tet % 6].sum(axis=0)).max() < 1e-12

    def test_affine_gradient_exact(self):
        mesh = build_box_mesh(*CENTERED, 3)
        coef = np.array([2.0, -1.0, 3.0])
        dofs = mesh.vertices @ coef
        grads = np.einsum("eic,ei->ec", mesh.gradients, dofs[mesh.tets])
        assert np.abs(grads - coef).max() < 1e-12


ANISO = ((0.0, 0.0, 0.0), (1.0, 2.0, 0.5))


def _cell_offset(shared):
    # a coordinate inside its cell: anywhere, on a cell face, or on an inner
    # Kuhn face (equal to the shared offset of another coordinate)
    return st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]), st.just(shared))


@st.composite
def _snapped_points(draw):
    n = draw(st.integers(2, 6))
    points = []
    for _ in range(draw(st.integers(1, 20))):
        cell = np.array([draw(st.integers(0, n - 1)) for _ in range(3)])
        shared = draw(st.floats(0.0, 1.0))
        offset = np.array([draw(_cell_offset(shared)) for _ in range(3)])
        points.append(cell + offset)
    lo, hi = (np.asarray(b) for b in ANISO)
    return n, lo + np.array(points) * (hi - lo) / n


class TestKuhnShapes:
    """The six shapes of the Kuhn split stand for every tet of the box."""

    @settings(max_examples=200)
    @given(_snapped_points())
    def test_location_on_faces_edges_and_corners(self, case):
        n, pts = case
        mesh = build_box_mesh(*ANISO, n)
        tets, bary = mesh.locate_many(pts)
        assert bary.min() >= -1e-14
        assert np.abs(bary.sum(axis=1) - 1.0).max() <= 1e-14
        rec = np.einsum("pi,pic->pc", bary, mesh.vertices[mesh.tets[tets]])
        assert np.abs(rec - pts).max() <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_shape_table_matches_per_tet_inverse(self, n):
        mesh = build_box_mesh(*ANISO, n)
        corners = mesh.vertices[mesh.tets]
        edges = corners[:, 1:] - corners[:, :1]
        inv = np.transpose(np.linalg.inv(edges), (0, 2, 1))
        grads = np.concatenate([-inv.sum(axis=1, keepdims=True), inv], axis=1)
        table = mesh.shape_gradients[np.arange(mesh.n_tets) % 6]
        assert np.abs(table - grads).max() <= 1e-13
        assert np.abs(np.linalg.det(edges) / 6.0 - mesh.tet_volume).max() <= 1e-13 * mesh.tet_volume


class TestDissectionOrder:
    """The level's nested-dissection order is a cached, read-only permutation
    of the interior vertices."""

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 16])
    def test_read_only_permutation_of_interior(self, n):
        mesh = build_box_mesh(*CENTERED, n)
        order = mesh.dissection_order
        assert np.array_equal(np.sort(order), np.flatnonzero(~mesh.boundary_vertex))
        assert mesh.dissection_order is order
        with pytest.raises(ValueError):
            order[0] = order[0]
