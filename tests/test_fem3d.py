import tracemalloc

import numpy as np
import pytest

from vesselfem import fem3d, linalg, mesh3d, verify
from vesselfem.fem3d import ScalarField3
from vesselfem.mesh3d import FemSpace, build_box_mesh

from _oracles import constrain_rows, slot_map, tracemalloc_peak

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
        A = fem3d.assemble_stiffness(space, 1.0)
        ones = np.ones(space.n_dofs)
        assert np.abs(A @ ones).max() < 1e-12

    def test_affine_energy(self, space):
        A = fem3d.assemble_stiffness(space, 1.0)
        g = space.mesh.vertices[:, 0]
        assert abs(g @ (A @ g) - 1.0) < 1e-12

    def test_coefficient_scaling(self, space):
        A1 = fem3d.assemble_stiffness(space, 1.0)
        A2 = fem3d.assemble_stiffness(space, 2.0)
        assert abs(A2 - 2 * A1).max() < 1e-13


class TestConvection:
    def test_zero_velocity(self, space):
        B = fem3d.assemble_convection(space, (0.0, 0.0, 0.0))
        assert abs(B).max() == 0.0

    def test_odd_integrand_vanishes(self, space):
        B = fem3d.assemble_convection(space, (0.0, 0.0, 1.0))
        z = space.mesh.vertices[:, 2]
        assert abs(z @ (B @ z)) < 1e-13  # -\int z dz/dz over the symmetric cube

    def test_affine_pairing(self, space):
        B = fem3d.assemble_convection(space, (0.0, 0.0, 1.0))
        z = space.mesh.vertices[:, 2]
        ones = np.ones(space.n_dofs)
        assert abs(z @ (B @ ones) - (-1.0)) < 1e-12


class TestLoad:
    def test_constant_source_total(self, space):
        F = fem3d.assemble_load(space, ScalarField3(fn=lambda x, t: 1.0), t=0.0)
        assert abs(F.sum() - 1.0) < 1e-12

    def test_values_broadcast_to_the_block(self, space):
        """A field of x alone, or a constant, is broadcast over the block
        before it is scattered: its load is the full-shape field's."""
        full = lambda f: ScalarField3(fn=lambda x, t: np.broadcast_to(f(x), np.broadcast(*x).shape))
        for f in (lambda x: np.sin(3 * x[0]), lambda x: 2.5):
            assert np.array_equal(fem3d.assemble_load(space, ScalarField3(fn=lambda x, t: f(x)), 0.0),
                                  fem3d.assemble_load(space, full(f), 0.0))

    def test_zero_source(self, space):
        F = fem3d.assemble_load(space, ScalarField3.zero(), t=1.0)
        assert np.all(F == 0.0)

    def test_deterministic(self, space):
        f = ScalarField3(fn=lambda x, t: np.sin(x[0] * 3) + t * x[2] ** 2)
        F1 = fem3d.assemble_load(space, f, t=1.0)
        F2 = fem3d.assemble_load(space, f, t=1.0)
        assert np.array_equal(F1, F2)


def _sample_times(t):
    return (1.0, t, np.cos(t))


def _sample_parts(x):
    x, y, z = np.broadcast_arrays(*x)
    return np.stack([np.sin(3.0 * x) + y, z**2, np.exp(x * y)])


class TestSeparableSource:
    def test_fn_is_sum_of_terms(self):
        f = ScalarField3.separable(_sample_times, _sample_parts)
        x = tuple(np.random.default_rng(5).uniform(-0.5, 0.5, size=(3, 50)))
        for t in (0.0, 0.37, 1.0):
            expected = sum(g * p for g, p in zip(_sample_times(t), _sample_parts(x)))
            assert np.abs(f(x, t) - expected).max() < 1e-15
        assert f.times is _sample_times and f.parts is _sample_parts
        assert not f.is_zero

    def test_plain_field_has_no_terms(self):
        for f in (ScalarField3(fn=lambda x, t: x[0]), ScalarField3.zero()):
            assert f.times is None and f.parts is None

    @pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
    def test_projected_terms_match_plain_load(self, t):
        f = ScalarField3.separable(_sample_times, _sample_parts)
        fem = fem3d.box_level(4).space
        parts = fem3d.assemble_load(fem, ScalarField3(fn=lambda x, t: f.parts(x)), 0.0)
        combined = sum(float(g) * part for g, part in zip(f.times(t), parts))
        plain = fem3d.assemble_load(fem, ScalarField3(fn=f.fn), t)
        assert np.abs(combined - plain).max() <= 1e-13 * np.abs(plain).max()

    @pytest.mark.parametrize("n", [4, 8])
    def test_stacked_load_equals_per_part_loads(self, n):
        """One quadrature pass over stacked values gives each part's load
        vector bitwise as a pass of its own does."""
        space = fem3d.box_level(n).space
        parts = verify.ManufacturedSolution().f_parts
        stacked = fem3d.assemble_load(space, ScalarField3(fn=lambda x, t: parts(x)), 0.0)
        assert stacked.shape == (2, space.n_dofs)
        for k in range(2):
            single = fem3d.assemble_load(space, ScalarField3(fn=lambda x, t: parts(x)[k]), 0.0)
            assert np.array_equal(stacked[k], single)


class TestChunkedQuadrature:
    """Every consumer of the chunked tet quadrature is independent of the chunk size."""

    def _all(self):
        fem = FemSpace(build_box_mesh(*CENTERED, 4))
        fine = FemSpace(build_box_mesh(*CENTERED, 8))
        x, xf = fem.mesh.vertices, fine.mesh.vertices
        c = np.sin(3 * x[:, 0]) + x[:, 1] * x[:, 2]
        cf = np.cos(2 * xf[:, 2]) + xf[:, 0]
        exact = lambda p, t: np.sin(3 * p[0]) + t * p[1] ** 2
        exact_and_grad = lambda p, t: (exact(p, t), np.stack(
            np.broadcast_arrays(3 * np.cos(3 * p[0]), 2 * t * p[1], 0 * p[2]), axis=-1))
        ms = verify.ManufacturedSolution()
        return [
            fem3d.assemble_load(fem, ScalarField3(fn=exact), 0.7),
            fem3d.assemble_load(fem, ScalarField3(fn=lambda p, t: ms.f_parts(p)), 0.7),
            np.array(verify.error_norms_3d(fem, c, ms.c_and_grad, 0.7)),
            np.array(verify.error_norms_3d(fem, c, exact_and_grad, 0.7)),
            np.array(verify.error_norms_3d(fem, c, lambda p, t: (0.0, 0.0), 0.7)),
            np.array(verify.cross_error_3d(fem, c, fine, cf)),
        ]

    def test_chunk_size_does_not_matter(self, monkeypatch):
        whole = self._all()
        monkeypatch.setattr(mesh3d, "_CHUNK", 7)  # chunks of one cell: 64 chunks of 6 tets
        chunked = self._all()
        for a, b in zip(whole, chunked):
            assert np.abs(a - b).max() <= 1e-13 * np.abs(a).max()


COEFFICIENTS = {
    "mass": (lambda space: fem3d.assemble_mass(space), None),
    "kappa_constant": (
        lambda space: fem3d.assemble_stiffness(space, 2.5),
        lambda p, t: np.full(p.shape[0], 2.5),
    ),
    "velocity_constant": (
        lambda space: fem3d.assemble_convection(space, (1.0, 0.5, -2.0)),
        lambda p, t: np.broadcast_to((1.0, 0.5, -2.0), p.shape),
    ),
}


def _scatter_reference(space, kind):
    """The matrix tet by tet: per-tet gradients, order-2 points as barycentric
    combinations of the corners, one COO scatter."""
    mesh = space.mesh
    g = mesh.gradients
    bary, w = mesh3d.tet_quadrature(2)
    wq = 6.0 * mesh.tet_volume * w
    xq = np.einsum("qi,eic->eqc", bary, mesh.vertices[mesh.tets])
    field = COEFFICIENTS[kind][1]
    if kind == "mass":
        blocks = np.broadcast_to(np.einsum("q,qi,qj->ij", wq, bary, bary), (mesh.n_tets, 4, 4))
    elif kind.startswith("kappa"):
        kq = field(xq.reshape(-1, 3), 0.0).reshape(xq.shape[:2])
        blocks = np.einsum("eq,q,eic,ejc->eij", kq, wq, g, g)
    else:
        uq = field(xq.reshape(-1, 3), 0.0).reshape(xq.shape)
        blocks = -np.einsum("q,eqc,eic,qj->eij", wq, uq, g, bary)
    return linalg.scatter_blocks(space.n_dofs, (mesh.tets, blocks))


class TestSlotMap:
    """Every box matrix summed as a stencil on the cell grid equals a COO
    scatter of per-tet blocks, on the same CSR pattern."""

    @pytest.mark.parametrize("n", [4, 16])
    @pytest.mark.parametrize("kind", list(COEFFICIENTS))
    def test_matches_scatter_reference(self, n, kind):
        space = fem3d.box_level(n).space
        out = COEFFICIENTS[kind][0](space)
        ref = _scatter_reference(space, kind)
        assert np.array_equal(out.indptr, ref.indptr)
        assert np.array_equal(out.indices, ref.indices)
        assert np.abs(out.data - ref.data).max() <= 1e-14 * np.abs(ref.data).max()


class TestChunkedScatter:
    """The stencil sum adds every entry's terms in ascending tet order, so it
    equals the one-shot bincount through the slot map bit for bit."""

    def test_matches_one_shot_bincount(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            space = FemSpace(build_box_mesh(*CENTERED, n))
            blocks = rng.standard_normal((6, 4, 4))
            out = fem3d._assemble(space, blocks)
            weights = np.broadcast_to(blocks, (n**3, 6, 4, 4))
            one_shot = np.bincount(slot_map(space.mesh), weights=weights.ravel(),
                                   minlength=space.mesh.csr_pattern[1].size)
            assert np.array_equal(out.data, one_shot)

    def test_pattern_is_int32_and_read_only(self):
        mesh = build_box_mesh(*CENTERED, 3)
        indptr, indices = mesh.csr_pattern
        for a in (indptr, indices, mesh.tets):
            assert a.dtype == np.int32
        for a in (indptr, indices):
            assert not a.flags.writeable


class TestAssemblyMemory:
    """The box assembly's temporaries stay bounded at n = 32, and the cached
    level holds no per-tet map."""

    @pytest.mark.slow  # an n = 32 box level
    def test_constant_coefficient_matrices(self):
        space = fem3d.box_level(32).space
        limit = 12e6  # bytes; the stencil and the matrix data (4.3 MB each), int32 positions
        assert tracemalloc_peak(lambda: fem3d.assemble_mass(space)) < limit
        assert tracemalloc_peak(lambda: fem3d.assemble_convection(space, (0.3, -0.2, 0.7))) < limit

    def test_csr_pattern(self):
        mesh = build_box_mesh(*CENTERED, 32)
        assert tracemalloc_peak(lambda: mesh.csr_pattern) < 8e6  # indptr and indices are 2.3 MB

    @pytest.mark.slow  # an n = 32 box level
    def test_cached_level(self):
        tracemalloc.start()
        try:
            level = fem3d.box_level.__wrapped__(32)  # built afresh, outside the cache
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert level.mass.shape == (33**3, 33**3)
        assert live < 16e6  # bytes; mesh arrays, pattern and mass data


class TestDirichlet:
    def test_row_structure(self, space):
        A = fem3d.assemble_stiffness(space, 1.0)
        rows = np.nonzero(space.mesh.boundary_vertex)[0]
        A2 = constrain_rows(A, rows)
        for i in rows[:10]:
            row = A2.getrow(i)
            assert row.nnz == 1
            assert row[0, i] == 1.0

    def test_matches_dense_reference(self, space):
        A = fem3d.assemble_stiffness(space, 1.0) + fem3d.assemble_convection(space, (1.0, -2.0, 0.5))
        rows = np.nonzero(space.mesh.boundary_vertex)[0]
        free = np.nonzero(~space.mesh.boundary_vertex)[0]
        ref = A.toarray()
        ref[rows] = 0.0
        ref[rows, rows] = 1.0
        out = constrain_rows(A, rows)
        assert np.array_equal(out.toarray(), ref)
        assert out.has_sorted_indices
        # constrained rows store the diagonal 1 and nothing else
        assert np.all(np.diff(out.indptr)[rows] == 1)
        assert np.array_equal(out.indices[out.indptr[rows]], rows)
        assert np.array_equal(np.diff(out.indptr)[free], np.diff(A.indptr)[free])

    def test_homogeneous_solve_vanishes_on_boundary(self, space):
        A = fem3d.assemble_stiffness(space, 1.0)
        F = fem3d.assemble_load(space, ScalarField3(fn=lambda x, t: 1.0), 0.0)
        rows = np.nonzero(space.mesh.boundary_vertex)[0]
        F[rows] = 0.0
        x = linalg.Factorization(constrain_rows(A, rows)).solve(F)
        assert np.abs(x[space.mesh.boundary_vertex]).max() == 0.0
        assert x[~space.mesh.boundary_vertex].max() > 0  # -lap c = 1 has positive interior

    def test_exact_trace(self, space):
        g = lambda x, t: x[0] + 2 * x[1] - x[2] + t
        A = fem3d.assemble_stiffness(space, 1.0)
        F = np.zeros(space.n_dofs)
        rows = np.nonzero(space.mesh.boundary_vertex)[0]
        F[rows] = fem3d.dirichlet_values(space.mesh.vertices[rows], g, 0.5)
        x = linalg.Factorization(constrain_rows(A, rows)).solve(F)
        pts = space.mesh.vertices[space.mesh.boundary_vertex]
        assert np.array_equal(x[space.mesh.boundary_vertex], g(pts.T, 0.5))


class TestPoissonConvergence:
    def test_second_order_l2(self):
        # -lap g = -12 with g = x^2 + 2y^2 + 3z^2, exact trace on the boundary
        from vesselfem.verify import error_norms_3d

        g = lambda x, t: x[0] ** 2 + 2 * x[1] ** 2 + 3 * x[2] ** 2
        g_and_grad = lambda x, t: (g(x, t), np.stack(np.broadcast_arrays(2 * x[0], 4 * x[1], 6 * x[2]), axis=-1))
        errors = []
        for n in (4, 8, 16):
            sp_ = FemSpace(build_box_mesh(*CENTERED, n))
            A = fem3d.assemble_stiffness(sp_, 1.0)
            F = fem3d.assemble_load(sp_, ScalarField3(fn=lambda x, t: -12.0), 0.0)
            rows = np.nonzero(sp_.mesh.boundary_vertex)[0]
            F[rows] = fem3d.dirichlet_values(sp_.mesh.vertices[rows], g, 0.0)
            x = linalg.Factorization(constrain_rows(A, rows)).solve(F)
            l2, _ = error_norms_3d(sp_, x, g_and_grad, t=0.0)
            errors.append(l2)
        slopes = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(slopes >= 1.8)


class TestBoxBlock:
    """The box block is inv_dt * M + K + C summed as general sparse matrices,
    on the same nonzeros."""

    @pytest.mark.parametrize("n", [4, 16])
    def test_matches_general_sum(self, n):
        level = fem3d.box_level(n)
        kappa, velocity = 2.5, (1.0, 0.5, -2.0)
        block = fem3d.box_block(level, 7.0, kappa, velocity)
        general = (7.0 * level.mass + fem3d.assemble_stiffness(level.space, kappa)
                   + fem3d.assemble_convection(level.space, velocity))
        assert np.array_equal(block.indptr, general.indptr)
        assert np.array_equal(block.indices, general.indices)
        assert np.abs(block.data - general.data).max() <= 1e-15 * np.abs(general.data).max()
