"""Acceptance suite: one test per criterion, each at its stated tolerance.

Heavy runs are shared through module-scoped fixtures.  Every test prints a
single `[acceptance] criterion N: PASS/FAIL` line (visible with -s / -rA or in
the captured output of a failure).
"""
import math

import numpy as np
import pytest
import sympy as sp

from _oracles import dense_1d_operators, seminorm_matrix
from vesselfem import cli, coupling, dg1d, verify
from vesselfem.dg1d import DgParams, DgSpace, Partition1D
from vesselfem.geometry import ConstantPermeability, ConstantRadius, TanhRadius, VesselGeometry
from vesselfem.mesh3d import FemSpace, build_box_mesh
from vesselfem.stepper import CoupledSystem

CENTERED = ((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5))
ONE = lambda s: np.broadcast_to(1.0, np.shape(s))

# frozen reference magnitudes of the verification-study error norms
# at h = 1/4, 1/8, 1/16; the suite requires agreement within a factor of 2
REF_GRAD_3D = [2.5e-1, 1.4e-1, 9.1e-2]
REF_L2_3D = [1.9e-2, 5.4e-3, 1.7e-3]
REF_GRAD_1D = [5.0e-1, 2.5e-1, 1.3e-1]
REF_L2_1D = [4.1e-2, 2.3e-2, 1.3e-2]


def _report(criterion, ok, detail=""):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} {detail}",
          flush=True)


def _profiles():
    length = 0.8 * math.sqrt(3.0)
    for name, radius in (
        ("constant", ConstantRadius(0.05)),
        ("tanh", TanhRadius(0.05, 0.08, 8.0)),
    ):
        geom = VesselGeometry(
            (-0.4, -0.4, -0.4), (0.4, 0.4, 0.4), radius, ConstantPermeability(0.1)
        )
        yield name, geom, (lambda s, g=geom: g.section_area(s)), length


@pytest.fixture(scope="module")
def manufactured_report():
    return verify.convergence_study((4, 8, 16))


@pytest.fixture(scope="module")
def diagonal_reports():
    return {
        case: verify.self_convergence(cli.diagonal_problem(case), coarse_levels=(4, 8, 16), fine_n=32)
        for case in (1, 2, 3)
    }


@pytest.fixture(scope="module")
def extra_residuals():
    return []


def test_criterion_1_coercivity():
    rng = np.random.default_rng(101)
    worst = np.inf
    for eps, sigma in ((1, 50.0), (0, 50.0), (-1, 1.0)):
        params = DgParams(eps, sigma)
        for _, geom, area, length in _profiles():
            scale = 0.5 * min(geom.section_lower * 1.0, 1.0)
            for n_el in (2, 4, 8, 16):
                for degree in (1, 2):
                    space = DgSpace(Partition1D.uniform(length, n_el), degree)
                    A = dg1d.assemble_a_lambda(space, 1.0, area, params)
                    S = seminorm_matrix(space, params)
                    V = rng.standard_normal((1000, space.n_dofs))
                    lhs = np.einsum("ki,ki->k", V, (A @ V.T).T)
                    rhs = scale * np.einsum("ki,ki->k", V, (S @ V.T).T)
                    worst = min(worst, float((lhs - rhs).min()))
    ok = worst >= -1e-10
    _report(1, ok, f"(min slack {worst:.3e})")
    assert ok


def test_criterion_2_positivity():
    rng = np.random.default_rng(202)
    u_hat = 1.0
    worst = np.inf
    for _, geom, area, length in _profiles():
        for n_el in (2, 4, 8, 16):
            for degree in (1, 2):
                space = DgSpace(Partition1D.uniform(length, n_el), degree)
                B = dg1d.assemble_b_lambda(space, u_hat, area)
                nodes = space.partition.nodes
                vl, _ = dg1d.legendre_basis(np.float64(-1.0), degree)
                vr, _ = dg1d.legendre_basis(np.float64(1.0), degree)
                V = rng.standard_normal((1000, space.n_dofs))
                lhs = np.einsum("ki,ki->k", V, (B @ V.T).T)
                nl = degree + 1
                rhs = 0.5 * float(area(nodes[0])) * u_hat * (V[:, :nl] @ vl) ** 2
                rhs += 0.5 * float(area(nodes[-1])) * u_hat * (V[:, -nl:] @ vr) ** 2
                for i in range(1, n_el):
                    jumps = V[:, (i - 1) * nl : i * nl] @ vr - V[:, i * nl : (i + 1) * nl] @ vl
                    rhs += 0.5 * float(area(nodes[i])) * u_hat * jumps**2
                worst = min(worst, float((lhs - rhs).min()))
    ok = worst >= -1e-10
    _report(2, ok, f"(min slack {worst:.3e})")
    assert ok


def test_criterion_3_dense_oracle_equivalence():
    nodes = [sp.Integer(0), sp.Rational(1, 2), sp.Integer(1)]
    one = lambda s: sp.Integer(1)
    worst = 0.0
    for degree in (1, 2):
        space = DgSpace(Partition1D.uniform(1.0, 2), degree)
        M = dg1d.assemble_mass_weighted(space, ONE).toarray()
        A = dg1d.assemble_a_lambda(space, 1.0, ONE, DgParams(1, 50.0)).toarray()
        B = dg1d.assemble_b_lambda(space, 1.0, ONE).toarray()
        inflow = dg1d.assemble_inflow_rhs(space, ONE, 1.0, 1.0)
        M_ref, A_ref, B_ref, in_ref = dense_1d_operators(
            nodes, degree, 1.0, one, 1, 50, 1, 1
        )
        for mine, ref in ((M, M_ref), (A, A_ref), (B, B_ref), (inflow, in_ref)):
            worst = max(worst, float(np.abs(mine - ref).max()))
    ok = worst < 1e-12
    _report(3, ok, f"(max entry deviation {worst:.3e})")
    assert ok


def test_criterion_4_coupling_structure():
    geom = VesselGeometry(
        (0, 0, -0.5), (0, 0, 0.5), ConstantRadius(0.05), ConstantPermeability(1.0)
    )
    fem = FemSpace(build_box_mesh(*CENTERED, 8))
    dg = DgSpace(Partition1D.uniform(geom.length, 8), 1)
    blocks = coupling.assemble_coupling(geom, fem, dg)

    transpose_gap = float(np.abs(blocks.c_lo - blocks.c_ol.T).max())

    rng = np.random.default_rng(404)
    U = rng.standard_normal((1000, fem.n_dofs))
    V = rng.standard_normal((1000, dg.n_dofs))
    q = (
        np.einsum("ki,ki->k", U, (blocks.c_oo @ U.T).T)
        - 2 * np.einsum("ki,ki->k", U, (blocks.c_ol @ V.T).T)
        + np.einsum("ki,ki->k", V, (blocks.c_ll @ V.T).T)
    )
    qmin = float(q.min())

    geom0 = VesselGeometry(
        (0, 0, -0.5), (0, 0, 0.5), ConstantRadius(0.05), ConstantPermeability(0.0)
    )
    zero_blocks = coupling.assemble_coupling(geom0, fem, dg)
    zero_nnz = sum(
        b.nnz for b in (zero_blocks.c_oo, zero_blocks.c_ol, zero_blocks.c_lo, zero_blocks.c_ll)
    )

    alpha = 2.3
    c = np.full(fem.n_dofs, alpha)
    c_hat = alpha * dg.constant_one()
    resid = max(
        float(np.abs(blocks.c_oo @ c - blocks.c_ol @ c_hat).max()),
        float(np.abs(blocks.c_ll @ c_hat - blocks.c_lo @ c).max()),
    )

    ok = transpose_gap < 1e-13 and qmin >= -1e-12 and zero_nnz == 0 and resid < 1e-12
    _report(4, ok, f"(transpose {transpose_gap:.1e}, form min {qmin:.1e}, "
                   f"zero-gamma nnz {zero_nnz}, constant resid {resid:.1e})")
    assert ok


def test_criterion_5_source_oracle():
    res = verify.verify_sources(n_points=1000, seed=0)
    ok = (
        res["f"] <= verify.F_RESIDUAL_TOL
        and res["f_hat"] <= verify.FHAT_RESIDUAL_TOL
        and res["c_in"] == 0.0
    )
    _report(5, ok, f"(f {res['f']:.2e} <= 1e-5, f_hat {res['f_hat']:.2e} <= 1e-8, "
                   f"c_in gap {res['c_in']:.1e})")
    assert ok


def test_criterion_6_convergence_tables(manufactured_report):
    rep = manufactured_report
    checks = []
    for mine, ref in (
        (rep.grad3, REF_GRAD_3D),
        (rep.l2_3, REF_L2_3D),
        (rep.grad1, REF_GRAD_1D),
        (rep.l2_1, REF_L2_1D),
    ):
        for m, r in zip(mine, ref):
            checks.append(0.5 <= m / r <= 2.0)
    rates1 = rep.rates("grad1")
    checks += [abs(r - 0.99) <= 0.15 for r in rates1]
    checks += [0.5 <= r <= 1.0 for r in rep.rates("grad3")]
    checks += [r >= 1.5 for r in rep.rates("l2_3")]
    checks += [r >= 0.7 for r in rep.rates("l2_1")]
    ok = all(checks)
    _report(6, ok, f"(grad3 {['%.2e' % e for e in rep.grad3]}, "
                   f"rates1 {['%.2f' % r for r in rates1]})")
    assert ok


def test_criterion_7_energy_decay(extra_residuals):
    from vesselfem.fem3d import ScalarField3
    from vesselfem.stepper import TransportProblem

    geom = VesselGeometry(
        (0, 0, -0.5), (0, 0, 0.5), ConstantRadius(0.05), ConstantPermeability(1.0)
    )
    worst_rise = -np.inf
    for velocity in ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0)):
        problem = TransportProblem(
            geometry=geom,
            kappa=1.0,
            kappa_hat=1.0,
            velocity=velocity,
            u_hat=1.0,
            source3=ScalarField3.zero(),
            source1=None,
            c_in=None,
            dirichlet=None,
            t_end=50 * 0.0125,
            dg=DgParams(1, 50.0),
            degree=1,
            dt=0.0125,
        )
        system = CoupledSystem(problem, n_cells=8)
        rng = np.random.default_rng(7)
        state = system.initialize()
        state.c = rng.standard_normal(system.fem.n_dofs)
        state.c[system.fem.mesh.boundary_vertex] = 0.0
        state.c_hat = rng.standard_normal(system.dg.n_dofs)
        energies = [system.energy(state)]
        for _ in range(50):
            state = system.step(state)
            energies.append(system.energy(state))
        extra_residuals.append(system.factorization.max_residual)
        worst_rise = max(worst_rise, float(np.diff(energies).max()))
    ok = worst_rise <= 1e-10
    _report(7, ok, f"(max energy increase over any step {worst_rise:.3e})")
    assert ok


@pytest.mark.slow  # the n = 32 references of diagonal_reports
def test_criterion_8a_diagonal_self_convergence(diagonal_reports):
    checks = []
    details = []
    for case in (1, 2, 3):
        rep = diagonal_reports[case]
        mono3 = all(a > b for a, b in zip(rep.err3, rep.err3[1:]))
        mono1 = all(a > b for a, b in zip(rep.err1, rep.err1[1:]))
        checks += [mono3, mono1]
        details.append(f"case{case} mono ({mono3},{mono1})")
        if case == 1:
            finest = rep.rates("err3")[-1]
            checks.append(finest >= 1.0)
            details.append(f"case1 finest 3D rate {finest:.2f}")

    # impermeable inlet third: the coupling rows there are exactly zero
    geom3 = cli.diagonal_problem(3).geometry
    fem = FemSpace(build_box_mesh(*CENTERED, 8))
    dg = DgSpace(Partition1D.uniform(geom3.length, 9), 1)
    blocks = coupling.assemble_coupling(geom3, fem, dg)
    ll = np.abs(blocks.c_ll).sum(axis=1)
    lo = np.abs(blocks.c_lo).sum(axis=1)
    inlet_zero = True
    for e in range(dg.partition.n_elements):
        if dg.partition.nodes[e + 1] <= geom3.length / 3 + 1e-12:
            dofs = dg.element_dofs(e)
            inlet_zero &= float(np.max(ll[dofs])) == 0.0 and float(np.max(lo[dofs])) == 0.0
    checks.append(inlet_zero)
    details.append(f"case3 inlet rows zero {inlet_zero}")

    ok = all(checks)
    _report("8a", ok, "(" + "; ".join(details) + ")")
    assert ok


@pytest.mark.slow  # the n = 32 references of diagonal_reports
def test_criterion_8b_vessel_mass_ordering(diagonal_reports):
    """Stated check: case-2 final vessel mass below case 1.

    The model cannot produce this ordering for the area-weighted mass
    integral (see README "Install and test"): the per-concentration drain rate
    2 gamma / R falls with radius while the vessel volume grows as R^2, so
    the widening case-2 vessel retains more weighted mass.  An independent
    finite-volume discretization confirms the inversion.  The unweighted
    concentration integral does order case 2 below case 1 and is printed
    alongside.  Kept as stated; fails honestly.
    """
    mass1 = diagonal_reports[1].fine_vessel_mass
    mass2 = diagonal_reports[2].fine_vessel_mass
    ok = mass2 < mass1
    _report("8b", ok, f"(area-weighted mass: case1 {mass1:.4e}, case2 {mass2:.4e}; "
                      f"the concentration integral does satisfy case2 < case1 -- "
                      f"see README \"Install and test\")")
    assert ok, (
        f"case-2 vessel mass {mass2:.4e} is not below case-1 {mass1:.4e}; "
        "verified model behavior contradicts the stated check "
        "(analysis in README \"Install and test\")"
    )


@pytest.mark.slow  # the n = 32 references of diagonal_reports
def test_criterion_9_solver_contract(manufactured_report, diagonal_reports, extra_residuals):
    residuals = [manufactured_report.max_residual]
    residuals += [diagonal_reports[c].max_residual for c in (1, 2, 3)]
    residuals += extra_residuals
    worst = max(residuals)
    ok = worst <= 1e-10
    _report(9, ok, f"(max relative residual over acceptance runs {worst:.3e})")
    assert ok
