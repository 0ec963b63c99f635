"""Independent reference computations used to pin expected values.

The 1D operators are assembled term by term with sympy in exact rational
arithmetic, and the simplex moments come from the closed-form factorial
formula; neither shares code with the package.  The DG traces, jumps and the
broken seminorm are per-node references that the vectorised face terms are
checked against; they take only the Legendre basis, the element quadrature
and the block scatter from the package, which is also built from COO
triplets by SciPy.  The slot map finds every tet block entry's data
position on the box pattern by searching the pattern's (row, column) keys,
the reference the box stencil sum is checked against.
The reference march keeps the backward Euler step as one formula per step,
the L2 projection keeps its own quadrature formula, and the two space parts of the manufactured bulk source are the closed forms
as first written, one function each.  The smooth coupled pair
takes its vessel field from the closed-form circle average (a Bessel
function) of its box field.  The diagonal-line cases are written
out by hand, as they were before they became run configurations.  The
exchange blocks are also formed as SciPy's products of the weight
diagonal, and the coupled operator is composed the general way, as sparse sums of its
parts stacked, Dirichlet rows constrained and permuted into the LU's order,
and the source gate runs its points in batches, one per time sample.  The
box error norms also come restricted to the tets away from an axis.  P1
point evaluation and the circle-average matrix are also formed in one piece,
every point located at once.  The tracemalloc peak of one call is read here
for every memory test.
"""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import scipy.sparse as sparse
import sympy as sp
from scipy.special import j0

from vesselfem import coupling, dg1d, fem3d, verify
from vesselfem.dg1d import DgParams, legendre_basis
from vesselfem.errors import DomainError
from vesselfem.fem3d import ScalarField3
from vesselfem.geometry import (
    ConstantPermeability,
    ConstantRadius,
    PiecewisePermeability,
    TanhRadius,
    VesselGeometry,
)
from vesselfem.linalg import scatter_blocks
from vesselfem.mesh3d import tet_quadrature
from vesselfem.stepper import CoupledState, TransportProblem


def simplex_moment(a: int, b: int, c: int) -> float:
    """Integral of x^a y^b z^c over the reference tetrahedron."""
    return (
        math.factorial(a) * math.factorial(b) * math.factorial(c)
        / math.factorial(a + b + c + 3)
    )


def _basis(nodes, degree, s):
    """(element index, expression) per dof; shifted Legendre on each element."""
    out = []
    for e in range(len(nodes) - 1):
        a, b = nodes[e], nodes[e + 1]
        xi = 2 * (s - a) / (b - a) - 1
        for j in range(degree + 1):
            out.append((e, sp.legendre(j, xi)))
    return out


def dense_1d_operators(nodes, degree, kappa, area, u_hat, sigma, epsilon, c_in):
    """Weighted mass, penalty diffusion, upwind advection and inflow vector.

    ``nodes`` should be sympy Rationals; ``kappa`` is a float, taken at its
    exact binary value, and ``area`` maps a sympy symbol to an expression.
    Returns float arrays evaluated from the exact rational entries.
    """
    s = sp.Symbol("s")
    kappa = sp.Rational(kappa)
    n_el = len(nodes) - 1
    basis = _basis(nodes, degree, s)
    ndof = len(basis)
    h_max = max(nodes[e + 1] - nodes[e] for e in range(n_el))
    M = sp.zeros(ndof, ndof)
    A = sp.zeros(ndof, ndof)
    B = sp.zeros(ndof, ndof)

    for r, (er, fr) in enumerate(basis):
        for c, (ec, fc) in enumerate(basis):
            if er != ec:
                continue
            lo, hi = nodes[er], nodes[er + 1]
            M[r, c] = sp.integrate(area(s) * fr * fc, (s, lo, hi))
            A[r, c] = sp.integrate(
                area(s) * kappa * sp.diff(fr, s) * sp.diff(fc, s), (s, lo, hi)
            )
            B[r, c] = -sp.integrate(area(s) * u_hat * fc * sp.diff(fr, s), (s, lo, hi))

    def trace(expr, at):
        return expr.subs(s, at)

    for i in range(1, n_el):
        si = nodes[i]
        coef = area(si) * kappa
        jump = [sp.Integer(0)] * ndof
        avg_d = [sp.Integer(0)] * ndof
        upwind = [sp.Integer(0)] * ndof
        for r, (er, fr) in enumerate(basis):
            if er == i - 1:
                jump[r] = trace(fr, si)
                avg_d[r] = coef * trace(sp.diff(fr, s), si) / 2
                upwind[r] = trace(fr, si)
            elif er == i:
                jump[r] = -trace(fr, si)
                avg_d[r] = coef * trace(sp.diff(fr, s), si) / 2
        for r in range(ndof):
            for c in range(ndof):
                A[r, c] += (
                    -jump[r] * avg_d[c]
                    - epsilon * avg_d[r] * jump[c]
                    + sp.Rational(sigma) / h_max * jump[r] * jump[c]
                )
                B[r, c] += area(si) * u_hat * upwind[c] * jump[r]

    s_end = nodes[-1]
    for r, (er, fr) in enumerate(basis):
        if er != n_el - 1:
            continue
        for c, (ec, fc) in enumerate(basis):
            if ec != n_el - 1:
                continue
            B[r, c] += area(s_end) * u_hat * trace(fr, s_end) * trace(fc, s_end)

    inflow = sp.zeros(ndof, 1)
    for r, (er, fr) in enumerate(basis):
        if er == 0:
            inflow[r] = area(nodes[0]) * u_hat * c_in * trace(fr, nodes[0])

    to_np = lambda m: np.array(m.tolist(), dtype=float)
    return to_np(M), to_np(A), to_np(B), to_np(inflow).ravel()


def trace_eval(space, dofs, i: int, side: str) -> float:
    """One-sided value at partition node s_i; side is '-' (left) or '+' (right)."""
    if side not in ("-", "+"):
        raise ValueError("side must be '-' or '+'")
    n = space.partition.n_elements
    if side == "-":
        if i < 1 or i > n:
            raise DomainError(f"no left trace at node {i}")
        e = i - 1
        vals, _ = legendre_basis(np.float64(1.0), space.degree)
    else:
        if i < 0 or i > n - 1:
            raise DomainError(f"no right trace at node {i}")
        e = i
        vals, _ = legendre_basis(np.float64(-1.0), space.degree)
    return float(vals @ np.asarray(dofs)[space.element_dofs(e)])


def jump(space, dofs, i: int) -> float:
    """Jump v(s_i-) - v(s_i+) at an interior node."""
    if i < 1 or i > space.partition.n_elements - 1:
        raise DomainError(f"node {i} is not an interior node")
    return trace_eval(space, dofs, i, "-") - trace_eval(space, dofs, i, "+")


def average_flux(space, dofs, i: int) -> float:
    """Average (v(s_i-) + v(s_i+)) / 2 at an interior node."""
    if i < 1 or i > space.partition.n_elements - 1:
        raise DomainError(f"node {i} is not an interior node")
    return 0.5 * (trace_eval(space, dofs, i, "-") + trace_eval(space, dofs, i, "+"))


def seminorm_matrix(space, params):
    """Matrix of the broken-gradient-plus-penalty seminorm squared."""
    _, wts, _, ders = space.element_quadrature(space.degree + 1)
    blocks = np.einsum("eq,eiq,ejq->eij", wts, ders, ders)
    vl, _ = legendre_basis(np.float64(-1.0), space.degree)
    vr, _ = legendre_basis(np.float64(1.0), space.degree)
    jump_row = np.concatenate([vr, -vl])
    face = params.sigma / space.partition.h_max * np.outer(jump_row, jump_row)
    faces = np.broadcast_to(face, (space.face_dofs.shape[0],) + face.shape)
    return scatter_blocks(space.n_dofs, (space.cell_dofs, blocks), (space.face_dofs, faces))


def dg_seminorm(space, dofs, params) -> float:
    """Broken H1 seminorm with penalty-weighted jumps; zero only on constants."""
    m = seminorm_matrix(space, params)
    v = np.asarray(dofs, dtype=float)
    return float(np.sqrt(max(v @ (m @ v), 0.0)))


def scatter_blocks_from_coo(n, *groups):
    """``linalg.scatter_blocks`` as SciPy builds it from COO triplets."""
    rows = np.concatenate([np.repeat(i, i.shape[1], axis=1).ravel() for i, _ in groups])
    cols = np.concatenate([np.tile(i, (1, i.shape[1])).ravel() for i, _ in groups])
    data = np.concatenate([np.asarray(b, dtype=float).ravel() for _, b in groups])
    return sparse.csr_matrix((data, (rows, cols)), shape=(n, n))


def slot_map(mesh):
    """Data position on ``mesh.csr_pattern`` of entry (i, j) of tet t's block,
    at index 16 t + 4 i + j."""
    indptr, indices = mesh.csr_pattern
    n = np.int64(mesh.n_vertices)
    keys = np.repeat(np.arange(n), np.diff(indptr)) * n + indices  # ascending
    tets = mesh.tets.astype(np.int64)
    wanted = (tets[:, :, None] * n + tets[:, None, :]).ravel()
    slot = np.searchsorted(keys, wanted)
    if not np.array_equal(keys[np.minimum(slot, keys.size - 1)], wanted):
        raise AssertionError("a tet edge is missing from the pattern")
    return slot


def manufactured_f0(x, radius=0.05):
    """Time-independent part of the manufactured bulk source: 1/2 w(r) dchat/dt."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.sqrt(x[:, 0] ** 2 + x[:, 1] ** 2)
    w = np.where(r > radius, 1.0 - radius * np.log(np.maximum(r, radius) / radius), 1.0)
    return 0.5 * w * (np.sin(np.pi * x[:, 2]) + 2.0)


def manufactured_f1(x, radius=0.05):
    """Coefficient of t in the manufactured bulk source: 1/2 w(r) (d_z - d_zz) chat / t."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.sqrt(x[:, 0] ** 2 + x[:, 1] ** 2)
    w = np.where(r > radius, 1.0 - radius * np.log(np.maximum(r, radius) / radius), 1.0)
    z = x[:, 2]
    return 0.5 * w * (np.pi**2 * np.sin(np.pi * z) + np.pi * np.cos(np.pi * z))


def reference_load(source, t, project):
    """project(f, t), the load of a source at t: a separable source projected
    one part per pass and recombined from zero, any other source at t."""
    if getattr(source, "parts", None) is None:
        return project(source, t)
    out = 0.0
    for k, g in enumerate(source.times(t)):
        part = ScalarField3(fn=lambda x, t, k=k: source.parts(x)[k])
        out = out + float(g) * project(part, 0.0)
    return out


def reference_march(system):
    """March ``system`` with one formula per step: M3 c formed for the
    energy and again for the right-hand side, the inflow vector assembled
    every step, the box load added even when zero, the halves concatenated.
    Returns the final state and the energies; the solves append their
    residuals to ``system.factorization.residuals``."""
    pr = system.problem
    inv_dt = 1.0 / system.dt
    vl, _ = legendre_basis(np.float64(-1.0), system.dg.degree)
    load1 = lambda f, t: dg1d.assemble_load(system.dg, f, t, system.dg.degree + 2)
    boundary_points = system.fem.mesh.vertices[system.dirichlet_rows]

    def energy(state):
        return float(state.c.dot(system.mass3 @ state.c)
                     + state.c_hat.dot(system.mass1 @ state.c_hat))

    state = system.initialize()
    energies = [energy(state)]
    for n_new in range(1, system.n_steps + 1):
        t_new = pr.t_end if n_new == system.n_steps else n_new * system.dt
        rhs3 = inv_dt * (system.mass3 @ state.c) + reference_load(
            pr.source3, t_new, lambda f, t: fem3d.assemble_load(system.fem, f, t))
        rhs1 = inv_dt * (system.mass1 @ state.c_hat)
        if pr.source1 is not None:
            rhs1 = rhs1 + reference_load(pr.source1, t_new, load1)
        if pr.c_in is not None:
            inflow = np.zeros(system.dg.n_dofs)
            inflow[system.dg.element_dofs(0)] = (float(np.asarray(pr.geometry.section_area(0.0)))
                                                 * pr.u_hat * float(pr.c_in(t_new)) * vl)
            rhs1 = rhs1 + inflow
        rhs = np.concatenate([rhs3, rhs1])
        rhs[system.dirichlet_rows] = 0.0 if pr.dirichlet is None else fem3d.dirichlet_values(
            boundary_points, pr.dirichlet, t_new)
        c, c_hat = system.split(system.factorization.solve(rhs))
        state = CoupledState(c=c, c_hat=c_hat, t=t_new, n=n_new)
        energies.append(energy(state))
    return state, np.array(energies)


def l2_project(space, fn):
    """Element-local unweighted L2 projection: the degree + 4 point Gauss load
    of fn, divided by the diagonal unit mass."""
    pts, wts, vals, _ = space.element_quadrature(space.degree + 4)
    fq = np.broadcast_to(np.asarray(fn(pts.ravel()), dtype=float), (pts.size,)).reshape(pts.shape)
    rhs = np.einsum("eq,iq->ei", wts * fq, vals)
    return (rhs / space.unit_mass()).ravel()


def diagonal_geometry(case: int) -> VesselGeometry:
    """Vessel of diagonal-line case 1, 2 or 3, each profile written out."""
    if case == 1:
        radius = ConstantRadius(0.05)
    elif case in (2, 3):
        radius = TanhRadius(r_min=0.05, r_max=0.08, beta=8.0)
    else:
        raise ValueError("case must be 1, 2 or 3")
    length = 0.8 * math.sqrt(3.0)
    if case in (1, 2):
        permeability = ConstantPermeability(0.1)
    else:
        permeability = PiecewisePermeability(
            breakpoints=(length / 3.0, 2.0 * length / 3.0),
            values=(0.0, 0.05, 0.1),
        )
    return VesselGeometry(
        p0=(-0.4, -0.4, -0.4), p1=(0.4, 0.4, 0.4),
        radius=radius, permeability=permeability,
    )


def diagonal_problem(case: int, degree: int = 1) -> TransportProblem:
    """Pulse of 5 units for 0.1 time units through the diagonal vessel, with
    the box velocity the literal (1, 1, 1) / sqrt 3."""
    sqrt3 = math.sqrt(3.0)
    return TransportProblem(
        geometry=diagonal_geometry(case),
        kappa=1.0,
        kappa_hat=1.0,
        velocity=(1.0 / sqrt3, 1.0 / sqrt3, 1.0 / sqrt3),
        u_hat=1.0,
        source3=ScalarField3.zero(),
        source1=None,
        c_in=lambda t: 5.0 if t <= 0.1 else 0.0,
        dirichlet=None,
        t_end=1.0,
        dg=DgParams(1, 50.0),
        degree=degree,
    )


def product_coupling(geometry, fem, dg, n_circle=coupling.DEFAULT_N_CIRCLE):
    """The four exchange blocks as SciPy's sparse products with W a DIA
    matrix, each converted to CSR: A'W, (A'W) T, (A'W) A, its transpose and
    T'W T."""
    q = dg.degree + 2
    pts, wts, vals, _ = dg.element_quadrature(q)
    s = pts.ravel()
    gam = np.asarray(geometry.gamma_at(s), dtype=float)
    live = np.nonzero(gam != 0.0)[0]
    s = s[live]
    weight = sparse.diags(gam[live] * geometry.section_circumference(s) * wts.ravel()[live])
    avg = coupling.average_matrix(fem, geometry, s, n_circle)
    elem, k = np.divmod(live, q)
    trace = sparse.csr_matrix(
        (vals[:, k].T.ravel(), (np.repeat(np.arange(live.size), dg.n_local),
                                (dg.n_local * elem[:, None] + np.arange(dg.n_local)).ravel())),
        shape=(live.size, dg.n_dofs))
    avg_w = (avg.T @ weight).tocsr()
    c_ol = (avg_w @ trace).tocsr()
    return coupling.CouplingBlocks(c_oo=(avg_w @ avg).tocsr(), c_ol=c_ol, c_lo=c_ol.T.tocsr(),
                                   c_ll=(trace.T @ weight @ trace).tocsr())


def constrain_rows(matrix, rows):
    """Replace the given rows by identity rows (nonsymmetric elimination); a
    block row [A, B] with A square gets the identity rows of A."""
    mask = np.zeros(matrix.shape[0])
    mask[rows] = 1.0
    return (sparse.diags(1.0 - mask) @ matrix + sparse.diags(mask, shape=matrix.shape)).sorted_indices()


def stacked_operator(system, order=None):
    """The system's operator as SciPy composes it: the box block plus c_oo
    and the vessel block inv_dt M1 + (A + B + c_ll) as sparse sums, the four
    blocks stacked, the Dirichlet rows constrained, then ``op[order][:, order]``
    with its indices sorted, as SuperLU is handed it; CSC."""
    pr, dg, b, inv_dt = system.problem, system.dg, system.blocks, 1.0 / system.dt
    area = lambda s: pr.geometry.section_area(s)
    box = fem3d.box_block(fem3d.box_level(system.mesh.n), inv_dt, pr.kappa, pr.velocity)
    vessel = inv_dt * system.mass1 + (dg1d.assemble_a_lambda(dg, pr.kappa_hat, area, pr.dg)
                                      + dg1d.assemble_b_lambda(dg, pr.u_hat, area) + b.c_ll)
    full = sparse.bmat([[box + b.c_oo, -b.c_ol], [-b.c_lo, vessel]], format="csr")
    op = constrain_rows(full, system.dirichlet_rows).tocsc()
    if order is None:
        return op
    op = op[order][:, order]
    op.sum_duplicates()  # sorts the indices, as SuperLU's entry does
    return op


def batched_verify_sources(ms=None, n_points=1000, seed=0):
    """``verify.verify_sources`` with its points in FD_TIME_SAMPLES batches,
    each batch at its own time sample."""
    ms = ms or verify.ManufacturedSolution()
    rng = np.random.default_rng(seed)
    R = ms.radius
    h3, h1, n_times = verify.FD_STEP_3D, verify.FD_STEP_1D, verify.FD_TIME_SAMPLES
    stencil, d1, d2 = verify._stencil, verify._FD4_1, verify._FD4_2

    pts = rng.uniform(-0.45, 0.45, size=(4 * n_points, 3))
    r = np.hypot(pts[:, 0], pts[:, 1])
    pts = pts[(r < 0.9 * R) | (r > 1.1 * R)][:n_points]
    times = rng.uniform(0.05, 0.95, size=n_times)

    f_res = 0.0
    for batch, t in zip(np.array_split(pts, n_times), times):
        c_at = lambda d, axis: ms.c(batch + d * np.eye(3)[axis], t)
        dt = stencil(lambda d: ms.c(batch, t + d), d1, h3, 1)
        lap = sum(stencil(lambda d: c_at(d, axis), d2, h3, 2) for axis in range(3))
        dz = stencil(lambda d: c_at(d, 2), d1, h3, 1)
        f_res = max(f_res, float(np.max(np.abs(dt - lap + dz - ms.f(batch, t)))))

    s = rng.uniform(5 * h1, 1.0 - 5 * h1, size=n_points)
    area = np.pi * R**2
    circ = 2.0 * np.pi * R
    theta = 2.0 * np.pi * np.arange(64) / 64
    ring = np.stack([R * np.cos(theta), R * np.sin(theta)], axis=1)
    fhat_res = 0.0
    for batch, t in zip(np.array_split(s, n_times), times):
        dt = stencil(lambda d: ms.c_hat(batch, t + d), d1, h1, 1)
        ds = stencil(lambda d: ms.c_hat(batch + d, t), d1, h1, 1)
        dss = stencil(lambda d: ms.c_hat(batch + d, t), d2, h1, 2)
        ring3 = np.column_stack([np.tile(ring, (batch.size, 1)), np.repeat(batch - 0.5, 64)])
        cbar = ms.c(ring3, t).reshape(batch.size, 64).mean(axis=1)
        resid = (area * dt - area * dss + area * ds
                 + circ * (ms.c_hat(batch, t) - cbar) - ms.f_hat(batch, t))
        fhat_res = max(fhat_res, float(np.max(np.abs(resid))))

    tt = rng.uniform(0.0, 1.0, size=100)
    cin_res = float(np.max(np.abs([ms.c_in(t) - ms.c_hat(0.0, t) for t in tt])))
    return {"f": f_res, "f_hat": fhat_res, "c_in": cin_res}


def error_norms_3d_off_axis(fem, c_dofs, exact_and_grad, t, r_min):
    """``verify.error_norms_3d`` over the tets whose centroid lies at distance
    r >= r_min from the axis x = y = 0: (L2 error, gradient L2 error) of a P1
    field by the order-4 rule, exact_and_grad(points, t) giving the exact
    values and gradients at points (m, 3)."""
    mesh = fem.mesh
    bary, w = tet_quadrature(4)
    centroids = mesh.vertices[mesh.tets].mean(axis=1)
    kept = np.flatnonzero(np.hypot(centroids[:, 0], centroids[:, 1]) >= r_min)
    local = np.asarray(c_dofs, dtype=float)[mesh.tets[kept]]  # (ne, 4)
    points = np.einsum("qi,eic->eqc", bary, mesh.vertices[mesh.tets[kept]])
    ce, ge = exact_and_grad(points.reshape(-1, 3), t)
    gh = np.einsum("eic,ei->ec", mesh.shape_gradients[kept % 6], local)  # tet k has shape k % 6
    wq = 6.0 * mesh.tet_volume * w
    l2 = np.einsum("q,eq->", wq, (ce.reshape(len(kept), -1) - local @ bary.T) ** 2)
    grad = np.einsum("q,eqc->", wq, (ge.reshape(len(kept), -1, 3) - gh[:, None, :]) ** 2)
    return math.sqrt(l2), math.sqrt(grad)


# -- the smooth coupled pair -------------------------------------------------

def smooth_box(x, t):
    """c = t/2 cos(pi x) cos(pi y) (sin(pi z) + 2), smooth across the vessel wall."""
    x = np.atleast_2d(x)
    return 0.5 * t * np.cos(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]) * (np.sin(np.pi * x[:, 2]) + 2.0)


def smooth_box_grad(x, t):
    x = np.atleast_2d(x)
    (cx, cy, cz), (sx, sy, sz) = np.cos(np.pi * x.T), np.sin(np.pi * x.T)
    half = 0.5 * t * np.pi
    return np.stack([-half * sx * cy * (sz + 2.0), -half * cx * sy * (sz + 2.0), half * cx * cy * cz], axis=1)


def smooth_box_parts(x):
    """The box source's space parts: dc/dt and the coefficient of t in (-lap + d_z) c."""
    (cx, cy, cz), (_, _, sz) = np.cos(np.pi * x.T), np.sin(np.pi * x.T)
    half = 0.5 * cx * cy
    return np.stack([half * (sz + 2.0), half * (np.pi**2 * (3.0 * sz + 4.0) + np.pi * cz)])


def smooth_coupled_problem(degree: int = 1):
    """The manufactured geometry (vertical vessel, R = 0.05, permeability 1)
    with the smooth box field c of ``smooth_box`` and the vessel field
    chat = J0(sqrt(2) pi R) t/2 (sin(pi (s - 1/2)) + 2).  The mean of
    cos(pi x) cos(pi y) over the circle of radius R about the axis is
    J0(sqrt(2) pi R), so chat is the exact circle average of c at r = R: the
    exact exchange term vanishes while the discrete exchange blocks stay on.
    Returns the problem and the exact vessel field and its s-derivative."""
    ms = verify.ManufacturedSolution()
    scale = 0.5 * j0(math.sqrt(2.0) * math.pi * ms.radius)  # chat = scale * ms.c_hat
    area = math.pi * ms.radius**2

    def vessel_parts(s):  # area (dchat/dt, coefficient of t in (-d_ss + d_s) chat)
        z = np.pi * (np.asarray(s, dtype=float) - 0.5)
        return scale * area * np.stack([np.sin(z) + 2.0, np.pi**2 * np.sin(z) + np.pi * np.cos(z)])

    problem = replace(
        verify.manufactured_problem(degree=degree),
        source3=ScalarField3.separable(lambda t: (1.0, t), smooth_box_parts),
        source1=ScalarField3.separable(lambda t: (1.0, t), vessel_parts),
        c_in=lambda t: scale * ms.c_in(t),
        dirichlet=smooth_box,
    )
    return problem, lambda s, t: scale * ms.c_hat(s, t), lambda s, t: scale * ms.c_hat_ds(s, t)


# -- one-piece point location ------------------------------------------------

def evaluate_one_piece(fem, dofs, points):
    """``FemSpace.evaluate`` with every point located and contracted at once."""
    tet_ids, bary = fem.mesh.locate_many(points)
    return np.einsum("pi,pi->p", bary, np.asarray(dofs)[fem.mesh.tets[tet_ids]])


def average_matrix_one_piece(fem, geometry, s, n_circle):
    """``coupling.average_matrix`` as one CSR from every circle point located
    at once, its duplicates summed."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    tet_ids, bary = fem.mesh.locate_many(geometry.circle_points(s, n_circle).reshape(-1, 3))
    avg = sparse.csr_matrix((bary.ravel() / n_circle, fem.mesh.tets[tet_ids].ravel(),
                             4 * n_circle * np.arange(s.size + 1)), shape=(s.size, fem.n_dofs))
    avg.sum_duplicates()
    return avg


def tracemalloc_peak(fn):
    """Peak bytes that tracemalloc traces while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
