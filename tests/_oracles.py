"""Independent reference computations used to pin expected values.

The 1D operators are assembled term by term with sympy in exact rational
arithmetic, and the simplex moments come from the closed-form factorial
formula; neither shares code with the package.  The DG traces, jumps and the
broken seminorm are per-node references that the vectorised face terms are
checked against; they take only the Legendre basis, the element quadrature
and the block scatter from the package.  The slot map finds every tet block
entry's data position on the box pattern by searching the pattern's
(row, column) keys, the reference the box stencil sum is checked against.
The reference march keeps the backward Euler step as one formula per step,
and the two space parts of the manufactured bulk source are the closed forms
as first written, one function each.
"""
import math

import numpy as np
import sympy as sp

from vesselfem import fem3d
from vesselfem.dg1d import legendre_basis
from vesselfem.errors import DomainError
from vesselfem.fem3d import ScalarField3
from vesselfem.linalg import scatter_blocks
from vesselfem.stepper import CoupledState


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

    ``nodes`` should be sympy Rationals; ``kappa`` and ``area`` map a sympy
    symbol to an expression.  Returns float arrays evaluated from the exact
    rational entries.
    """
    s = sp.Symbol("s")
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
                area(s) * kappa(s) * sp.diff(fr, s) * sp.diff(fc, s), (s, lo, hi)
            )
            B[r, c] = -sp.integrate(area(s) * u_hat * fc * sp.diff(fr, s), (s, lo, hi))

    def trace(expr, at):
        return expr.subs(s, at)

    for i in range(1, n_el):
        si = nodes[i]
        coef = area(si) * kappa(si)
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
    r = np.hypot(x[:, 0], x[:, 1])
    w = np.where(r > radius, 1.0 - radius * np.log(np.maximum(r, radius) / radius), 1.0)
    return 0.5 * w * (np.sin(np.pi * x[:, 2]) + 2.0)


def manufactured_f1(x, radius=0.05):
    """Coefficient of t in the manufactured bulk source: 1/2 w(r) (d_z - d_zz) chat / t."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.hypot(x[:, 0], x[:, 1])
    w = np.where(r > radius, 1.0 - radius * np.log(np.maximum(r, radius) / radius), 1.0)
    z = x[:, 2]
    return 0.5 * w * (np.pi**2 * np.sin(np.pi * z) + np.pi * np.cos(np.pi * z))


def reference_load3(system, t):
    """Box load at t: a separable source projected one part per quadrature
    pass and recombined from zero, any other source assembled at t."""
    source = system.problem.source3
    if source.parts is None:
        return fem3d.assemble_load(system.fem, source, t)
    out = np.zeros(system.fem.n_dofs)
    for k, g in enumerate(source.times(t)):
        part = ScalarField3(fn=lambda x, t, k=k: source.parts(x)[k])
        out += float(g) * fem3d.assemble_load(system.fem, part, 0.0)
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

    def energy(state):
        return float(state.c.dot(system.mass3 @ state.c)
                     + state.c_hat.dot(system.mass1 @ state.c_hat))

    state = system.initialize()
    energies = [energy(state)]
    for n_new in range(1, system.n_steps + 1):
        t_new = pr.t_end if n_new == system.n_steps else n_new * system.dt
        rhs3 = inv_dt * (system.mass3 @ state.c) + reference_load3(system, t_new)
        rhs1 = inv_dt * (system.mass1 @ state.c_hat)
        if pr.source1 is not None:
            rhs1 = rhs1 + system._load1(pr.source1, t_new)
        if pr.c_in is not None:
            inflow = np.zeros(system.dg.n_dofs)
            inflow[system.dg.element_dofs(0)] = (float(np.asarray(pr.geometry.section_area(0.0)))
                                                 * pr.u_hat * float(pr.c_in(t_new)) * vl)
            rhs1 = rhs1 + inflow
        rhs = np.concatenate([rhs3, rhs1])
        rhs[system.dirichlet_rows] = fem3d.dirichlet_values(
            system._boundary_points, pr.dirichlet, t_new)
        c, c_hat = system.split(system.factorization.solve(rhs))
        state = CoupledState(c=c, c_hat=c_hat, t=t_new, n=n_new)
        energies.append(energy(state))
    return state, np.array(energies)
