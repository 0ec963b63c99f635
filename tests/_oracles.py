"""Independent reference computations used to pin expected values.

The 1D operators are assembled term by term with sympy in exact rational
arithmetic, and the simplex moments come from the closed-form factorial
formula; neither shares code with the package.  The DG traces, jumps and the
broken seminorm are per-node references that the vectorised face terms are
checked against; they take only the Legendre basis, the element quadrature
and the block scatter from the package.  The slot map finds every tet block
entry's data position on the box pattern by searching the pattern's
(row, column) keys, the reference the box stencil sum is checked against.
"""
import math

import numpy as np
import sympy as sp

from vesselfem.dg1d import legendre_basis
from vesselfem.errors import DomainError
from vesselfem.linalg import scatter_blocks


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
