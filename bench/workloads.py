"""The benchmark workloads and the accuracy figures each one reports.

* ``manufactured`` -- the vertical-vessel verification study at levels 4, 8,
  16 through the CLI (the paper's Tables 1-2).  Every step has a bulk source
  and Dirichlet data, so the per-step load assembly dominates.  Fixed problem;
  the seed is ignored.
* ``diagonal`` -- diagonal case 1 self-convergence, levels 4, 8, 16 against
  the n = 32 reference, through the CLI (the paper's Table 3).  Zero source:
  the LU factorisation and the back-substitutions dominate.  Fixed problem.
* ``sweep`` -- a parameter study in one process over pulse configurations
  drawn from the seed out of the ``vesselfem run`` configuration space.  Each
  run is short, so system construction (mesh, matrices, coupling, LU)
  dominates.

Each workload function runs the program once and returns
``(wall seconds, accuracy figures, gate failures)``.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

import gates

SWEEP_CONFIGS_PER_CLASS = 1
SWEEP_N = 16
SWEEP_T_END = 0.1  # 16 steps at the default dt = 0.1 h
SWEEP_PULSE_END = 0.05
DIAGONAL_VTK = [f"diagonal_case1_t{tag}_{dim}.vtk" for tag in ("0p0125", "0p5", "1") for dim in ("3d", "1d")]
_CHUNK = 65536


@dataclass
class Context:
    """What a workload needs: the layer modules, the recorder and the tracer."""

    modules: dict
    recorder: object
    tracer: object


def _cli(ctx, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return ctx.modules["cli"].main(argv)


def _read(path) -> str:
    with open(path) as fp:
        return fp.read()


def _missing_files(out_dir, names) -> list[str]:
    paths = {name: os.path.join(out_dir, name) for name in names}
    return [f"missing or empty output {name}" for name, path in paths.items()
            if not os.path.isfile(path) or os.path.getsize(path) == 0]


def manufactured(ctx, out_dir, seed):
    start = time.perf_counter()
    code = _cli(ctx, ["manufactured", "--levels", "4,8,16", "--out", out_dir])
    wall = time.perf_counter() - start
    if code != 0:
        return wall, None, [f"manufactured exited with code {code}"]
    report = ctx.recorder.reports[-1]
    errors = {
        "err_box_l2": report.l2_3[-1], "err_box_grad": report.grad3[-1],
        "err_vessel_l2": report.l2_1[-1], "err_vessel_grad": report.grad1[-1],
    }
    failures = gates.check_manufactured_errors(errors)
    for name in ("table1_3d.csv", "table2_1d.csv"):
        failures += gates.check_table(name, _read(os.path.join(out_dir, name)))
    failures += _missing_files(out_dir, ["manufactured_n16_3d.vtk", "manufactured_n16_1d.vtk"])
    return wall, errors, failures


def diagonal(ctx, out_dir, seed):
    start = time.perf_counter()
    code = _cli(ctx, ["diagonal", "--case", "1", "--levels", "4,8,16", "--fine", "32", "--out", out_dir])
    wall = time.perf_counter() - start
    if code != 0:
        return wall, None, [f"diagonal exited with code {code}"]
    report = ctx.recorder.reports[-1]
    with ctx.tracer.paused():
        errors = dict(zip(("err_box_grad", "err_vessel_grad"),
                          grad_distances(ctx.recorder.finals[16], ctx.recorder.finals[32])))
    errors.update(err_box_l2=report.err3[-1], err_vessel_l2=report.err1[-1])
    failures = gates.check_recorded_errors(errors, gates.DIAGONAL_RECORDED)
    failures += gates.check_decreasing("err3d", report.err3)
    failures += gates.check_decreasing("err1d", report.err1)
    failures += gates.check_table("table3_case1.csv", _read(os.path.join(out_dir, "table3_case1.csv")))
    failures += _missing_files(out_dir, DIAGONAL_VTK)
    return wall, errors, failures


def sweep_configs(cli, seed: int):
    """Pulse configurations of the ``vesselfem run`` space, drawn from ``seed``.

    Every combination of degree, circle count, radius profile kind and
    permeability kind appears ``SWEEP_CONFIGS_PER_CLASS`` times, so the mix of
    work is the same for every seed and only the geometry varies.  End points
    lie in [-0.4, 0.4]^3 and radii stay below 0.1, so the tube never leaves
    the unit box.
    """
    rng = np.random.default_rng(seed)
    classes = itertools.product((1, 2), (16, 32, 64), ("constant", "tanh"), ("constant", "piecewise"))
    base = replace(cli.RunConfig(), n=SWEEP_N, t_end=SWEEP_T_END, c_in_until=SWEEP_PULSE_END, snapshots=())
    out = []
    for degree, n_circ, radius_kind, gamma_kind in list(classes) * SWEEP_CONFIGS_PER_CLASS:
        while True:
            p0, p1 = rng.uniform(-0.4, 0.4, size=(2, 3))
            if np.linalg.norm(p1 - p0) >= 0.6:
                break
        cfg = replace(base, degree=degree, n_circ=n_circ, p0=tuple(p0), p1=tuple(p1))
        if radius_kind == "constant":
            cfg = replace(cfg, radius=float(rng.uniform(0.03, 0.08)))
        else:
            r_min = float(rng.uniform(0.03, 0.06))
            cfg = replace(cfg, radius=None, radius_min=r_min,
                          radius_max=r_min + float(rng.uniform(0.01, 0.03)),
                          radius_beta=float(rng.uniform(2.0, 10.0)))
        if gamma_kind == "constant":
            cfg = replace(cfg, gamma=float(rng.uniform(0.02, 0.2)))
        else:
            length = float(np.linalg.norm(p1 - p0))
            values = list(rng.uniform(0.02, 0.2, size=3))
            values[int(rng.integers(3))] = 0.0  # an impermeable stretch
            cfg = replace(cfg, gamma=None,
                          gamma_breaks=(length * float(rng.uniform(0.2, 0.45)),
                                        length * float(rng.uniform(0.55, 0.8))),
                          gamma_values=tuple(values))
        out.append(cfg)
    return out


def sweep_anchor(cli, n: int):
    """The ``vesselfem run`` defaults (diagonal case 1) as a short sweep run at n cells."""
    return replace(cli.RunConfig(), n=n, t_end=SWEEP_T_END, c_in_until=SWEEP_PULSE_END, snapshots=())


def sweep(ctx, out_dir, seed):
    """Build and march every configuration; a SolverError is counted and skipped.

    The sweep's accuracy figures come from its anchor, the default
    configuration run at n = 8 and n = 16, so they do not vary with the seed.
    """
    cli, stepper, verify = ctx.modules["cli"], ctx.modules["stepper"], ctx.modules["verify"]
    solver_error = ctx.modules["linalg"].SolverError
    configs = sweep_configs(cli, seed)
    anchors = [sweep_anchor(cli, n) for n in (8, 16)]
    start = time.perf_counter()
    for cfg in configs + anchors:
        try:
            system = stepper.CoupledSystem(cli.problem_from_config(cfg), n_cells=cfg.n, n_circle=cfg.n_circ)
            system.run()
        except solver_error:
            if cfg in anchors:
                return time.perf_counter() - start, None, ["an anchor run failed"]
    # the anchors run last, so they are the latest finished runs at n = 8 and 16
    coarse, fine = ctx.recorder.finals[8], ctx.recorder.finals[16]
    errors = {
        "err_box_l2": verify.cross_error_3d(coarse[0], coarse[2].c, fine[0], fine[2].c),
        "err_vessel_l2": verify.cross_error_1d(coarse[1], coarse[2].c_hat, fine[1], fine[2].c_hat),
    }
    wall = time.perf_counter() - start
    with ctx.tracer.paused():
        errors["err_box_grad"], errors["err_vessel_grad"] = grad_distances(coarse, fine)
    return wall, errors, gates.check_recorded_errors(errors, gates.SWEEP_RECORDED)


WORKLOADS = {"manufactured": manufactured, "diagonal": diagonal, "sweep": sweep}


# -- accuracy of a coarse field against a finer one on a nested mesh ----------

def grad_distances(coarse, fine):
    """Box and vessel gradient distances between two (fem, dg, state) runs."""
    return (grad_distance_3d(coarse[0], coarse[2].c, fine[0], fine[2].c),
            grad_distance_1d(coarse[1], coarse[2].c_hat, fine[1], fine[2].c_hat))


def grad_distance_3d(coarse_fem, coarse_c, fine_fem, fine_c) -> float:
    """L2 norm of the gradient difference of two P1 fields on nested meshes.

    Both gradients are constant on each fine tet, so summing over fine tets,
    with the coarse gradient taken at the fine centroid, is exact.
    """
    coarse, fine = coarse_fem.mesh, fine_fem.mesh
    if fine.n % coarse.n:
        raise ValueError("meshes are not nested")
    coarse_c, fine_c = np.asarray(coarse_c), np.asarray(fine_c)
    total = 0.0
    for start in range(0, fine.n_tets, _CHUNK):
        sl = slice(start, start + _CHUNK)
        tets = fine.tets[sl]
        g_fine = np.einsum("eic,ei->ec", fine.gradients[sl], fine_c[tets])
        owner, _ = coarse.locate_many(fine.vertices[tets].mean(axis=1))
        g_coarse = np.einsum("eic,ei->ec", coarse.gradients[owner], coarse_c[coarse.tets[owner]])
        total += float(fine.volumes[sl] @ np.sum((g_fine - g_coarse) ** 2, axis=1))
    return math.sqrt(total)


def grad_distance_1d(coarse_dg, coarse_dofs, fine_dg, fine_dofs) -> float:
    """L2 norm of the broken s-derivative difference on nested partitions."""
    if fine_dg.partition.n_elements % coarse_dg.partition.n_elements:
        raise ValueError("partitions are not nested")
    coarse_dofs, fine_dofs = np.asarray(coarse_dofs), np.asarray(fine_dofs)
    pts, wts = fine_dg.gauss_points(max(coarse_dg.degree, fine_dg.degree) + 2)
    total = 0.0
    for e in range(fine_dg.partition.n_elements):
        _, d_fine = fine_dg.basis_at(e, pts[e])
        owner = int(coarse_dg.element_of(0.5 * (pts[e][0] + pts[e][-1])))
        _, d_coarse = coarse_dg.basis_at(owner, pts[e])
        diff = d_fine.T @ fine_dofs[fine_dg.element_dofs(e)] - d_coarse.T @ coarse_dofs[coarse_dg.element_dofs(owner)]
        total += float(wts[e] @ diff**2)
    return math.sqrt(total)
