"""Command-line front end: experiment drivers, CSV tables, VTK output.

Subcommands:

* ``manufactured`` runs the vertical-vessel verification study and writes the
  two error tables plus final-time VTK snapshots of the finest level.
* ``diagonal`` runs one case of the diagonal-line pulse study against a fine
  reference and writes its error table plus VTK snapshots.
* ``run`` executes a single configurable pulse problem from a flat
  ``key = value`` config file.

Exit codes: 0 success, 2 configuration error, 3 solver error, 4 failed
verification gate.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import verify
from .dg1d import DgParams, DgSpace
from .errors import ConfigError, SolverError, VerificationError
from .fem3d import ScalarField3, VectorField3
from .geometry import (
    ConstantPermeability,
    ConstantRadius,
    PiecewisePermeability,
    TanhRadius,
    VesselGeometry,
)
from .mesh3d import TetMesh
from .stepper import CoupledSystem, Observer, TransportProblem

# Box levels the direct (LU) solver can factor in a few GB of memory; the fill
# of n = 64 is extrapolated to hundreds of millions of nonzeros.
ALLOWED_LEVELS = (4, 8, 16, 32)
DIAGONAL_SNAPSHOT_TIMES = (0.0125, 0.5, 1.0)


# -- VTK writers ---------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".16e")


def write_vtk_3d(mesh: TetMesh, field, path, name: str = "concentration"):
    """Legacy ASCII unstructured-grid file with one point scalar."""
    field = np.asarray(field, dtype=float)
    if field.shape[0] != mesh.n_vertices:
        raise ValueError("field length does not match vertex count")
    try:
        with open(path, "w", newline="\n") as fp:
            fp.write("# vtk DataFile Version 3.0\n")
            fp.write("vesselfem 3d concentration\n")
            fp.write("ASCII\n")
            fp.write("DATASET UNSTRUCTURED_GRID\n")
            fp.write(f"POINTS {mesh.n_vertices} double\n")
            for p in mesh.vertices:
                fp.write(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n")
            fp.write(f"CELLS {mesh.n_tets} {5 * mesh.n_tets}\n")
            for tet in mesh.tets:
                fp.write(f"4 {tet[0]} {tet[1]} {tet[2]} {tet[3]}\n")
            fp.write(f"CELL_TYPES {mesh.n_tets}\n")
            for _ in range(mesh.n_tets):
                fp.write("10\n")
            fp.write(f"POINT_DATA {mesh.n_vertices}\n")
            fp.write(f"SCALARS {name} double 1\n")
            fp.write("LOOKUP_TABLE default\n")
            for v in field:
                fp.write(f"{_fmt(v)}\n")
    except OSError as err:
        raise OSError(f"cannot write VTK file {path}: {err}") from err


def write_vtk_1d(dg: DgSpace, dofs, geometry: VesselGeometry, path,
                 name: str = "concentration"):
    """Legacy ASCII polydata of the vessel field, degree+1 samples per element."""
    n_sample = dg.degree + 1
    points = []
    values = []
    for e in range(dg.partition.n_elements):
        a = dg.partition.nodes[e]
        b = dg.partition.nodes[e + 1]
        ss = np.linspace(a, b, n_sample)
        vals, _ = dg.basis_at(e, ss)
        values.append(vals.T @ np.asarray(dofs)[dg.element_dofs(e)])
        points.append(geometry.point_at(ss))
    points = np.concatenate(points)
    values = np.concatenate(values)
    n_pts = points.shape[0]
    segments = [
        (e * n_sample + k, e * n_sample + k + 1)
        for e in range(dg.partition.n_elements)
        for k in range(n_sample - 1)
    ]
    try:
        with open(path, "w", newline="\n") as fp:
            fp.write("# vtk DataFile Version 3.0\n")
            fp.write("vesselfem 1d concentration\n")
            fp.write("ASCII\n")
            fp.write("DATASET POLYDATA\n")
            fp.write(f"POINTS {n_pts} double\n")
            for p in points:
                fp.write(f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n")
            fp.write(f"LINES {len(segments)} {3 * len(segments)}\n")
            for a, b in segments:
                fp.write(f"2 {a} {b}\n")
            fp.write(f"POINT_DATA {n_pts}\n")
            fp.write(f"SCALARS {name} double 1\n")
            fp.write("LOOKUP_TABLE default\n")
            for v in values:
                fp.write(f"{_fmt(v)}\n")
    except OSError as err:
        raise OSError(f"cannot write VTK file {path}: {err}") from err


# -- CSV -----------------------------------------------------------------------

def write_csv(path, header, rows):
    """CSV with a fixed header; numbers in 6-significant-digit scientific form."""
    def cell(v):
        if isinstance(v, str):
            return v
        if v is None:
            return ""
        return format(float(v), ".5e")

    with open(path, "w", newline="\n") as fp:
        fp.write(",".join(header) + "\n")
        for row in rows:
            fp.write(",".join(cell(v) for v in row) + "\n")


def _rate_column(rates):
    return [None] + list(rates)


# -- configuration --------------------------------------------------------------

@dataclass
class RunConfig:
    """Flat configuration of a generic single run (pulse problem defaults)."""

    n: int = 8
    degree: int = 1
    epsilon: int = 1
    sigma: float = 50.0
    tau: float | None = None
    t_end: float = 1.0
    n_circ: int = 16
    out: str = "."
    seed: int = 0
    p0: tuple = (-0.4, -0.4, -0.4)
    p1: tuple = (0.4, 0.4, 0.4)
    radius: float | None = 0.05
    radius_min: float | None = None
    radius_max: float | None = None
    radius_beta: float | None = None
    gamma: float | None = 0.1
    gamma_breaks: tuple | None = None
    gamma_values: tuple | None = None
    kappa: float = 1.0
    kappa_hat: float = 1.0
    u: tuple | None = None
    u_hat: float = 1.0
    c_in: float = 5.0
    c_in_until: float = 0.1
    snapshots: tuple = (1.0,)


_TUPLE_KEYS = {"p0", "p1", "u", "gamma_breaks", "gamma_values", "snapshots"}
_INT_KEYS = {"n", "degree", "epsilon", "n_circ", "seed"}
_STR_KEYS = {"out"}


def parse_config_file(path) -> RunConfig:
    """Parse a flat ``key = value`` file; unknown keys are rejected."""
    known = {f.name for f in fields(RunConfig)}
    cfg = RunConfig()
    try:
        with open(path) as fp:
            lines = fp.readlines()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        setattr(cfg, key, _parse_value(key, value))
    return cfg


def _parse_value(key, value):
    try:
        if key in _STR_KEYS:
            return value
        if key in _TUPLE_KEYS:
            return tuple(float(v) for v in value.split(","))
        if key in _INT_KEYS:
            return int(value)
        if value.lower() in ("none", ""):
            return None
        return float(value)
    except ValueError as err:
        raise ConfigError(f"bad value for '{key}': {value!r}") from err


def problem_from_config(cfg: RunConfig) -> TransportProblem:
    if cfg.radius_min is not None or cfg.radius_max is not None:
        if None in (cfg.radius_min, cfg.radius_max, cfg.radius_beta):
            raise ConfigError("tanh radius needs radius_min, radius_max and radius_beta")
        radius = TanhRadius(cfg.radius_min, cfg.radius_max, cfg.radius_beta)
    elif cfg.radius is not None:
        radius = ConstantRadius(cfg.radius)
    else:
        raise ConfigError("no radius profile configured")
    if cfg.gamma_breaks is not None or cfg.gamma_values is not None:
        if cfg.gamma_breaks is None or cfg.gamma_values is None:
            raise ConfigError("piecewise permeability needs gamma_breaks and gamma_values")
        permeability = PiecewisePermeability(tuple(cfg.gamma_breaks), tuple(cfg.gamma_values))
    elif cfg.gamma is not None:
        permeability = ConstantPermeability(cfg.gamma)
    else:
        raise ConfigError("no permeability configured")
    geometry = VesselGeometry(cfg.p0, cfg.p1, radius, permeability)
    u = cfg.u if cfg.u is not None else tuple(geometry.tangent * cfg.u_hat)
    c_in_value, c_in_until = cfg.c_in, cfg.c_in_until
    return TransportProblem(
        geometry=geometry,
        kappa=ScalarField3.constant(cfg.kappa),
        kappa_hat=lambda s: np.broadcast_to(float(cfg.kappa_hat), np.shape(s)),
        velocity=VectorField3.constant(u),
        u_hat=cfg.u_hat,
        source3=ScalarField3.zero(),
        source1=None,
        c_in=lambda t: c_in_value if t <= c_in_until else 0.0,
        dirichlet=None,
        c0=None,
        c0_hat=None,
        t_end=cfg.t_end,
        dg=DgParams(cfg.epsilon, cfg.sigma),
        degree=cfg.degree,
        dt=cfg.tau,
    )


# -- commands --------------------------------------------------------------------

def _workers() -> int:
    try:
        return max(1, int(os.environ.get("SOLVER_THREADS", "1")))
    except ValueError:
        return 1


def _parse_levels(text):
    try:
        levels = tuple(int(v) for v in text.split(","))
    except ValueError as err:
        raise ConfigError(f"bad levels list: {text!r}") from err
    if len(levels) < 1 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError("levels must be strictly increasing")
    return levels


def _check_solver_limit(n):
    """Reject a box level the direct solver cannot factor, before any mesh is built."""
    if n > ALLOWED_LEVELS[-1]:
        raise ConfigError(
            f"level n={n} exceeds the direct-solver memory limit: the LU "
            f"factorization supports box levels up to n={ALLOWED_LEVELS[-1]}"
        )


def _check_levels(levels):
    for n in levels:
        _check_solver_limit(n)
        if n not in ALLOWED_LEVELS:
            raise ConfigError(f"levels must be a subset of {ALLOWED_LEVELS}")


def cmd_manufactured(args) -> int:
    levels = _parse_levels(args.levels)
    _check_levels(levels)
    os.makedirs(args.out, exist_ok=True)

    def snapshot_finest(n, system, state, _report):
        if n != levels[-1]:
            return
        write_vtk_3d(
            system.mesh, state.c, os.path.join(args.out, f"manufactured_n{n}_3d.vtk")
        )
        write_vtk_1d(
            system.dg, state.c_hat, system.problem.geometry,
            os.path.join(args.out, f"manufactured_n{n}_1d.vtk"),
        )

    report = verify.convergence_study(
        levels, degree=args.degree, epsilon=args.epsilon, sigma=args.sigma,
        n_circle=args.n_circ, workers=_workers(), on_level=snapshot_finest,
    )
    g3r = _rate_column(report.rates("grad3"))
    l3r = _rate_column(report.rates("l2_3"))
    g1r = _rate_column(report.rates("grad1"))
    l1r = _rate_column(report.rates("l2_1"))
    header = ["h", "grad_error", "grad_rate", "l2_error", "l2_rate"]
    write_csv(
        os.path.join(args.out, "table1_3d.csv"),
        header,
        [
            (h, report.grad3[i], g3r[i], report.l2_3[i], l3r[i])
            for i, h in enumerate(report.h_labels)
        ],
    )
    write_csv(
        os.path.join(args.out, "table2_1d.csv"),
        header,
        [
            (h, report.grad1[i], g1r[i], report.l2_1[i], l1r[i])
            for i, h in enumerate(report.h_labels)
        ],
    )
    print(f"wrote table1_3d.csv, table2_1d.csv and n={levels[-1]} snapshots to {args.out}")
    print(f"max solve residual {report.max_residual:.3e}")
    return 0


def _time_tag(t: float) -> str:
    return format(t, "g").replace(".", "p")


def cmd_diagonal(args) -> int:
    if args.case not in (1, 2, 3):
        raise ConfigError("case must be 1, 2 or 3")
    levels = _parse_levels(args.levels)
    _check_levels(levels + (args.fine,))
    if args.fine <= levels[-1]:
        raise ConfigError("--fine must exceed every coarse level")
    os.makedirs(args.out, exist_ok=True)
    report = verify.self_convergence(
        args.case, coarse_levels=levels, fine_n=args.fine, degree=args.degree,
        n_circle=args.n_circ, snapshot_times=DIAGONAL_SNAPSHOT_TIMES,
        workers=_workers(),
    )
    r3 = _rate_column(report.rates3())
    r1 = _rate_column(report.rates1())
    write_csv(
        os.path.join(args.out, f"table3_case{args.case}.csv"),
        ["h", "err3d", "rate3d", "err1d", "rate1d", "rel3d", "rel1d"],
        [
            (h, report.err3[i], r3[i], report.err1[i], r1[i],
             report.rel3[i], report.rel1[i])
            for i, h in enumerate(report.h_labels)
        ],
    )
    geometry = verify.diagonal_geometry(args.case)
    for t, state in report.snapshots:
        tag = _time_tag(t)
        write_vtk_3d(
            report.fine_mesh, state.c,
            os.path.join(args.out, f"diagonal_case{args.case}_t{tag}_3d.vtk"),
        )
        write_vtk_1d(
            report.fine_dg, state.c_hat, geometry,
            os.path.join(args.out, f"diagonal_case{args.case}_t{tag}_1d.vtk"),
        )
    print(f"wrote table3_case{args.case}.csv and snapshots to {args.out}")
    print(f"max solve residual {report.max_residual:.3e}")
    return 0


def cmd_run(args) -> int:
    cfg = parse_config_file(args.config)
    _check_solver_limit(cfg.n)
    os.makedirs(cfg.out, exist_ok=True)
    problem = problem_from_config(cfg)
    system = CoupledSystem(problem, n_cells=cfg.n, n_circle=cfg.n_circ)
    snaps = []
    obs = Observer(times=tuple(cfg.snapshots),
                   fn=lambda n, t, state: snaps.append((t, state)))
    state, report = system.run([obs])
    for t, snap in snaps:
        tag = _time_tag(t)
        write_vtk_3d(system.mesh, snap.c, os.path.join(cfg.out, f"run_t{tag}_3d.vtk"))
        write_vtk_1d(system.dg, snap.c_hat, problem.geometry,
                     os.path.join(cfg.out, f"run_t{tag}_1d.vtk"))
    write_csv(
        os.path.join(cfg.out, "run_energy.csv"),
        ["step", "time", "energy"],
        [(str(i), i * system.dt, e) for i, e in enumerate(report.energies)],
    )
    with open(os.path.join(cfg.out, "run_summary.txt"), "w") as fp:
        fp.write(f"steps = {report.n_steps}\n")
        fp.write(f"dt = {system.dt:.6e}\n")
        fp.write(f"max_residual = {report.max_residual:.6e}\n")
        fp.write(f"final_energy = {report.energies[-1]:.6e}\n")
        fp.write(f"final_vessel_mass = {system.vessel_mass(state):.6e}\n")
        fp.write(f"wall_time = {report.wall_time:.3f}\n")
    print(f"run finished: {report.n_steps} steps, max residual {report.max_residual:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vesselfem",
        description="coupled box/vessel solute transport solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("manufactured", help="verification study on the vertical vessel")
    p.add_argument("--levels", default="4,8,16")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--epsilon", type=int, default=1)
    p.add_argument("--sigma", type=float, default=50.0)
    p.add_argument("--n-circ", type=int, default=16)
    p.add_argument("--out", default="out_manufactured")
    p.set_defaults(fn=cmd_manufactured)

    p = sub.add_parser("diagonal", help="self-convergence study on the diagonal vessel")
    p.add_argument("--case", type=int, default=1)
    p.add_argument("--levels", default="4,8,16")
    p.add_argument("--fine", type=int, default=32)
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--n-circ", type=int, default=16)
    p.add_argument("--out", default="out_diagonal")
    p.set_defaults(fn=cmd_diagonal)

    p = sub.add_parser("run", help="single run from a key = value config file")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 3
    except VerificationError as err:
        print(f"verification gate failed: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
