"""Command-line front end: the run configuration and the pulse problem it
builds, the three diagonal-line cases, experiment drivers, CSV tables, VTK output.

Subcommands:

* ``manufactured`` runs the vertical-vessel verification study and writes the
  two error tables plus final-time VTK snapshots of the finest level.
* ``diagonal`` runs one case of the diagonal-line pulse study against a fine
  reference and writes its error table plus VTK snapshots.
* ``run`` executes a single configurable pulse problem from a flat
  ``key = value`` config file.

Exit codes: 0 success, 2 configuration or output error, 3 solver error, 4
failed verification gate.
"""
from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import coupling, verify
from .dg1d import DgParams, DgSpace, legendre_basis
from .errors import ConfigError, SolverError, VerificationError
from .fem3d import ScalarField3
from .geometry import ConstantPermeability, ConstantRadius, PiecewisePermeability, TanhRadius, VesselGeometry
from .mesh3d import TetMesh
from .stepper import CoupledSystem, TransportProblem

DIAGONAL_SNAPSHOT_TIMES = (0.0125, 0.5, 1.0)
VTK_ROW_BLOCK = 8192  # rows formatted per write; bounds the tuple and string built for it


# -- VTK writers ---------------------------------------------------------------

def _write_rows(fp, fmt, rows):
    """One line per row of the array, formatted VTK_ROW_BLOCK rows at a time."""
    line = fmt + "\n"
    for start in range(0, len(rows), VTK_ROW_BLOCK):
        block = rows[start:start + VTK_ROW_BLOCK]
        fp.write((line * len(block)) % tuple(np.ravel(block).tolist()))


def _write_vtk(path, title, dataset, points, cells, values):
    """Legacy ASCII file: header, points, the cell sections and one point scalar."""
    with open(path, "w", newline="\n") as fp:
        fp.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET {dataset}\n")
        fp.write(f"POINTS {len(points)} double\n")
        _write_rows(fp, "%.16e %.16e %.16e", points)
        cells(fp)
        fp.write(f"POINT_DATA {len(points)}\n")
        fp.write("SCALARS concentration double 1\n")
        fp.write("LOOKUP_TABLE default\n")
        _write_rows(fp, "%.16e", values)


def write_vtk_3d(mesh: TetMesh, field, path):
    """Legacy ASCII unstructured-grid file with one point scalar."""
    field = np.asarray(field, dtype=float)
    if field.shape[0] != mesh.n_vertices:
        raise ValueError("field length does not match vertex count")

    def cells(fp):
        fp.write(f"CELLS {mesh.n_tets} {5 * mesh.n_tets}\n")
        _write_rows(fp, "4 %d %d %d %d", mesh.tets)
        fp.write(f"CELL_TYPES {mesh.n_tets}\n")
        fp.write("10\n" * mesh.n_tets)

    _write_vtk(path, "vesselfem 3d concentration", "UNSTRUCTURED_GRID",
               mesh.vertices, cells, field)


def write_vtk_1d(dg: DgSpace, dofs, geometry: VesselGeometry, path):
    """Legacy ASCII polydata of the vessel field, degree+1 samples per element."""
    n_sample = dg.degree + 1
    nodes = dg.partition.nodes
    ss = np.linspace(nodes[:-1], nodes[1:], n_sample, axis=1)  # (n_el, n_sample)
    vals, _ = legendre_basis(np.linspace(-1.0, 1.0, n_sample), dg.degree)
    values = np.asarray(dofs, dtype=float).reshape(-1, dg.n_local) @ vals
    first = np.arange(ss.size).reshape(ss.shape)[:, :-1].ravel()

    def cells(fp):
        fp.write(f"LINES {first.size} {3 * first.size}\n")
        _write_rows(fp, "2 %d %d", np.column_stack([first, first + 1]))

    _write_vtk(path, "vesselfem 1d concentration", "POLYDATA",
               geometry.point_at(ss.ravel()), cells, values.ravel())


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


# -- the pulse problem of ``run`` and of the diagonal-line study -------------

@dataclass
class RunConfig:
    """Flat configuration of a generic single run.  The defaults are the
    pulse problem of diagonal case 1; ``radius`` and ``gamma`` left None are
    its 0.05 and 0.1 unless a tanh radius or piecewise permeability is set,
    and ``snapshots`` left None is the final time alone."""

    n: int = 8
    degree: int = 1
    epsilon: int = 1
    sigma: float = 50.0
    tau: float | None = None
    t_end: float = 1.0
    n_circ: int = coupling.DEFAULT_N_CIRCLE
    out: str = "."
    p0: tuple = (-0.4, -0.4, -0.4)
    p1: tuple = (0.4, 0.4, 0.4)
    radius: float | None = None
    radius_min: float | None = None
    radius_max: float | None = None
    radius_beta: float | None = None
    gamma: float | None = None
    gamma_breaks: tuple | None = None
    gamma_values: tuple | None = None
    kappa: float = 1.0
    kappa_hat: float = 1.0
    u: tuple | None = None
    u_hat: float = 1.0
    c_in: float = 5.0
    c_in_until: float = 0.1
    snapshots: tuple | None = None


_DIAGONAL_LENGTH = 0.8 * math.sqrt(3.0)
_CASE1_RADIUS, _CASE1_GAMMA = 0.05, 0.1
_TANH_RADIUS = {"radius_min": 0.05, "radius_max": 0.08, "radius_beta": 8.0}
# The three radius/permeability variants of the diagonal-line study, as
# overrides of the RunConfig defaults; case 3's wall is impermeable on the
# first third of the vessel.
DIAGONAL_CASES = {
    1: {},
    2: _TANH_RADIUS,
    3: {**_TANH_RADIUS, "gamma_breaks": (_DIAGONAL_LENGTH / 3.0, 2.0 * _DIAGONAL_LENGTH / 3.0),
        "gamma_values": (0.0, 0.05, 0.1)},
}


def problem_from_config(cfg: RunConfig) -> TransportProblem:
    """The pulse problem a run config describes: injection through a straight
    vessel, ``c_in`` until ``c_in_until``, zero sources, the box velocity along
    the vessel unless ``u`` is given."""
    tanh = (cfg.radius_min, cfg.radius_max, cfg.radius_beta)
    if any(v is not None for v in tanh):
        if None in tanh or cfg.radius is not None:
            raise ConfigError("tanh radius needs radius_min, radius_max and radius_beta, and radius = none")
        radius = TanhRadius(*tanh)
    else:
        radius = ConstantRadius(_CASE1_RADIUS if cfg.radius is None else cfg.radius)
    if cfg.gamma_breaks is not None or cfg.gamma_values is not None:
        if cfg.gamma_breaks is None or cfg.gamma_values is None or cfg.gamma is not None:
            raise ConfigError("piecewise permeability needs gamma_breaks and gamma_values, and gamma = none")
        permeability = PiecewisePermeability(tuple(cfg.gamma_breaks), tuple(cfg.gamma_values))
    else:
        permeability = ConstantPermeability(_CASE1_GAMMA if cfg.gamma is None else cfg.gamma)
    geometry = VesselGeometry(cfg.p0, cfg.p1, radius, permeability)
    u = cfg.u if cfg.u is not None else tuple(geometry.tangent * cfg.u_hat)
    c_in_value, c_in_until = cfg.c_in, cfg.c_in_until
    return TransportProblem(
        geometry=geometry,
        kappa=cfg.kappa,
        kappa_hat=cfg.kappa_hat,
        velocity=u,
        u_hat=cfg.u_hat,
        source3=ScalarField3.zero(),
        source1=None,
        c_in=lambda t: c_in_value if t <= c_in_until else 0.0,
        dirichlet=None,
        t_end=cfg.t_end,
        dg=DgParams(cfg.epsilon, cfg.sigma),
        degree=cfg.degree,
        dt=cfg.tau,
    )


def diagonal_problem(case: int, degree: int = 1) -> TransportProblem:
    """The pulse problem of one diagonal-line case: 5 units for 0.1 time units."""
    if case not in DIAGONAL_CASES:
        raise ConfigError("case must be 1, 2 or 3")
    return problem_from_config(RunConfig(degree=degree, **DIAGONAL_CASES[case]))


# -- configuration --------------------------------------------------------------

def parse_config_file(path) -> RunConfig:
    """Parse a flat ``key = value`` file; unknown and repeated keys are rejected."""
    kinds = {f.name: f.type for f in fields(RunConfig)}
    cfg, seen = RunConfig(), {}
    try:
        with open(path, encoding="utf-8") as fp:
            lines = fp.readlines()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in kinds:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: key '{key}' already set on line {seen[key]}")
        seen[key] = lineno
        setattr(cfg, key, _parse_value(key, kinds[key], value))
    return cfg


def _parse_value(key, kind, value):
    """``value`` as the kind that RunConfig annotates ``key`` with: str, int,
    float or a tuple of floats.  Only a ``| None`` key takes ``none`` or an
    empty value, as None."""
    kind, _, optional = kind.partition(" | ")
    try:
        if optional and value.lower() in ("none", ""):
            return None
        if kind == "str":
            return value
        if kind == "int":
            return int(value)
        numbers = tuple(float(v) for v in value.split(",")) if kind == "tuple" else float(value)
        if np.isfinite(numbers).all():
            return numbers
    except ValueError:
        pass
    raise ConfigError(f"bad value for '{key}': {value!r}")


# -- commands --------------------------------------------------------------------

def _parse_levels(text):
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad levels list: {text!r}") from err


def _check_snapshot_times(times, t_end):
    """Reject a snapshot time the march never reaches, before any mesh is built."""
    for t in times:
        if not 0.0 <= t <= t_end:
            raise ConfigError(f"snapshot time {t:g} is outside [0, t_end = {t_end:g}]")


def _check_out_dir(path):
    """Reject an output path that cannot become a directory, before any mesh is
    built: it is empty or holds a NUL byte, or it or its nearest existing ancestor is no directory."""
    if not path or "\0" in path:
        raise ConfigError("output path is empty" if not path else f"output path {path!r} holds a NUL byte")
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"output path {path} cannot be a directory: {probe} is not one")


def _write_outputs(out, tables, template, system, snapshots, texts=()):
    """Write a command's outputs into ``out``, made here: each ``(name, header,
    rows)`` CSV table, then the box/vessel VTK pair of each (t, state) that
    ``system`` marched to, ``<template>_3d.vtk`` and ``<template>_1d.vtk``
    with ``{tag}`` in the template replaced by t ('.' as 'p'), then each
    ``(name, text)`` of ``texts``.  An OSError removes every file this call
    began to write, and ``out`` and the ancestors of it that it made, before
    it propagates, so a failed write leaves no output behind."""
    writes = [(name, partial(write_csv, header=header, rows=rows)) for name, header, rows in tables]
    for t, state in snapshots:
        stem = template.format(tag=format(t, "g").replace(".", "p"))
        writes += [(stem + "_3d.vtk", partial(write_vtk_3d, system.mesh, state.c)),
                   (stem + "_1d.vtk", partial(write_vtk_1d, system.dg, state.c_hat, system.problem.geometry))]
    writes += [(name, lambda path, text=text: Path(path).write_text(text)) for name, text in texts]
    # out first, up to its topmost missing ancestor (unnormalised: makedirs makes a/b for a/b/..)
    made, written, probe = [], [], os.path.join(os.getcwd(), out)
    while not os.path.lexists(probe):
        made.append(probe)
        probe = os.path.dirname(probe)
    try:
        os.makedirs(out, exist_ok=True)
        for name, write in writes:
            path = os.path.join(out, name)
            written.append(path)  # before the write, which may stop midway
            write(path)
    except OSError:
        for path in written:
            if os.path.isfile(path):
                os.remove(path)
        for path in made:  # makedirs may have stopped above one, and a/b/.. is no new directory
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


def cmd_manufactured(args) -> int:
    _check_out_dir(args.out)
    report = verify.convergence_study(
        args.levels, degree=args.degree, epsilon=args.epsilon, sigma=args.sigma,
        n_circle=args.n_circ,
    )
    header = ["h", "grad_error", "grad_rate", "l2_error", "l2_rate"]
    tables = [(name, header, zip(report.h_labels, getattr(report, grad), [None, *report.rates(grad)],
                                 getattr(report, l2), [None, *report.rates(l2)]))
              for name, grad, l2 in (("table1_3d.csv", "grad3", "l2_3"), ("table2_1d.csv", "grad1", "l2_1"))]
    _write_outputs(args.out, tables, f"manufactured_n{args.levels[-1]}", report.system, report.snapshots)
    print(f"wrote table1_3d.csv, table2_1d.csv and n={args.levels[-1]} snapshots to {args.out}")
    print(f"max solve residual {report.max_residual:.3e}")
    return 0


def cmd_diagonal(args) -> int:
    _check_out_dir(args.out)
    report = verify.self_convergence(
        diagonal_problem(args.case, degree=args.degree), coarse_levels=args.levels, fine_n=args.fine,
        n_circle=args.n_circ, snapshot_times=DIAGONAL_SNAPSHOT_TIMES,
    )
    table = (f"table3_case{args.case}.csv", ["h", "err3d", "rate3d", "err1d", "rate1d", "rel3d", "rel1d"],
             zip(report.h_labels, report.err3, [None, *report.rates("err3")],
                 report.err1, [None, *report.rates("err1")], report.rel3, report.rel1))
    _write_outputs(args.out, [table], f"diagonal_case{args.case}_t{{tag}}", report.system, report.snapshots)
    print(f"wrote table3_case{args.case}.csv and snapshots to {args.out}")
    print(f"max solve residual {report.max_residual:.3e}")
    return 0


def cmd_run(args) -> int:
    cfg = parse_config_file(args.config)
    problem = problem_from_config(cfg)
    times = (cfg.t_end,) if cfg.snapshots is None else cfg.snapshots
    _check_snapshot_times(times, cfg.t_end)
    _check_out_dir(cfg.out)
    system = CoupledSystem(problem, n_cells=cfg.n, n_circle=cfg.n_circ)
    state, report = system.run(times)
    energy = ("run_energy.csv", ["step", "time", "energy"],
              [(str(i), i * system.dt, e) for i, e in enumerate(report.energies)])
    summary = (f"steps = {report.n_steps}\n"
               f"dt = {system.dt:.6e}\n"
               f"max_residual = {report.max_residual:.6e}\n"
               f"final_energy = {report.energies[-1]:.6e}\n"
               f"final_vessel_mass = {system.vessel_mass(state):.6e}\n"
               f"wall_time = {report.wall_time:.3f}\n")
    _write_outputs(cfg.out, [energy], "run_t{tag}", system, report.snapshots, [("run_summary.txt", summary)])
    print(f"run finished: {report.n_steps} steps, max residual {report.max_residual:.3e}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """The commands' parser.  Every command line it cannot take (an unknown
    command or flag, a flag without its value or with one it cannot convert,
    such as ``--fine x`` or ``--levels 4,x``, a missing command or
    ``--config``) raises ConfigError, which main reports as a configuration
    error; ``--help`` prints the usage and exits 0."""
    parser = _Parser(prog="vesselfem", description="coupled box/vessel solute transport solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("manufactured", help="verification study on the vertical vessel")
    p.add_argument("--levels", type=_parse_levels, default="4,8,16")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--epsilon", type=int, default=1)
    p.add_argument("--sigma", type=float, default=50.0)
    p.add_argument("--n-circ", type=int, default=coupling.DEFAULT_N_CIRCLE)
    p.add_argument("--out", default="out_manufactured")
    p.set_defaults(fn=cmd_manufactured)

    p = sub.add_parser("diagonal", help="self-convergence study on the diagonal vessel")
    p.add_argument("--case", type=int, default=1)
    p.add_argument("--levels", type=_parse_levels, default="4,8,16")
    p.add_argument("--fine", type=int, default=32)
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--n-circ", type=int, default=coupling.DEFAULT_N_CIRCLE)
    p.add_argument("--out", default="out_diagonal")
    p.set_defaults(fn=cmd_diagonal)

    p = sub.add_parser("run", help="single run from a key = value config file")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_run)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
    except OSError as err:
        print(f"output error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
