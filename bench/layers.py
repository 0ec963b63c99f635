"""Spans and counters around the vesselfem layers, installed from outside.

Each layer is one package module.  Untraced runs wrap only the boundaries
that set the end-to-end metrics (the source gate, problem construction,
``CoupledSystem`` construction and ``run``, error norms, cross errors, CSV
and VTK writers) plus the study entry points whose reports the gates read;
each fires a handful of times per run.  Traced runs wrap every public function and method of
every layer, at every place it is looked up: a function imported by name into
another module is rebound there too, and methods are wrapped on their class.
"""
from __future__ import annotations

import importlib
import inspect
import os
import sys
from dataclasses import dataclass

import numpy as np

from gates import RESIDUAL_LIMIT
from tracer import Tracer, covered, durations, self_times

PACKAGE = "vesselfem"
LAYERS = ("geometry", "mesh3d", "fem3d", "dg1d", "coupling", "linalg", "stepper", "verify", "cli")

BUILD = "stepper.CoupledSystem.__init__"
RUN = "stepper.CoupledSystem.run"
SETUP_SPANS = ("verify.source_gate", "cli.problem_from_config", BUILD)
MARCH_SPANS = (RUN,)
POST_SPANS = ("verify.error_norms_3d", "verify.error_norms_1d", "verify.cross_error_3d",
              "verify.cross_error_1d", "cli.write_csv", "cli.write_vtk_3d", "cli.write_vtk_1d")
BOUNDARY_SPANS = (SETUP_SPANS + MARCH_SPANS + POST_SPANS
                  + ("verify.convergence_study", "verify.self_convergence"))


@dataclass
class Operation:
    """One system build and its march, as seen at the CoupledSystem boundary.

    Only references are taken here; the gates examine them after the timed
    region.
    """

    n_cells: int
    problem: object
    blocks: object  # the exchange blocks c_oo, c_ol, c_lo, c_ll
    dt: float
    report: object = None  # the RunReport, once the march has finished


class Recorder:
    """Operations and study reports captured by the boundary hooks.

    ``finals`` keeps, per mesh size, the spaces and final state of the latest
    finished march, for accuracy figures the program does not report.
    """

    def __init__(self):
        self.ops: list[Operation] = []
        self.reports: list = []
        self.finals: dict[int, tuple] = {}
        self._pending: dict[int, tuple] = {}

    def clear(self):
        self.ops.clear()
        self.reports.clear()
        self.finals.clear()
        self._pending.clear()

    def on_build(self, args, kwargs, result):
        system = args[0]
        op = Operation(system.mesh.n, system.problem, system.blocks, system.dt)
        self.ops.append(op)
        self._pending[id(system)] = op

    def on_run(self, args, kwargs, result):
        system = args[0]
        state, report = result
        self._pending.pop(id(system)).report = report
        self.finals[system.mesh.n] = (system.fem, system.dg, state)

    def on_report(self, args, kwargs, result):
        self.reports.append(result)


def import_package(src_dir):
    """Import the layer modules from the checkout's source tree, and only from there."""
    src_dir = os.path.abspath(src_dir)
    sys.path.insert(0, src_dir)
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    for mod in modules.values():
        if not os.path.abspath(mod.__file__).startswith(src_dir + os.sep):
            raise ImportError(f"{mod.__name__} was imported from {mod.__file__}, not {src_dir}")
    return modules


def _targets(modules):
    """(owner, attribute, span name) for every public function and method.

    Functions are listed at every module binding them, so calls through a
    ``from .x import f`` name are traced as well.
    """
    package_modules = [m for name, m in sys.modules.items()
                       if name == PACKAGE or name.startswith(PACKAGE + ".")]
    out = []
    for layer, mod in modules.items():
        for attr, value in vars(mod).items():
            if inspect.isfunction(value) and value.__module__ == mod.__name__ and not attr.startswith("_"):
                for other in package_modules:
                    for alias, bound in vars(other).items():
                        if bound is value:
                            out.append((other, alias, f"{layer}.{attr}"))
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for name, member in vars(value).items():
                    wanted = not name.startswith("_") or name in ("__init__", "__call__")
                    # dataclass-generated methods are compiled from strings; skip them
                    if (inspect.isfunction(member) and wanted
                            and member.__code__.co_filename == mod.__file__):
                        out.append((value, name, f"{layer}.{value.__name__}.{name}"))
    return out


def install(tracer: Tracer, recorder: Recorder, modules, full: bool):
    """Wrap the boundary spans, or with ``full`` every layer's public API."""
    hooks = {
        BUILD: recorder.on_build,
        RUN: recorder.on_run,
        "verify.convergence_study": recorder.on_report,
        "verify.self_convergence": recorder.on_report,
    }
    if full:
        hooks.update(_counters(tracer, modules))
    for owner, attr, name in _targets(modules):
        if full or name in BOUNDARY_SPANS:
            tracer.wrap(owner, attr, name, hooks.get(name))


def _counters(tracer: Tracer, modules):
    """Hooks that count work at the layer boundaries of a traced run."""
    counts = tracer.counts
    tet_quadrature = modules["mesh3d"].tet_quadrature

    def bound(fn, counter):
        """Hook calling ``counter`` with the call's arguments by parameter name."""
        sig = inspect.signature(fn)

        def hook(args, kwargs, result):
            arguments = sig.bind(*args, **kwargs)
            arguments.apply_defaults()
            counter(arguments.arguments, result)
        return hook

    def load(a, result):
        if not a["f"].is_zero:
            counts["fem3d.load_calls"] += 1
            counts["fem3d.load_points"] += a["space"].mesh.n_tets * tet_quadrature(a["order"])[1].size

    def factor(a, result):
        lu = getattr(a["self"], "_lu", None)
        if lu is not None and hasattr(lu, "L"):
            counts["linalg.factor_nnz"] += lu.L.nnz + lu.U.nnz

    def coupling_nnz(a, result):
        counts["coupling.nnz"] += sum(getattr(result, b).nnz for b in ("c_oo", "c_ol", "c_lo", "c_ll"))

    def locate(a, result):
        counts["mesh3d.locate_points"] += np.atleast_2d(a["points"]).shape[0]

    def vtk(a, result):
        counts["cli.vtk_bytes"] += os.path.getsize(a["path"])

    spec = {
        "fem3d.assemble_load": (modules["fem3d"].assemble_load, load),
        "linalg.Factorization.__init__": (modules["linalg"].Factorization.__init__, factor),
        "coupling.assemble_coupling": (modules["coupling"].assemble_coupling, coupling_nnz),
        "mesh3d.TetMesh.locate_many": (modules["mesh3d"].TetMesh.locate_many, locate),
        "cli.write_vtk_3d": (modules["cli"].write_vtk_3d, vtk),
        "cli.write_vtk_1d": (modules["cli"].write_vtk_1d, vtk),
    }
    return {name: bound(fn, counter) for name, (fn, counter) in spec.items()}


def end_to_end_times(spans) -> dict:
    """setup_s, march_s and post_s of one run from its boundary spans."""
    return {name: covered(spans, names) for name, names in
            (("setup_s", SETUP_SPANS), ("march_s", MARCH_SPANS), ("post_s", POST_SPANS))}


def _quantile_ms(values, q):
    if not values:
        return 0.0
    return 1e3 * float(np.quantile(values, q))


def layer_metrics(tracer: Tracer, max_residual: float, overhead: float) -> dict:
    """Per-layer metrics of one traced run: (value, unit) by metric name."""
    spans = tracer.spans
    counts = tracer.counts
    selfs = self_times(spans)

    def self_of(pred):
        return sum(t for s, t in zip(spans, selfs) if pred(s[0]))

    solves = durations(spans, "linalg.Factorization.solve")
    steps = durations(spans, "stepper.CoupledSystem.step")
    out = {
        "fem3d.load_calls": (counts["fem3d.load_calls"], "count"),
        "fem3d.load_points": (counts["fem3d.load_points"], "count"),
        "fem3d.load_s": (covered(spans, ["fem3d.assemble_load"]), "s"),
        "fem3d.dirichlet_s": (covered(spans, ["fem3d.dirichlet_values"]), "s"),
        "linalg.factor_s": (covered(spans, ["linalg.factorize", "linalg.Factorization.__init__"]), "s"),
        "linalg.factor_nnz": (counts["linalg.factor_nnz"], "count"),
        "linalg.solve_calls": (len(solves), "count"),
        "linalg.solve_s": (covered(spans, ["linalg.Factorization.solve"]), "s"),
        "linalg.solve_ms_p50": (_quantile_ms(solves, 0.5), "ms"),
        "linalg.max_residual": (max_residual, "1"),
        "linalg.residual_margin": (max_residual / RESIDUAL_LIMIT, "1"),
        "coupling.assemble_s": (covered(spans, ["coupling.assemble_coupling"]), "s"),
        "coupling.nnz": (counts["coupling.nnz"], "count"),
        "geometry.circle_points_calls": (len(durations(spans, "geometry.VesselGeometry.circle_points")), "count"),
        "mesh3d.locate_calls": (len(durations(spans, "mesh3d.TetMesh.locate_many")), "count"),
        "mesh3d.locate_points": (counts["mesh3d.locate_points"], "count"),
        "mesh3d.locate_s": (covered(spans, ["mesh3d.TetMesh.locate_many"]), "s"),
        "mesh3d.build_s": (covered(spans, ["mesh3d.build_box_mesh", "mesh3d.TetMesh.__init__"]), "s"),
        "fem3d.matrices_s": (covered(spans, ["fem3d.assemble_mass", "fem3d.assemble_stiffness",
                                             "fem3d.assemble_convection", "fem3d.constrain_rows"]), "s"),
        "dg1d.assemble_s": (covered(spans, ["dg1d.assemble_mass_weighted", "dg1d.assemble_a_lambda",
                                            "dg1d.assemble_b_lambda"]), "s"),
        "stepper.build_self_s": (self_of(lambda n: n == BUILD), "s"),
        "stepper.step_ms_p50": (_quantile_ms(steps, 0.5), "ms"),
        "stepper.step_ms_p95": (_quantile_ms(steps, 0.95), "ms"),
        "stepper.step_self_s": (self_of(lambda n: n == "stepper.CoupledSystem.step"), "s"),
        "stepper.energy_s": (covered(spans, ["stepper.CoupledSystem.energy"]), "s"),
        "dg1d.inflow_s": (covered(spans, ["dg1d.assemble_inflow_rhs"]), "s"),
        "verify.gate_s": (covered(spans, ["verify.source_gate"]), "s"),
        "verify.norms_s": (covered(spans, ["verify.error_norms_3d", "verify.error_norms_1d",
                                           "verify.cross_error_3d", "verify.cross_error_1d"]), "s"),
        "cli.vtk_s": (covered(spans, ["cli.write_vtk_3d", "cli.write_vtk_1d"]), "s"),
        "cli.vtk_bytes": (counts["cli.vtk_bytes"], "B"),
        "trace.overhead_s": (overhead, "s"),
        "trace.spans": (len(spans), "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_of(lambda n, p=layer + ".": n.startswith(p)), "s")
    return out

