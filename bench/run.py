"""Benchmark of the vesselfem solver.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {manufactured,diagonal,sweep} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the workload is repeated while the next repetition still
fits in S seconds (at least once), and the end-to-end metrics are the medians
over the repetitions.  With ``--trace 1`` it runs once untraced and once with
every layer wrapped, and reports the per-layer metrics of the traced run, the
spans going to ``.bench_out/``.  Every repetition passes the correctness
gates or the run fails: the result line then has ``"correct": false`` and the
exit code is 1.  The last line of standard output is the JSON result.
"""
from __future__ import annotations

import os

# one thread for every BLAS/OpenMP pool and one study level at a time; set
# before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "SOLVER_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import gates  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
TIMES = ("wall_s", "setup_s", "march_s")
# post_s is printed but not reported: on `manufactured` it is about 0.3 s and
# its run-to-run spread exceeded the largest bound the benchmark may set
SHOWN_ONLY = ("post_s",)
ERRORS = ("err_box_l2", "err_box_grad", "err_vessel_l2", "err_vessel_grad")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("manufactured", "diagonal", "sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_once(workload, ctx, seed, rep_dir):
    """One repetition: run, gate, and time it from its boundary spans."""
    ctx.recorder.clear()
    ctx.tracer.run += 1
    first = len(ctx.tracer.spans)
    wall, errors, failures = workload(ctx, os.fspath(rep_dir), seed)
    shutil.rmtree(rep_dir, ignore_errors=True)
    spans = ctx.tracer.spans[first:]
    failures = failures + gates.check_operations(ctx.recorder.ops)
    builds = [s for s in spans if s[0] == layers.BUILD]
    return {
        **layers.end_to_end_times(spans),
        "wall_s": wall,
        "errors": errors,
        "failures": failures,
        "attempted": len(builds),
        "failed": sum(1 for s in spans if s[0] in (layers.BUILD, layers.RUN) and not s[5]),
        "max_residual": max((op.report.max_residual for op in ctx.recorder.ops if op.report), default=0.0),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        modules = layers.import_package(ROOT / "src")
    except ImportError as err:
        print(f"cannot import the solver from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = OUT / f"{args.workload}-{os.getpid()}"

    tracer, recorder = Tracer(), layers.Recorder()
    ctx = workloads.Context(modules, recorder, tracer)
    layers.install(tracer, recorder, modules, full=False)
    reps = []
    start = time.perf_counter()
    try:
        while True:
            reps.append(run_once(workload, ctx, args.seed, work / f"rep{len(reps)}"))
            elapsed = time.perf_counter() - start
            if args.trace or elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                break
        tracer.uninstall()
        if args.trace:
            traced = Tracer()
            ctx.tracer = traced
            layers.install(traced, recorder, modules, full=True)
            reps.append(run_once(workload, ctx, args.seed, work / "traced"))
            OUT.mkdir(exist_ok=True)
            traced.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    finally:
        tracer.uninstall()
        ctx.tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for rep in reps for f in rep["failures"]]
    have_errors = all(rep["errors"] is not None for rep in reps)
    if not have_errors:
        failures.append("a repetition produced no accuracy figures")
    if args.trace:
        untraced, traced_rep = reps
        metrics = layers.layer_metrics(traced, traced_rep["max_residual"], traced_rep["wall_s"] - untraced["wall_s"])
        samples = 1
    else:
        metrics = {name: (statistics.median(rep[name] for rep in reps), "s") for name in TIMES}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        if have_errors:
            for name in ERRORS:
                metrics[name] = (statistics.median(rep["errors"][name] for rep in reps), "1")
        samples = len(reps)

    shown = dict(metrics)
    if not args.trace:
        shown.update({name: (statistics.median(rep[name] for rep in reps), "s (shown only)")
                      for name in SHOWN_ONLY})
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    print(f"{args.workload}: {samples} sample(s) per metric, seed {args.seed}")
    for name, (value, unit) in shown.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
