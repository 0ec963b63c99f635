"""The benchmark's traced mode binds the program's parameters and attributes by
name (``assemble_load``'s ``order``, ``Factorization._lu``, the VTK writers'
``path``), so a rename shows only when that mode runs.  Its spans time
functions by name too: the march's inflow vector is ``assemble_inflow_rhs``.
The ``sweep`` workload reads each system after its march has freed the LU,
so one short run of it passes every bench gate."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_manufactured_run():
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "manufactured", "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    record = json.loads(result.stdout.strip().splitlines()[-1])
    assert record["correct"] is True
    for name in ("fem3d.load_calls", "linalg.factor_nnz", "coupling.nnz",
                 "mesh3d.locate_points", "cli.vtk_bytes", "dg1d.inflow_s"):
        assert record["metrics"][name]["value"] > 0, name


def test_sweep_run_passes_the_gates():
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    record = json.loads(result.stdout.strip().splitlines()[-1])
    assert record["correct"] is True and record["failed"] == 0
