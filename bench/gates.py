"""Correctness gates of the benchmark workloads.

Each check returns a list of failure messages; a run is correct only when
every list is empty.  The recorded values were produced by the solver as
this benchmark was written, with numpy 2.4 and scipy 1.17; later revisions
must reproduce them to round-off.
"""
from __future__ import annotations

import csv

RESIDUAL_LIMIT = 1e-10
# a CSV cell carries 6 significant digits, so round-off can move its last digit
TABLE_RTOL = 2e-5
# full-precision error norms: far below any discretisation change
ERROR_RTOL = 1e-8
# c_lo and c_ol sum the same triplets in a different order
TRANSPOSE_RTOL = 1e-14

# h = 1/16 errors of the verification study: acceptance-suite references
# (reproduce within a factor of 2) and the recorded full-precision values
MANUFACTURED_REFERENCE = {
    "err_box_grad": 9.1e-2, "err_box_l2": 1.7e-3,
    "err_vessel_grad": 1.3e-1, "err_vessel_l2": 1.3e-2,
}
MANUFACTURED_RECORDED = {
    "err_box_grad": 0.08821854171413814, "err_box_l2": 0.0017210275046342384,
    "err_vessel_grad": 0.12614579986885982, "err_vessel_l2": 0.01285700130186612,
}
# h = 1/16 distances of diagonal case 1 to its n = 32 reference
DIAGONAL_RECORDED = {
    "err_box_l2": 2.791015947009202e-07, "err_box_grad": 1.6733347721046022e-05,
    "err_vessel_l2": 0.00014470978554900556, "err_vessel_grad": 9.006062459049662e-05,
}
# distances between the sweep anchor's n = 8 and n = 16 runs
SWEEP_RECORDED = {
    "err_box_l2": 4.1667039033723695e-05, "err_box_grad": 0.0013416737683070287,
    "err_vessel_l2": 0.0035761726486718054, "err_vessel_grad": 0.07246092005931942,
}

RECORDED_TABLES = {
    "table1_3d.csv": """h,grad_error,grad_rate,l2_error,l2_rate
2.50000e-01,2.50728e-01,,1.86635e-02,
1.25000e-01,1.43107e-01,8.09033e-01,5.41036e-03,1.78642e+00
6.25000e-02,8.82185e-02,6.97936e-01,1.72103e-03,1.65245e+00
""",
    "table2_1d.csv": """h,grad_error,grad_rate,l2_error,l2_rate
2.50000e-01,4.99088e-01,,4.03157e-02,
1.25000e-01,2.51344e-01,9.89633e-01,2.25780e-02,8.36427e-01
6.25000e-02,1.26146e-01,9.94570e-01,1.28570e-02,8.12362e-01
""",
    "table3_case1.csv": """h,err3d,rate3d,err1d,rate1d,rel3d,rel1d
2.50000e-01,1.38762e-06,,1.00384e-03,,1.01717e-01,1.76297e-01
1.25000e-01,8.61898e-07,6.87018e-01,4.18811e-04,1.26115e+00,6.31798e-02,7.35528e-02
6.25000e-02,2.79102e-07,1.62673e+00,1.44710e-04,1.53314e+00,2.04590e-02,2.54144e-02
""",
}


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_table(name: str, text: str) -> list[str]:
    """The CSV ``text`` agrees cell by cell with the recorded table ``name``."""
    want = list(csv.reader(RECORDED_TABLES[name].splitlines()))
    got = list(csv.reader(text.splitlines()))
    if len(got) != len(want) or got[0] != want[0]:
        return [f"{name}: shape or header differs from the recorded table"]
    bad = []
    for row_got, row_want in zip(got[1:], want[1:]):
        if len(row_got) != len(row_want):
            return [f"{name}: row length differs from the recorded table"]
        for col, a, b in zip(want[0], row_got, row_want):
            if (a == "") != (b == "") or (a and not _close(float(a), float(b), TABLE_RTOL)):
                bad.append(f"{name}: {col} = {a or 'empty'}, recorded {b or 'empty'}")
    return bad


def check_manufactured_errors(errors: dict) -> list[str]:
    """Within a factor of 2 of the acceptance references and round-off of the recorded values."""
    bad = []
    for key, ref in MANUFACTURED_REFERENCE.items():
        value = errors[key]
        if not ref / 2.0 <= value <= 2.0 * ref:
            bad.append(f"{key} = {value:.4e} outside [{ref / 2:.3e}, {2 * ref:.3e}]")
        if not _close(value, MANUFACTURED_RECORDED[key], ERROR_RTOL):
            bad.append(f"{key} = {value!r} differs from the recorded {MANUFACTURED_RECORDED[key]!r}")
    return bad


def check_recorded_errors(errors: dict, recorded: dict) -> list[str]:
    return [
        f"{key} = {errors[key]!r} differs from the recorded {want!r}"
        for key, want in recorded.items() if not _close(errors[key], want, ERROR_RTOL)
    ]


def check_decreasing(name: str, values) -> list[str]:
    values = list(values)
    if all(b < a for a, b in zip(values, values[1:])):
        return []
    return [f"{name} does not decrease under refinement: {values}"]


def check_operations(ops) -> list[str]:
    """Solver contract, energy decay and exchange pairing of every finished operation.

    ``ops`` are ``layers.Operation`` records; one that never finished its march
    is a failed operation, counted elsewhere, and has nothing to check.
    """
    bad = []
    for i, op in enumerate(ops):
        if op.report is None:
            continue
        where = f"operation {i} (n={op.n_cells})"
        residual = op.report.max_residual
        if not residual <= RESIDUAL_LIMIT:
            bad.append(f"{where}: residual {residual:.3e} > {RESIDUAL_LIMIT:.0e}")
        rise = energy_rise(op)
        if rise is not None and rise > 0.0:
            bad.append(f"{where}: energy rises by {rise:.3e} (relative) on a step without sources")
        gap = transpose_gap(op.blocks)
        if not gap <= TRANSPOSE_RTOL:
            bad.append(f"{where}: c_lo differs from c_ol^T by {gap:.3e} of its largest entry")
    return bad


def _source_free(problem, t) -> bool:
    """True when the step ending at t has no source, inflow or boundary data."""
    return (
        problem.source3.is_zero
        and problem.source1 is None
        and problem.dirichlet is None
        and (problem.c_in is None or float(problem.c_in(t)) == 0.0)
    )


def energy_rise(op):
    """Largest energy rise over the steps without sources, relative to the
    largest energy; None when every step has a source."""
    energies = op.report.energies
    rises = [energies[k] - energies[k - 1] for k in range(1, op.report.n_steps + 1)
             if _source_free(op.problem, k * op.dt)]
    return float(max(rises) / max(energies)) if rises else None


def transpose_gap(blocks) -> float:
    """max |c_lo - c_ol^T| relative to max |c_ol|."""
    gap = abs(blocks.c_lo - blocks.c_ol.T)
    return float(gap.max() / abs(blocks.c_ol).max()) if gap.nnz else 0.0

