"""Self-tests of the benchmark: gates, span arithmetic, generator, accuracy helpers.

Run with ``python3 -m pytest -q bench/test_bench.py`` from the checkout root.
"""
from __future__ import annotations

import itertools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import gates
import workloads
from layers import Operation
from tracer import Tracer, covered, self_times, union_length
from vesselfem import cli, stepper
from vesselfem.dg1d import DgSpace, Partition1D, l2_project
from vesselfem.mesh3d import FemSpace, build_box_mesh


def _op(residual=5e-11, energies=(1.0, 2.0, 1.5, 1.2), gap=0.0):
    """An operation of 3 steps of 0.1 whose inflow pulse ends at t = 0.15."""
    problem = SimpleNamespace(source3=SimpleNamespace(is_zero=True), source1=None, dirichlet=None,
                              c_in=lambda t: 5.0 if t <= 0.15 else 0.0)
    c_ol = sp.csr_matrix(np.array([[1.0, 0.0], [0.5, 2.0]]))
    blocks = SimpleNamespace(c_ol=c_ol, c_lo=(c_ol.T + gap * sp.eye(2)).tocsr())
    report = SimpleNamespace(max_residual=residual, energies=np.array(energies), n_steps=len(energies) - 1)
    return Operation(n_cells=4, problem=problem, blocks=blocks, dt=0.1, report=report)


def test_seed_tables_pass_and_a_perturbed_cell_fails():
    for name, text in gates.RECORDED_TABLES.items():
        assert gates.check_table(name, text) == []
    text = gates.RECORDED_TABLES["table3_case1.csv"].replace("2.79102e-07", "2.79202e-07")
    assert len(gates.check_table("table3_case1.csv", text)) == 1
    dropped = gates.RECORDED_TABLES["table1_3d.csv"].replace(",1.78642e+00", ",")
    assert gates.check_table("table1_3d.csv", dropped)


def test_residual_above_limit_fails():
    assert gates.check_operations([_op()]) == []
    assert gates.check_operations([_op(residual=1.02e-10)])
    assert gates.check_operations([_op(residual=float("nan"))])


def test_energy_rise_after_the_pulse_fails():
    # the rise in step 1 comes from the inflow and is allowed
    assert gates.energy_rise(_op()) == pytest.approx(-0.15)
    assert gates.check_operations([_op(energies=(1.0, 2.0, 1.5, 1.6))])


def test_unpaired_exchange_blocks_fail():
    assert gates.check_operations([_op(gap=1e-9)])
    assert gates.check_operations([_op(gap=1e-17)]) == []


def test_unfinished_operation_is_not_checked():
    assert gates.check_operations([replace(_op(residual=1.0), report=None)]) == []


def test_accuracy_gates():
    assert gates.check_manufactured_errors(dict(gates.MANUFACTURED_RECORDED)) == []
    off = dict(gates.MANUFACTURED_RECORDED, err_box_l2=gates.MANUFACTURED_RECORDED["err_box_l2"] * (1 + 1e-6))
    assert len(gates.check_manufactured_errors(off)) == 1
    assert len(gates.check_manufactured_errors(dict(off, err_box_l2=5e-3))) == 2
    assert gates.check_recorded_errors(dict(gates.SWEEP_RECORDED), gates.SWEEP_RECORDED) == []
    off = dict(gates.SWEEP_RECORDED, err_vessel_grad=gates.SWEEP_RECORDED["err_vessel_grad"] * (1 - 1e-6))
    assert len(gates.check_recorded_errors(off, gates.SWEEP_RECORDED)) == 1


def test_decreasing_gate():
    assert gates.check_decreasing("e", [3.0, 2.0, 1.0]) == []
    assert gates.check_decreasing("e", [3.0, 3.0, 1.0])


def test_self_time_on_a_synthetic_tree():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping), grandchild [2, 3]
    spans = [
        ["root", 0.0, 10.0, -1, 1, True],
        ["a", 1.0, 4.0, 0, 1, True],
        ["b", 3.0, 6.0, 0, 1, True],
        ["c", 2.0, 3.0, 1, 1, True],
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])
    assert covered(spans, ["a", "b"]) == pytest.approx(5.0)
    assert union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)


def test_wrapped_calls_nest_and_restore():
    ticks = itertools.count()

    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

        def boom(self):
            raise ValueError("no")

    original = Box.__dict__["outer"]
    tracer = Tracer(clock=lambda: float(next(ticks)))
    seen = []
    for name in ("outer", "inner", "boom"):
        tracer.wrap(Box, name, f"box.{name}", on_return=lambda a, k, r: seen.append(r))
    assert Box().outer() == 2
    with pytest.raises(ValueError):
        Box().boom()
    with tracer.paused():
        Box().inner()
    tracer.uninstall()
    assert Box.__dict__["outer"] is original
    names = [s[0] for s in tracer.spans]
    assert names == ["box.outer", "box.inner", "box.boom"]
    assert [s[3] for s in tracer.spans] == [-1, 0, -1]
    assert [s[5] for s in tracer.spans] == [True, True, False]
    assert seen == [1, 2]
    # outer spans ticks 0..3 and inner 1..2, so outer's self time is 2
    assert self_times(tracer.spans)[0] == pytest.approx(2.0)


@pytest.mark.parametrize("seed", range(20))
def test_sweep_configs_stay_inside_the_box(seed):
    configs = workloads.sweep_configs(cli, seed)
    assert len(configs) == 24 * workloads.SWEEP_CONFIGS_PER_CLASS
    lo, hi = stepper.DEFAULT_BOX
    for cfg in configs:
        geometry = cli.problem_from_config(cfg).geometry
        geometry.check_inside_box(np.asarray(lo), np.asarray(hi))
        assert geometry.length >= 0.6
    assert workloads.sweep_configs(cli, seed) == configs


def test_grad_distance_3d_of_linear_fields():
    coarse, fine = FemSpace(build_box_mesh((0, 0, 0), (1, 1, 1), 2)), FemSpace(build_box_mesh((0, 0, 0), (1, 1, 1), 4))
    a, b = np.array([1.0, -2.0, 0.5]), np.array([0.0, 1.0, 2.0])
    same = workloads.grad_distance_3d(coarse, coarse.mesh.vertices @ a, fine, fine.mesh.vertices @ a)
    assert same == pytest.approx(0.0, abs=1e-12)
    apart = workloads.grad_distance_3d(coarse, coarse.mesh.vertices @ a, fine, fine.mesh.vertices @ b)
    assert apart == pytest.approx(np.linalg.norm(a - b))


def test_grad_distance_1d_of_linear_fields():
    coarse = DgSpace(Partition1D.uniform(2.0, 3), 1)
    fine = DgSpace(Partition1D.uniform(2.0, 6), 2)
    u = l2_project(coarse, lambda s: 3.0 * s)
    v = l2_project(fine, lambda s: 1.0 * s + 4.0)
    assert workloads.grad_distance_1d(coarse, u, fine, v) == pytest.approx(2.0 * np.sqrt(2.0))
