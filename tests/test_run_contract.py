"""The ``run`` contract as a property: every config file either runs to the
time it promises or is refused with a clear exit code.

Config files are drawn from each RunConfig field's annotated kind: typical
values, and zero, negative, tiny, huge and non-finite ones, ``none``, empty
values, tuples of the wrong length and an unknown key.  The box level stays
at n <= 4 unless the draw is refused, and an accepted march takes at most
500 steps.
"""
import math
import shutil
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vesselfem import cli

TYPICAL = {
    "n": ("2", "3", "4"),
    "degree": ("1", "2"),
    "epsilon": ("-1", "0", "1"),
    "sigma": ("50", "80"),
    "tau": ("0.1", "0.05", "0.002"),
    "t_end": ("1", "0.3"),
    "n_circ": ("4", "16"),
    "p0": ("-0.4,-0.4,-0.4", "-0.3,0.1,-0.4"),
    "p1": ("0.4,0.4,0.4", "0.2,-0.1,0.4"),
    "radius": ("0.05", "0.02"),
    "radius_min": ("0.03",),
    "radius_max": ("0.06",),
    "radius_beta": ("8",),
    "gamma": ("0.1", "0"),
    "gamma_breaks": ("0.3,0.6",),
    "gamma_values": ("0,0.05,0.1",),
    "kappa": ("1", "0.5"),
    "kappa_hat": ("1", "2"),
    "u": ("0,0,1", "0.1,0.2,0.3"),
    "u_hat": ("1", "0.5"),
    "c_in": ("5", "0"),
    "c_in_until": ("0.1", "0"),
    "snapshots": ("1", "0,0.3", "0.3"),
    "seed": ("1",),  # no such key
}
EXTREME = {
    "int": ("0", "-1", "1000000", "1e300", "1.5", "nan", "none", ""),
    "float": ("0", "-1", "1e-300", "1e300", "nan", "inf", "-inf", "none", ""),
    "tuple": ("1", "1,2", "1,2,3,4", "0,0,0", "-1e-300,0,0", "1e300,0,0", "nan,0,0", "none", ""),
}
KINDS = {f.name: f.type.partition(" | ")[0] for f in fields(cli.RunConfig)}


def test_draws_cover_every_key():
    assert set(TYPICAL) == set(KINDS) - {"out"} | {"seed"}


@st.composite
def config_lines(draw):
    keys = draw(st.lists(st.sampled_from(sorted(TYPICAL)), unique=True, max_size=4))
    return {key: draw(st.sampled_from(TYPICAL[key] + EXTREME.get(KINDS.get(key), ())))
            for key in keys}


@pytest.mark.filterwarnings("default::RuntimeWarning")  # 1e300 data overflow the energy on purpose
@settings(max_examples=1200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config_lines())
@example({"t_end": "1e300", "tau": "0.1"})
@example({"degree": "1000000"})
@example({"c_in": "1e300"})
@example({"radius": "1e160"})
@example({"p0": "1e300,0,0", "p1": "-1e300,0,0"})
@example({"c_in": "1e300", "u": "0,0,1"})
def test_run_exits_cleanly(tmp_path_factory, lines):
    base = tmp_path_factory.mktemp("run")
    out = base / "out"
    cfg_file = base / "run.cfg"
    text = "".join(f"{key} = {value}\n" for key, value in lines.items())
    cfg_file.write_text(f"n = 4\n{text}out = {out}\n")
    code = cli.main(["run", "--config", str(cfg_file)])
    assert code in (0, 2, 3), code
    if code != 0:
        assert not out.exists()
        return
    cfg = cli.parse_config_file(cfg_file)
    summary = dict(line.split(" = ") for line in (out / "run_summary.txt").read_text().splitlines())
    steps = int(summary["steps"])
    # dt is printed to 7 significant digits
    assert math.isclose(steps * float(summary["dt"]), cfg.t_end, rel_tol=1e-6)
    rows = (out / "run_energy.csv").read_text().splitlines()[1:]
    assert len(rows) == steps + 1
    assert not any(row.split(",")[2] == "nan" for row in rows)
    # a snapshot is the first state at or after its time, named by that state's time
    states = [k * (cfg.t_end / steps) for k in range(steps)] + [cfg.t_end]
    for t in set((cfg.t_end,) if cfg.snapshots is None else cfg.snapshots):
        tag = format(next(s for s in states if s >= t - 1e-12), "g").replace(".", "p")
        assert (out / f"run_t{tag}_3d.vtk").exists() and (out / f"run_t{tag}_1d.vtk").exists()
    shutil.rmtree(base)
