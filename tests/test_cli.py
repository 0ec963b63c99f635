import dataclasses
import os

import numpy as np
import pytest

from vesselfem import cli
from vesselfem.dg1d import DgSpace, Partition1D
from vesselfem.errors import ConfigError
from vesselfem.geometry import ConstantPermeability, ConstantRadius, VesselGeometry
from vesselfem.mesh3d import build_box_mesh
from vesselfem.stepper import MAX_DEGREE

UNIT = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


class TestVtk3d:
    def test_header_and_counts(self, tmp_path):
        mesh = build_box_mesh(*UNIT, 2)
        path = tmp_path / "field.vtk"
        cli.write_vtk_3d(mesh, np.zeros(mesh.n_vertices), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert "ASCII" in lines[:4]
        assert f"POINTS {mesh.n_vertices} double" in lines
        assert f"CELLS {mesh.n_tets} {5 * mesh.n_tets}" in lines
        pt_line = lines.index(f"POINTS {mesh.n_vertices} double")
        pts = lines[pt_line + 1 : pt_line + 1 + mesh.n_vertices]
        assert len(pts) == mesh.n_vertices
        assert all(len(p.split()) == 3 for p in pts)
        assert lines.count("10") == mesh.n_tets  # one tetra cell type per cell

    def test_field_length_checked(self, tmp_path):
        mesh = build_box_mesh(*UNIT, 2)
        with pytest.raises(ValueError):
            cli.write_vtk_3d(mesh, np.zeros(5), tmp_path / "bad.vtk")


class TestVtk1d:
    def test_sample_count(self, tmp_path):
        geom = VesselGeometry(
            (0, 0, -0.5), (0, 0, 0.5), ConstantRadius(0.05), ConstantPermeability(1.0)
        )
        dg = DgSpace(Partition1D.uniform(geom.length, 4), 1)
        path = tmp_path / "line.vtk"
        cli.write_vtk_1d(dg, np.zeros(dg.n_dofs), geom, path)
        text = path.read_text()
        assert "POINTS 8 double" in text  # degree+1 samples per element
        assert "DATASET POLYDATA" in text
        assert "LINES 4 12" in text


class TestVtkBytes:
    """The block writers produce the same bytes as one formatted line per item."""

    @staticmethod
    def _expected(title, dataset, points, cell_lines, values):
        fmt = lambda x: format(float(x), ".16e")
        lines = ["# vtk DataFile Version 3.0", title, "ASCII", f"DATASET {dataset}",
                 f"POINTS {len(points)} double"]
        lines += [f"{fmt(p[0])} {fmt(p[1])} {fmt(p[2])}" for p in points]
        lines += cell_lines
        lines += [f"POINT_DATA {len(points)}", "SCALARS concentration double 1",
                  "LOOKUP_TABLE default"]
        lines += [fmt(v) for v in values]
        return ("\n".join(lines) + "\n").encode()

    def test_3d_bytes(self, tmp_path):
        mesh = build_box_mesh((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5), 4)
        field = np.random.default_rng(0).standard_normal(mesh.n_vertices)
        field[:4] = [-0.0, 0.0, 1e-300, -7.25]
        path = tmp_path / "box.vtk"
        cli.write_vtk_3d(mesh, field, path)
        cells = [f"CELLS {mesh.n_tets} {5 * mesh.n_tets}"]
        cells += [f"4 {t[0]} {t[1]} {t[2]} {t[3]}" for t in mesh.tets]
        cells += [f"CELL_TYPES {mesh.n_tets}"] + ["10"] * mesh.n_tets
        expected = self._expected("vesselfem 3d concentration", "UNSTRUCTURED_GRID",
                                  mesh.vertices, cells, field)
        assert path.read_bytes() == expected

    def test_1d_bytes(self, tmp_path):
        geom = VesselGeometry(
            (-0.4, -0.4, -0.4), (0.4, 0.4, 0.4), ConstantRadius(0.05), ConstantPermeability(0.1)
        )
        dg = DgSpace(Partition1D.uniform(geom.length, 5), 2)
        dofs = np.random.default_rng(1).integers(-5, 6, dg.n_dofs).astype(float)
        path = tmp_path / "line.vtk"
        cli.write_vtk_1d(dg, dofs, geom, path)
        nodes = dg.partition.nodes
        points = np.concatenate([geom.point_at(np.linspace(a, b, 3))
                                 for a, b in zip(nodes[:-1], nodes[1:])])
        # Legendre P0, P1, P2 at xi = -1, 0, 1: exact for integer dofs
        values = (dofs.reshape(-1, 3) @ np.array([[1, 1, 1], [-1, 0, 1], [1, -0.5, 1]])).ravel()
        n_seg = 2 * dg.partition.n_elements
        cells = [f"LINES {n_seg} {3 * n_seg}"]
        cells += [f"2 {3 * e + k} {3 * e + k + 1}" for e in range(5) for k in range(2)]
        expected = self._expected("vesselfem 1d concentration", "POLYDATA",
                                  points, cells, values)
        assert path.read_bytes() == expected

    def test_row_blocks_do_not_change_bytes(self, tmp_path, monkeypatch):
        mesh = build_box_mesh((-0.5, -0.5, -0.5), (0.5, 0.5, 0.5), 4)
        field = np.random.default_rng(2).standard_normal(mesh.n_vertices)
        geom = VesselGeometry(
            (-0.4, -0.4, -0.4), (0.4, 0.4, 0.4), ConstantRadius(0.05), ConstantPermeability(0.1)
        )
        dg = DgSpace(Partition1D.uniform(geom.length, 5), 2)
        dofs = np.random.default_rng(3).standard_normal(dg.n_dofs)

        def write(tag):
            cli.write_vtk_3d(mesh, field, tmp_path / f"box{tag}.vtk")
            cli.write_vtk_1d(dg, dofs, geom, tmp_path / f"line{tag}.vtk")
            return [(tmp_path / f"{name}{tag}.vtk").read_bytes() for name in ("box", "line")]

        whole = write("")
        monkeypatch.setattr(cli, "VTK_ROW_BLOCK", 1)
        assert write("_rows") == whole


class TestCsv:
    def test_schema_and_format(self, tmp_path):
        path = tmp_path / "t.csv"
        cli.write_csv(path, ["h", "err"], [(0.25, 0.00123456789)])
        lines = path.read_text().splitlines()
        assert lines[0] == "h,err"
        assert lines[1] == "2.50000e-01,1.23457e-03"

    def test_deterministic(self, tmp_path):
        rows = [(0.5, 1e-3), (0.25, None)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.write_csv(a, ["h", "e"], rows)
        cli.write_csv(b, ["h", "e"], rows)
        assert a.read_bytes() == b.read_bytes()


class TestConfig:
    def test_parse_roundtrip(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# sample configuration\n"
            "n = 4\n"
            "t_end = 0.05\n"
            "radius = 0.06\n"
            "u = 0.577,0.577,0.577\n"
            "snapshots = 0.05\n"
        )
        cfg = cli.parse_config_file(cfg_file)
        assert cfg.n == 4
        assert cfg.t_end == 0.05
        assert cfg.radius == 0.06
        assert cfg.u == (0.577, 0.577, 0.577)

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("nn = 4\n")
        with pytest.raises(ConfigError, match="unknown key"):
            cli.parse_config_file(cfg_file)

    def test_seed_is_unknown(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"seed = 1\nout = {tmp_path / 'out'}\n")
        assert cli.main(["run", "--config", str(cfg_file)]) == 2
        assert "unknown key 'seed'" in capsys.readouterr().err

    def test_bad_value_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n = four\n")
        with pytest.raises(ConfigError):
            cli.parse_config_file(cfg_file)

    def test_missing_equals_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n 4\n")
        with pytest.raises(ConfigError):
            cli.parse_config_file(cfg_file)

    @pytest.mark.parametrize("line", ["tau = nan", "t_end = inf", "t_end = nan", "c_in = nan",
                                      "c_in = 1e999", "p0 = 0,nan,0"])
    def test_non_finite_rejected(self, tmp_path, line):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(line + "\n")
        with pytest.raises(ConfigError, match=f"bad value for '{line.split()[0]}'"):
            cli.parse_config_file(cfg_file)

    @pytest.mark.parametrize("key", ["sigma", "kappa", "kappa_hat", "t_end", "u_hat", "c_in",
                                     "c_in_until"])
    @pytest.mark.parametrize("value", ["none", ""])
    def test_required_key_refuses_none(self, tmp_path, key, value):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
            cli.parse_config_file(cfg_file)

    def test_optional_key_takes_none(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("tau = none\nradius = none\nu = \n")
        cfg = cli.parse_config_file(cfg_file)
        assert cfg.tau is None and cfg.radius is None and cfg.u is None

    def test_none_inflow_end_run_exits_2(self, tmp_path, capsys, monkeypatch):
        from vesselfem import fem3d

        def refuse(*args, **kwargs):
            raise AssertionError("a mesh was built for a rejected config")

        monkeypatch.setattr(fem3d, "box_level", refuse)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"n = 2\nc_in_until = none\nout = {tmp_path / 'out'}\n")
        assert cli.main(["run", "--config", str(cfg_file)]) == 2
        assert "bad value for 'c_in_until'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_run_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"n = 2\nc_in = nan\nout = {tmp_path / 'out'}\n")
        assert cli.main(["run", "--config", str(cfg_file)]) == 2
        assert "bad value for 'c_in'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", [{"kappa": np.nan}, {"u": (np.inf, 0.0, 0.0)}])
    def test_non_finite_constant_field_rejected(self, field):
        with pytest.raises(ConfigError, match="finite"):
            cli.problem_from_config(cli.RunConfig(**field))

    def test_tanh_radius_needs_all_fields(self):
        cfg = cli.RunConfig(radius=None, radius_min=0.05, radius_max=None)
        with pytest.raises(ConfigError):
            cli.problem_from_config(cfg)


class TestExitCodes:
    def test_config_error_is_2(self):
        assert cli.main(["manufactured", "--levels", "3,5"]) == 2
        assert cli.main(["diagonal", "--case", "7"]) == 2
        assert cli.main(["diagonal", "--levels", "4,8", "--fine", "8"]) == 2
        assert cli.main(["run", "--config", "/nonexistent/file.cfg"]) == 2

    def test_levels_must_increase(self):
        assert cli.main(["manufactured", "--levels", "8,4"]) == 2

    def test_solver_error_is_3(self, monkeypatch, tmp_path):
        from vesselfem.errors import SolverError

        def boom(*args, **kwargs):
            raise SolverError("synthetic")

        monkeypatch.setattr(cli.verify, "convergence_study", boom)
        assert cli.main(["manufactured", "--levels", "4", "--out", str(tmp_path)]) == 3

    def test_solver_error_mid_study_leaves_no_output(self, monkeypatch, tmp_path):
        from vesselfem.errors import SolverError

        def boom(*args, **kwargs):
            raise SolverError("synthetic")

        monkeypatch.setattr(cli.verify, "_march", boom)
        out = tmp_path / "out"
        assert cli.main(["manufactured", "--levels", "4", "--out", str(out)]) == 3
        assert not out.exists()

    def test_verification_gate_failure_is_4(self, monkeypatch, tmp_path):
        from vesselfem.errors import VerificationError

        def boom(*args, **kwargs):
            raise VerificationError("synthetic")

        monkeypatch.setattr(cli.verify, "convergence_study", boom)
        assert cli.main(["manufactured", "--levels", "4", "--out", str(tmp_path)]) == 4


class TestSolverLimit:
    """Levels beyond the direct solver's memory are refused before any mesh exists."""

    @pytest.fixture(autouse=True)
    def no_mesh(self, monkeypatch):
        from vesselfem import fem3d

        def refuse(*args, **kwargs):
            raise AssertionError("a mesh was built for a rejected level")

        monkeypatch.setattr(fem3d, "box_level", refuse)

    def _rejected(self, argv, capsys):
        assert cli.main(argv) == 2
        assert "direct-solver memory limit" in capsys.readouterr().err

    def test_manufactured_level_64(self, tmp_path, capsys):
        self._rejected(["manufactured", "--levels", "4,8,64", "--out", str(tmp_path)], capsys)

    def test_diagonal_fine_64(self, tmp_path, capsys):
        self._rejected(["diagonal", "--fine", "64", "--out", str(tmp_path)], capsys)

    def test_diagonal_coarse_64(self, tmp_path, capsys):
        self._rejected(
            ["diagonal", "--levels", "4,64", "--fine", "128", "--out", str(tmp_path)], capsys
        )

    def test_run_n_64(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"n = 64\nout = {tmp_path / 'out'}\n")
        self._rejected(["run", "--config", str(cfg_file)], capsys)
        assert not (tmp_path / "out").exists()

    def test_diagonal_fine_outside_levels(self, tmp_path):
        assert cli.main(["diagonal", "--fine", "24", "--out", str(tmp_path)]) == 2


class TestStepLimit:
    """A horizon of more than MAX_STEPS steps is refused before any mesh exists."""

    @pytest.fixture(autouse=True)
    def no_mesh(self, monkeypatch):
        from vesselfem import fem3d

        def refuse(*args, **kwargs):
            raise AssertionError("a mesh was built for a refused step count")

        monkeypatch.setattr(fem3d, "box_level", refuse)

    @pytest.mark.parametrize("tau", ["0.1", "1e-10"])  # t_end / tau overflows to inf at 1e-10
    def test_huge_horizon(self, tmp_path, capsys, tau):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"n = 4\nt_end = 1e300\ntau = {tau}\nout = {tmp_path / 'out'}\n")
        assert cli.main(["run", "--config", str(cfg_file)]) == 2
        assert "exceeds the limit of 100000" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCircleCount:
    """A section circle with fewer than 4 or more than 1024 points is refused
    before any mesh or gate."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        from vesselfem import fem3d

        def refuse(*args, **kwargs):
            raise AssertionError("work started for a rejected circle count")

        monkeypatch.setattr(fem3d, "box_level", refuse)
        monkeypatch.setattr(cli.verify, "source_gate", refuse)

    def _rejected(self, argv, capsys):
        assert cli.main(argv) == 2
        assert "circle points" in capsys.readouterr().err

    def test_run(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"n = 4\nn_circ = 2\nout = {tmp_path / 'out'}\n")
        self._rejected(["run", "--config", str(cfg_file)], capsys)
        assert not (tmp_path / "out").exists()

    def test_manufactured(self, tmp_path, capsys):
        self._rejected(["manufactured", "--levels", "4", "--n-circ", "3",
                        "--out", str(tmp_path)], capsys)

    def test_diagonal(self, tmp_path, capsys):
        self._rejected(["diagonal", "--levels", "4", "--fine", "8", "--n-circ", "2",
                        "--out", str(tmp_path)], capsys)

    def test_run_above_maximum(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"n = 4\nn_circ = 1025\nout = {tmp_path / 'out'}\n")
        self._rejected(["run", "--config", str(cfg_file)], capsys)
        assert not (tmp_path / "out").exists()

    def test_manufactured_above_maximum(self, tmp_path, capsys):
        self._rejected(["manufactured", "--levels", "4", "--n-circ", "1025",
                        "--out", str(tmp_path)], capsys)

    def test_diagonal_above_maximum(self, tmp_path, capsys):
        self._rejected(["diagonal", "--levels", "4", "--fine", "8", "--n-circ", "1025",
                        "--out", str(tmp_path)], capsys)


class TestDiscretisationInput:
    """A box level below 2, a degree below 1 or above MAX_DEGREE or a penalty
    DgParams refuses is rejected before the output directory, any mesh or the
    gate exists."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        from vesselfem import fem3d

        def refuse(*args, **kwargs):
            raise AssertionError("work started for a rejected discretisation")

        monkeypatch.setattr(fem3d, "box_level", refuse)
        monkeypatch.setattr(cli.verify, "source_gate", refuse)

    def _rejected(self, argv, out, message, capsys):
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def _run(self, tmp_path, capsys, lines, message):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{lines}\nout = {tmp_path / 'out'}\n")
        self._rejected(["run", "--config", str(cfg_file)], tmp_path / "out", message, capsys)

    @pytest.mark.parametrize("n", [1, 0, -4])
    def test_run_level(self, tmp_path, capsys, n):
        self._run(tmp_path, capsys, f"n = {n}", "need at least 2 cells per axis")

    def test_run_degree(self, tmp_path, capsys):
        self._run(tmp_path, capsys, "degree = 0", "polynomial degree must be >= 1")

    def test_manufactured_degree(self, tmp_path, capsys):
        out = tmp_path / "out"
        self._rejected(["manufactured", "--levels", "4", "--degree", "0", "--out", str(out)],
                       out, "polynomial degree must be >= 1", capsys)

    def test_manufactured_sigma(self, tmp_path, capsys):
        out = tmp_path / "out"
        self._rejected(["manufactured", "--levels", "4", "--sigma", "1", "--out", str(out)],
                       out, "below required minimum", capsys)

    @pytest.mark.parametrize("epsilon, sigma", [("1", "nan"), ("1", "inf"), ("-1", "nan")])
    def test_manufactured_non_finite_sigma(self, tmp_path, capsys, epsilon, sigma):
        out = tmp_path / "out"
        self._rejected(["manufactured", "--levels", "4", "--epsilon", epsilon, "--sigma", sigma,
                        "--out", str(out)], out, "penalty sigma must be positive and finite", capsys)

    def test_diagonal_degree(self, tmp_path, capsys):
        out = tmp_path / "out"
        self._rejected(["diagonal", "--levels", "4", "--fine", "8", "--degree", "0",
                        "--out", str(out)], out, "polynomial degree must be >= 1", capsys)

    @pytest.mark.parametrize("degree", [MAX_DEGREE + 1, 1_000_000])
    def test_degree_above_cap(self, tmp_path, capsys, degree):
        message = f"polynomial degree must be >= 1 and <= {MAX_DEGREE}"
        self._run(tmp_path, capsys, f"n = 4\ndegree = {degree}", message)
        out = tmp_path / "out"
        self._rejected(["manufactured", "--levels", "4", "--degree", str(degree),
                        "--out", str(out)], out, message, capsys)
        self._rejected(["diagonal", "--levels", "4", "--fine", "8", "--degree", str(degree),
                        "--out", str(out)], out, message, capsys)


# A bad value for every RunConfig key: (value, lines that set the valid
# companions it needs, the refusal's message).
REFUSED = {
    "n": [("1", "", "need at least 2 cells per axis")],
    "degree": [("0", "", "polynomial degree must be >= 1")],
    "epsilon": [("2", "", "epsilon must be -1, 0 or +1")],
    "sigma": [("10", "", "below required minimum")],
    "tau": [("2", "", "need 0 < dt <= t_end")],
    "t_end": [("0", "", "time horizon must be positive and finite"),
              ("1e-320", "n = 16", "1 / dt overflows")],
    "n_circ": [("3", "", "outside the range of 4 to 1024 circle points")],
    "out": [("", "", "output path is empty")],
    "p0": [("0,0", "", "endpoints must be 3D points")],
    "p1": [("-0.4,-0.4,-0.4", "", "centerline length 0.0 is not positive and finite")],
    "radius": [("0", "", "radius profile is not strictly positive and finite"),
               ("0.07", "radius_min = 0.05\nradius_max = 0.08\nradius_beta = 8", "and radius = none")],
    "radius_min": [("0.05", "", "tanh radius needs radius_min, radius_max and radius_beta")],
    "radius_max": [("0.08", "", "tanh radius needs radius_min, radius_max and radius_beta")],
    "radius_beta": [("-8", "radius_min = 0.05\nradius_max = 0.08", "section area must be nondecreasing"),
                    ("8", "", "tanh radius needs radius_min, radius_max and radius_beta")],
    "gamma": [("-0.1", "", "permeability must be nonnegative and finite"),
              ("0.2", "gamma_breaks = 0.5\ngamma_values = 0.1,0.2", "and gamma = none")],
    "gamma_breaks": [("0.5", "", "piecewise permeability needs gamma_breaks and gamma_values")],
    "gamma_values": [("0.1,0.2,0.3", "gamma_breaks = 0.5", "need one more permeability value than breakpoints"),
                     ("0.1,-50,0.1", "n = 16\nt_end = 0.1\ngamma_breaks = 0.5,0.50001",
                      "permeability values must be nonnegative and finite")],
    "kappa": [("0", "", "box diffusivity must be positive"), ("-1", "", "box diffusivity must be positive")],
    "kappa_hat": [("0", "", "vessel diffusivity must be positive"),
                  ("-1", "", "vessel diffusivity must be positive")],
    "u": [("1,2", "", "needs 3 components")],
    "u_hat": [("0", "", "vessel velocity must be positive and finite")],
    "c_in": [("nan", "", "bad value for 'c_in'")],
    "c_in_until": [("none", "", "bad value for 'c_in_until'")],
    "snapshots": [("2", "", "snapshot time 2 is outside [0, t_end = 1]")],
}


class TestRunDataRefused:
    """Every run-config rule fires before any mesh: a bad value for each key
    is refused with exit code 2 and one line on stderr, and leaves no output
    directory."""

    @pytest.fixture
    def no_mesh(self, monkeypatch):
        from vesselfem import fem3d

        def refuse(*args, **kwargs):
            raise AssertionError("a mesh was built for rejected run data")

        monkeypatch.setattr(fem3d, "box_level", refuse)

    def test_table_covers_every_key(self):
        assert set(REFUSED) == {f.name for f in dataclasses.fields(cli.RunConfig)}

    @pytest.mark.parametrize("key, value, companions, message",
                             [(key, *case) for key, cases in REFUSED.items() for case in cases],
                             ids=[f"{key}={case[0]}" for key, cases in REFUSED.items() for case in cases])
    def test_refused_before_any_mesh(self, tmp_path, capsys, no_mesh, key, value, companions, message):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"out = {tmp_path / 'out'}\n{companions}\n{key} = {value}\n")
        assert cli.main(["run", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestOutputPath:
    """An output path that is empty, or is or lies below a plain file, is
    refused with one line and exit code 2 before any mesh or gate, and
    nothing is created."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        from vesselfem import fem3d

        def refuse(*args, **kwargs):
            raise AssertionError("work started for an unusable output path")

        monkeypatch.setattr(fem3d, "box_level", refuse)
        monkeypatch.setattr(cli.verify, "source_gate", refuse)

    @staticmethod
    def _argv(command, tmp_path, out):
        if command == "manufactured":
            return ["manufactured", "--levels", "4", "--out", out]
        if command == "diagonal":
            return ["diagonal", "--levels", "4", "--fine", "8", "--out", out]
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"n = 4\nout = {out}\n")
        return ["run", "--config", str(cfg_file)]

    @pytest.mark.parametrize("command", ["manufactured", "diagonal", "run"])
    @pytest.mark.parametrize("below", ["", "out", "out/deeper"])
    def test_file_in_path(self, tmp_path, capsys, command, below):
        (tmp_path / "F").write_text("")
        argv = self._argv(command, tmp_path, os.path.join(tmp_path, "F", below))
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "cannot be a directory" in err
        assert err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["manufactured", "diagonal", "run"])
    def test_empty_path(self, tmp_path, capsys, command):
        assert cli.main(self._argv(command, tmp_path, "")) == 2
        assert "output path is empty" in capsys.readouterr().err


class TestSnapshotTimes:
    """A snapshot time outside [0, t_end] is refused before any mesh is built."""

    @pytest.fixture(autouse=True)
    def no_mesh(self, monkeypatch):
        from vesselfem import fem3d

        def refuse(*args, **kwargs):
            raise AssertionError("a mesh was built for rejected snapshot times")

        monkeypatch.setattr(fem3d, "box_level", refuse)

    @pytest.mark.parametrize("times", ["2.0", "-0.5", "0.05,0.1000001", "2.0,-0.5"])
    def test_outside_horizon_rejected(self, tmp_path, capsys, times):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"n = 4\nt_end = 0.1\nsnapshots = {times}\nout = {tmp_path / 'out'}\n")
        assert cli.main(["run", "--config", str(cfg_file)]) == 2
        assert "outside [0, t_end = 0.1]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_horizon_reported_first(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"t_end = -1\nout = {tmp_path / 'out'}\n")
        assert cli.main(["run", "--config", str(cfg_file)]) == 2
        assert "time horizon must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestVtkIoErrors:
    def test_unwritable_path_has_context(self):
        mesh = build_box_mesh(*UNIT, 2)
        with pytest.raises(OSError, match="cannot write VTK file"):
            cli.write_vtk_3d(mesh, np.zeros(mesh.n_vertices), "/nonexistent_dir/x.vtk")


class TestRunCommand:
    def test_small_run_outputs(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        out = tmp_path / "out"
        cfg_file.write_text(
            "n = 4\n"
            "t_end = 0.05\n"
            "tau = 0.025\n"
            f"out = {out}\n"
            "snapshots = 0.05\n"
        )
        assert cli.main(["run", "--config", str(cfg_file)]) == 0
        assert (out / "run_summary.txt").exists()
        assert (out / "run_energy.csv").exists()
        assert (out / "run_t0p05_3d.vtk").exists()
        assert (out / "run_t0p05_1d.vtk").exists()
        summary = (out / "run_summary.txt").read_text()
        assert "steps = 2" in summary
        assert "max_residual" in summary

    @pytest.mark.filterwarnings("default::RuntimeWarning")  # the energy overflows on purpose
    def test_huge_inflow_runs(self, tmp_path):
        """An inflow near the float range marches with the residual check
        intact; only the energy, a squared norm, overflows to inf."""
        cfg_file = tmp_path / "run.cfg"
        out = tmp_path / "out"
        cfg_file.write_text(f"n = 4\nc_in = 1e300\nout = {out}\n")
        assert cli.main(["run", "--config", str(cfg_file)]) == 0
        summary = dict(line.split(" = ") for line in (out / "run_summary.txt").read_text().splitlines())
        assert float(summary["max_residual"]) <= 1e-10  # NaN fails too
        assert float(summary["final_energy"]) == np.inf

    @pytest.mark.filterwarnings("default::RuntimeWarning")
    def test_huge_inflow_energy_reads_inf_never_nan(self, tmp_path):
        """With the box velocity along z the energy's dot products overflow to
        both signs; every energy of the finite states still reads inf."""
        cfg_file = tmp_path / "run.cfg"
        out = tmp_path / "out"
        cfg_file.write_text(f"n = 4\nc_in = 1e300\nu = 0,0,1\nout = {out}\n")
        assert cli.main(["run", "--config", str(cfg_file)]) == 0
        rows = (out / "run_energy.csv").read_text().splitlines()[1:]
        energies = np.array([float(row.split(",")[2]) for row in rows])
        assert not np.isnan(energies).any()
        assert energies[0] == 0.0 and np.all(energies[1:] == np.inf)

    def test_default_snapshot_is_the_final_time(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        out = tmp_path / "out"
        cfg_file.write_text(f"t_end = 0.3\nout = {out}\n")
        assert cli.main(["run", "--config", str(cfg_file)]) == 0
        assert (out / "run_t0p3_3d.vtk").exists() and (out / "run_t0p3_1d.vtk").exists()

    def test_step_lands_on_horizon(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        out = tmp_path / "out"
        cfg_file.write_text(
            "n = 2\n"
            "t_end = 1.0\n"
            "tau = 0.3\n"
            f"out = {out}\n"
            "snapshots = 1.0\n"
        )
        assert cli.main(["run", "--config", str(cfg_file)]) == 0
        summary = (out / "run_summary.txt").read_text()
        assert "steps = 4" in summary
        assert "dt = 2.500000e-01" in summary
        rows = (out / "run_energy.csv").read_text().splitlines()
        assert len(rows) == 1 + 5
        assert float(rows[-1].split(",")[1]) == 1.0
        assert (out / "run_t1_3d.vtk").exists()

    def test_state_reached_by_two_times_written_once(self, tmp_path, monkeypatch):
        written = []
        real = cli.write_vtk_3d
        monkeypatch.setattr(cli, "write_vtk_3d", lambda mesh, c, path: written.append(path) or real(mesh, c, path))
        cfg_file = tmp_path / "run.cfg"
        out = tmp_path / "out"
        cfg_file.write_text(f"n = 2\nt_end = 0.6\ntau = 0.0125\nout = {out}\nsnapshots = 0.505,0.501,0.6\n")
        assert cli.main(["run", "--config", str(cfg_file)]) == 0
        # both requests reach the step at t = 0.5125, named by that state's time
        assert [os.path.basename(p) for p in written] == ["run_t0p5125_3d.vtk", "run_t0p6_3d.vtk"]
        assert (out / "run_t0p5125_1d.vtk").exists()


@pytest.mark.slow
class TestManufacturedCommand:
    def test_two_level_tables(self, tmp_path):
        out = tmp_path / "m"
        code = cli.main(["manufactured", "--levels", "4,8", "--out", str(out)])
        assert code == 0
        t1 = (out / "table1_3d.csv").read_text().splitlines()
        t2 = (out / "table2_1d.csv").read_text().splitlines()
        assert t1[0] == "h,grad_error,grad_rate,l2_error,l2_rate"
        assert len(t1) == 3 and len(t2) == 3  # header + one row per level
        assert t1[1].startswith("2.50000e-01,")
        assert t1[1].split(",")[2] == ""  # no rate on the first row
        assert t1[2].split(",")[2] != ""  # one rate entry on the second
        assert (out / "manufactured_n8_3d.vtk").exists()
        assert (out / "manufactured_n8_1d.vtk").exists()

    def test_rerun_is_bit_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["manufactured", "--levels", "4", "--out", str(out1)]) == 0
        assert cli.main(["manufactured", "--levels", "4", "--out", str(out2)]) == 0
        for name in ("table1_3d.csv", "table2_1d.csv", "manufactured_n4_3d.vtk"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.slow
class TestDiagonalCommand:
    def test_small_study_outputs(self, tmp_path):
        out = tmp_path / "d"
        code = cli.main(
            ["diagonal", "--case", "1", "--levels", "4", "--fine", "8", "--out", str(out)]
        )
        assert code == 0
        table = (out / "table3_case1.csv").read_text().splitlines()
        assert table[0] == "h,err3d,rate3d,err1d,rate1d,rel3d,rel1d"
        assert len(table) == 2
        for t in ("0p0125", "0p5", "1"):
            assert (out / f"diagonal_case1_t{t}_3d.vtk").exists()
            assert (out / f"diagonal_case1_t{t}_1d.vtk").exists()
