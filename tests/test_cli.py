import os

import numpy as np
import pytest

from vesselfem import cli
from vesselfem.dg1d import DgSpace, Partition1D
from vesselfem.errors import ConfigError
from vesselfem.geometry import ConstantPermeability, ConstantRadius, VesselGeometry
from vesselfem.mesh3d import build_box_mesh

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
        from vesselfem import stepper

        def refuse(*args, **kwargs):
            raise AssertionError("a mesh was built for a rejected level")

        monkeypatch.setattr(stepper, "build_box_mesh", refuse)

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
