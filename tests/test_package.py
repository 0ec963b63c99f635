import ast
import graphlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import vesselfem
from vesselfem import cli

PACKAGE = Path(vesselfem.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


def test_solver_leaves_scipy_special_unloaded():
    """The solver and its CLI import numpy, scipy.sparse and scipy.linalg
    only; the tests load scipy.special (tests/_oracles.py), so a fresh
    interpreter checks it."""
    code = "import sys, vesselfem, vesselfem.cli; print('scipy.special' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
                    for spec in tomllib.load(f)["project"]["dependencies"]}
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"vesselfem"}
    assert third_party == declared == {"numpy", "scipy"}


def _package_imports():
    """{module: the package modules it imports}, read from the source with ast."""
    graph = {}
    for path in PACKAGE.glob("*.py"):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps.update([node.module.split(".")[0]] if node.module else
                            [alias.name for alias in node.names])
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vesselfem."):
                deps.add(node.module.split(".")[1])
            elif isinstance(node, ast.Import):
                deps.update(alias.name.split(".")[1] for alias in node.names
                            if alias.name.startswith("vesselfem."))
        graph[path.stem] = deps
    return graph


def test_package_layers_are_acyclic_and_nothing_imports_the_cli():
    graph = _package_imports()
    assert graph["cli"] >= {"verify", "stepper"} and graph["verify"] >= {"stepper"}
    assert all(deps <= set(graph) for deps in graph.values()), graph
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError on a cycle
    assert [name for name, deps in graph.items() if "cli" in deps] == []


def _readme_block(heading):
    """The fenced block that follows the line ``heading`` in README.md."""
    text = (ROOT / "README.md").read_text()
    after = text[text.index(heading + "\n"):]
    return after.split("```\n", 2)[1]


def test_readme_run_example(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(re.sub(r"(?m)^out = .*$", f"out = {out}", _readme_block("Example config for `run`:")))
    assert cli.main(["run", "--config", str(config)]) == 0
    for t in ("0p5", "1"):
        assert {p.name for p in out.glob(f"run_t{t}_*.vtk")} == {f"run_t{t}_3d.vtk", f"run_t{t}_1d.vtk"}


def test_readme_command_lines_parse():
    lines = _readme_block("## Command line").splitlines()
    assert lines
    for line in lines:
        prog, *argv = shlex.split(line)
        assert prog == "vesselfem"
        cli.build_parser().parse_args(argv)


def test_readme_layout_names_every_module():
    named = re.findall(r"(?m)^  (\w+\.py) ", _readme_block("## Layout"))
    assert sorted(named) == sorted({path.name for path in PACKAGE.glob("*.py")} - {"__init__.py"})


def test_readme_exit_codes_are_what_main_returns():
    """README's ``Exit codes:`` sentence names 0 and every integer literal
    that ``cli.main`` returns, and nothing else."""
    text = (ROOT / "README.md").read_text()
    sentence = text[text.index("Exit codes:"):].split(". ", 1)[0]
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    returned = {node.value.value for node in ast.walk(main) if isinstance(node, ast.Return)
                and isinstance(node.value, ast.Constant) and isinstance(node.value.value, int)}
    assert returned
    assert sorted(int(v) for v in re.findall(r"\b\d+\b", sentence)) == sorted({0} | returned)
