import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import vesselfem

PACKAGE = Path(vesselfem.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


def test_every_export_resolves():
    missing = [name for name in vesselfem.__all__ if not hasattr(vesselfem, name)]
    assert not missing, missing
    assert len(set(vesselfem.__all__)) == len(vesselfem.__all__)


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
