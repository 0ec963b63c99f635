"""The benchmark times its end-to-end metrics at named boundary spans
(``bench/layers.py``'s ``BOUNDARY_SPANS``) and wraps only a function or
method defined in the layer the name gives.  A boundary moved into another
module and re-exported under its old name would go unwrapped, and its time
would drop out of the metric without any error; this pins every name.  The
per-layer metrics name their spans too, and a deleted or moved function
would read as zero time; those names are pinned, less the known stale ones."""
import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("layers")
    finally:
        sys.path.remove(str(BENCH))


# per-layer span names that no longer name a function of the package
STALE_LAYER_SPANS = {"linalg.factorize", "fem3d.constrain_rows"}


def _defined_in_layer(package, name):
    """Whether ``layer.attr[.attr]`` names a function defined in that layer."""
    layer, *path = name.split(".")
    module = importlib.import_module(f"{package}.{layer}")
    owner = module
    for attr in path:
        owner = getattr(owner, "__dict__", {}).get(attr)
    return inspect.isfunction(owner) and owner.__module__ == module.__name__


def test_boundary_spans_are_defined_in_their_layer(layers):
    for name in layers.BOUNDARY_SPANS:
        assert _defined_in_layer(layers.PACKAGE, name), name


def _layer_metric_spans():
    """The string span names ``layer_metrics`` passes to ``covered`` and
    ``durations``, read from its source."""
    tree = ast.parse((BENCH / "layers.py").read_text())
    metrics = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics")
    names = set()
    for call in ast.walk(metrics):
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) in ("covered", "durations"):
            names.update(node.value for node in ast.walk(call.args[1])
                         if isinstance(node, ast.Constant) and isinstance(node.value, str))
    return names


def test_layer_metric_spans_are_defined_in_their_layer(layers):
    names = _layer_metric_spans()
    assert "fem3d.dirichlet_values" in names and "stepper.CoupledSystem.step" in names
    stale = {name for name in names if not _defined_in_layer(layers.PACKAGE, name)}
    assert stale == STALE_LAYER_SPANS
