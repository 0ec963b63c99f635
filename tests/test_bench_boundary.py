"""The benchmark times its end-to-end metrics at named boundary spans
(``bench/layers.py``'s ``BOUNDARY_SPANS``) and wraps only a function or
method defined in the layer the name gives.  A boundary moved into another
module and re-exported under its old name would go unwrapped, and its time
would drop out of the metric without any error; this pins every name."""
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


def test_boundary_spans_are_defined_in_their_layer(layers):
    for name in layers.BOUNDARY_SPANS:
        layer, *path = name.split(".")
        module = importlib.import_module(f"{layers.PACKAGE}.{layer}")
        owner = module
        for attr in path:
            assert attr in vars(owner), f"{name}: {attr} is not defined on {owner}"
            owner = vars(owner)[attr]
        assert inspect.isfunction(owner), name
        assert owner.__module__ == module.__name__, f"{name} is defined in {owner.__module__}"
