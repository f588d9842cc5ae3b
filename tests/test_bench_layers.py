"""The benchmark's per-layer metrics (``bench/layers.py``) read spans named
``<module>.<function>``. Its tracer wraps only public functions defined in
that very module, so a function that is renamed, made private or moved
would turn those metrics into silent zeros and fail the benchmark's
``layers_bound`` check. These tests read ``bench/`` and change nothing
there."""

import importlib
import inspect
import types
from pathlib import Path

import pytest

from mfkalman.validation import ValidationSuite

_LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _layers():
    # executed from source, so no bytecode cache is written under bench/
    module = types.ModuleType("bench_layers")
    exec(compile(_LAYERS.read_text(), str(_LAYERS), "exec"), module.__dict__)
    return module


LAYERS = _layers()


@pytest.mark.parametrize("name", LAYERS.FUNCTIONS)
def test_traced_function_is_public_in_its_module(name):
    module_name, _, attr = name.partition(".")
    module = importlib.import_module(f"mfkalman.{module_name}")
    fn = getattr(module, attr, None)
    assert not attr.startswith("_")
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_one_criterion_method_per_traced_criterion():
    criteria = [attr for attr in vars(ValidationSuite) if attr.startswith("criterion_")]
    assert len(criteria) == len(LAYERS.CRITERIA)
