"""Every crio name the benchmark's tracer wraps still exists.

perfbench/tracer.py skips a traced name that is gone from crio, so its
metrics would read 0 on working code; this test makes the loss visible.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from crio.stator import Stator

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


@pytest.mark.parametrize("module, name", sorted({**tracer.SPAN_NAMES, **tracer.COUNT_ONLY}))
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"


@pytest.mark.parametrize("method", sorted(tracer.STATOR_METHODS))
def test_traced_stator_method_is_defined_on_the_class(method):
    assert callable(Stator.__dict__.get(method)), method
