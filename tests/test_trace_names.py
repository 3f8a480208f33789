"""Every crio name the benchmark's tracer wraps still exists, and the tracer
still reads the branch count of the protocol's result types.

perfbench/tracer.py skips a traced name that is gone from crio, so its
metrics would read 0 on working code; these tests make the loss visible.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import random_qubit
from crio.protocol import control_denial_report, run_crio
from crio.qcore import random_axis
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


def _inputs(n):
    rng = np.random.default_rng(60 + n)
    return [random_axis(rng) for _ in range(n)], list(rng.uniform(0, 1, n)), [random_qubit(rng) for _ in range(n)]


@pytest.mark.parametrize("n, groups, measurements", [(3, None, 1 + 2 * 3), (4, frozenset({4}), 1 + 2 * 2)])
def test_run_attrs_count_every_branch_of_a_run(n, groups, measurements):
    """Step 3, then steps 4 and 6 for each participating group."""
    result = run_crio(n, *_inputs(n), controlled_groups=groups)
    assert result.measurement_count == measurements
    assert tracer._run_attrs((), {}, result) == {"branches": 2 ** measurements}


def test_run_attrs_count_both_guesses_of_a_denial_report():
    report = control_denial_report(3, *_inputs(3))
    assert tracer._run_attrs((), {}, report) == {"branches": 2 * 2 ** (2 * 3)}  # steps 4 and 6 per group, per guess
