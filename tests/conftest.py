import importlib.util
from pathlib import Path

import numpy as np
import pytest

from crio.qcore import QuantumState

_SPEC = importlib.util.spec_from_file_location(
    "compare_reports", Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py")
compare_reports = importlib.util.module_from_spec(_SPEC)  # tools/compare_reports.py, which is no package
_SPEC.loader.exec_module(compare_reports)


def random_qubit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def plus_state(labels) -> QuantumState:
    """|+> on every label, each amplitude exactly 2 ** (-n / 2), the float build_graph_state starts from."""
    labels = tuple(labels)
    return QuantumState(labels, np.full(2 ** len(labels), 2 ** (-len(labels) / 2), dtype=complex))


def random_state(rng: np.random.Generator, labels) -> QuantumState:
    labels = tuple(labels)
    v = rng.normal(size=2 ** len(labels)) + 1j * rng.normal(size=2 ** len(labels))
    return QuantumState(labels, v / np.linalg.norm(v))


@pytest.fixture(scope="session")
def json_dir(tmp_path_factory):
    """A directory for input files that hypothesis properties rewrite on every example."""
    return tmp_path_factory.mktemp("json")
