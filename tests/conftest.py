import numpy as np
import pytest

from crio.qcore import QuantumState


def random_qubit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def random_state(rng: np.random.Generator, labels) -> QuantumState:
    labels = tuple(labels)
    v = rng.normal(size=2 ** len(labels)) + 1j * rng.normal(size=2 ** len(labels))
    return QuantumState(labels, v / np.linalg.norm(v))


@pytest.fixture(scope="session")
def json_dir(tmp_path_factory):
    """A directory for input files that hypothesis properties rewrite on every example."""
    return tmp_path_factory.mktemp("json")
