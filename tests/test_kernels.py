"""Property tests: the dense kernels against explicit np.kron operators, and
CZ-built graph states against their closed-form sign pattern."""
import math
import tracemalloc
from functools import reduce
from itertools import combinations

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import random_state
from crio.graphstate import CrioTopology, Graph, build_graph_state, crio_channel_state
from crio.qcore import (
    IDENTITY_2,
    PAULI_Z,
    apply_1q,
    apply_2q_cz,
    apply_controlled_op,
    measure,
    measurement_probabilities,
)

LABELS = "abcdefg"
P0 = np.diag([1, 0]).astype(complex)
P1 = np.diag([0, 1]).astype(complex)
BRAS = {
    "Z": (np.array([[1, 0]], dtype=complex), np.array([[0, 1]], dtype=complex)),
    "X": (np.array([[1, 1]], dtype=complex) / math.sqrt(2), np.array([[1, -1]], dtype=complex) / math.sqrt(2)),
}

kernel_settings = settings(max_examples=60, deadline=None)


def embed(n: int, factors: dict) -> np.ndarray:
    """Kronecker product over n qubits: factors[position], identity elsewhere."""
    return reduce(np.kron, [factors.get(i, IDENTITY_2) for i in range(n)])


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def registers(draw, min_qubits: int = 1):
    """A random normalized state on 1..7 qubits and a generator for more draws."""
    n = draw(st.integers(min_qubits, len(LABELS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_state(rng, LABELS[:n]), rng


@kernel_settings
@given(registers())
def test_apply_1q_matches_kron_on_every_qubit(register):
    state, rng = register
    n = state.num_qubits
    for ax in range(n):
        u = random_unitary(rng)
        out = apply_1q(state, u, LABELS[ax])
        np.testing.assert_allclose(out.amplitudes, embed(n, {ax: u}) @ state.amplitudes, atol=1e-12)


@kernel_settings
@given(registers(min_qubits=2), st.data())
def test_controlled_op_matches_kron_with_control_above_and_below(register, data):
    state, rng = register
    n = state.num_qubits
    lo, hi = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(sorted))
    for control, target in ((lo, hi), (hi, lo)):
        u = random_unitary(rng)
        out = apply_controlled_op(state, LABELS[control], LABELS[target], u)
        oracle = embed(n, {control: P0}) + embed(n, {control: P1, target: u})
        np.testing.assert_allclose(out.amplitudes, oracle @ state.amplitudes, atol=1e-12)


@kernel_settings
@given(registers(min_qubits=2), st.data())
def test_cz_matches_kron(register, data):
    state, _ = register
    n = state.num_qubits
    a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    out = apply_2q_cz(state, LABELS[a], LABELS[b])
    oracle = embed(n, {a: P0}) + embed(n, {a: P1, b: PAULI_Z})
    np.testing.assert_allclose(out.amplitudes, oracle @ state.amplitudes, atol=1e-12)


@kernel_settings
@given(registers(), st.data(), st.sampled_from(["Z", "X"]), st.booleans())
def test_measure_matches_kron_projection(register, data, basis, remove):
    state, _ = register
    n = state.num_qubits
    ax = data.draw(st.integers(0, n - 1))
    outcome = data.draw(st.integers(0, 1))
    bras = BRAS[basis]
    components = [embed(n, {ax: bra}) @ state.amplitudes for bra in bras]
    probs = [float(np.vdot(c, c).real) for c in components]
    np.testing.assert_allclose(measurement_probabilities(state, LABELS[ax], basis), probs, atol=1e-12)

    record, post = measure(state, LABELS[ax], basis, forced_outcome=outcome, remove=remove)
    assert abs(record.probability - probs[outcome]) <= 1e-12
    if remove:
        expected = components[outcome]
        assert post.labels == tuple(LABELS[:ax] + LABELS[ax + 1 : n])
    else:
        bra = bras[outcome]
        expected = embed(n, {ax: bra.conj().T @ bra}) @ state.amplitudes
        assert post.labels == state.labels
    np.testing.assert_allclose(post.amplitudes, expected / math.sqrt(probs[outcome]), atol=1e-12)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 10))
    pairs = list(combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.of(n, [e for e, keep in zip(pairs, chosen) if keep])


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_graph_state_is_closed_form_sign_pattern(graph):
    # amplitude of x is (-1)^(sum over edges of x_u x_v) / 2^(n/2); vertex 1 is the top bit
    n = graph.num_vertices
    x = np.arange(2**n)
    bits = {v: (x >> (n - v)) & 1 for v in range(1, n + 1)}
    parity = sum((bits[u] & bits[v] for u, v in graph.edges), np.zeros_like(x))
    expected = np.where(parity % 2, -1.0, 1.0) * 2 ** (-n / 2)
    np.testing.assert_array_equal(build_graph_state(graph).amplitudes, expected)


def test_channel_state_build_allocates_one_vector():
    tracemalloc.start()
    try:
        state = crio_channel_state(CrioTopology(8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.num_qubits == 17
    assert peak < 1.5 * state.amplitudes.nbytes
