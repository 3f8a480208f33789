"""Graphs, graph states, the control-channel graph family, and exports.

A graph state is CZ along every edge of |+>^n.  build_graph_state writes it
by vertex doubling in one 2**n buffer: vertices join from last to first,
each as a copy of the state so far (its |+> factor), and its CZs to the
vertices already present negate blocks of that copy.  CZs commute and are
diagonal, so this is the CZ circuit applied in another order: each amplitude
is negated once per edge whose two ends read 1, and the result is the same
vector, bit for bit, that edge-by-edge apply_2q_cz calls produce.

The channel family: for N remote systems, 2N+1 vertices are wired as
edges {1,2}, {1,N+2}, plus {2,k}, {k,N+2}, {k,k+N} for each controlled
group index k in 3..N+1.  Each basis amplitude carries the sign
(-1)^f(x) with f the quadratic boolean form read off those edges.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .qcore import QuantumState, check_register_size, is_finite_number


@dataclass(frozen=True)
class Graph:
    num_vertices: int
    edges: frozenset  # of (u, v) pairs with 1 <= u < v <= num_vertices

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        for e in self.edges:
            u, v = e
            if not (1 <= u < v <= self.num_vertices):
                raise ValueError(f"invalid edge {e}")

    @staticmethod
    def of(num_vertices: int, edges: Iterable) -> "Graph":
        normalized = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            normalized.add((min(u, v), max(u, v)))
        return Graph(num_vertices, frozenset(normalized))

    def sorted_edges(self):
        return sorted(self.edges)


@dataclass(frozen=True)
class CrioTopology:
    """N remote systems plus which of the optional groups stay wired to the controller.

    Group indices live in 3..N+1; the base group (participants 2 and N+2)
    is always controlled.  controlled_groups=None means full control.
    """

    n_systems: int
    controlled_groups: frozenset = None

    def __post_init__(self) -> None:
        if self.n_systems < 1:
            raise ValueError("need at least one remote system")
        check_register_size(2 * self.n_systems + 1)  # before the O(N) group set below
        full = frozenset(range(3, self.n_systems + 2))
        groups = full if self.controlled_groups is None else frozenset(self.controlled_groups)
        if not groups <= full:
            raise ValueError(f"controlled groups must be a subset of {sorted(full)}")
        object.__setattr__(self, "controlled_groups", groups)


def crio_graph(topology: CrioTopology) -> Graph:
    n_sys = topology.n_systems
    edges = [(1, 2), (1, n_sys + 2)]
    for k in range(3, n_sys + 2):
        edges.append((k, k + n_sys))
        if k in topology.controlled_groups:
            edges.append((2, k))
            edges.append((k, n_sys + 2))
    return Graph.of(2 * n_sys + 1, edges)


def qubit_labels(n_systems: int) -> tuple:
    return tuple(f"a{i}" for i in range(1, 2 * n_systems + 2))


def target_label(j: int) -> str:
    return f"O{j}"


def role_names(topology: CrioTopology) -> dict:
    """Human-readable role per vertex, carried alongside integer labels."""
    n = topology.n_systems
    roles = {1: "controller"}
    for k in range(2, n + 2):
        roles[k] = f"operator-{k}"
    for j in range(n + 2, 2 * n + 2):
        roles[j] = f"holder-{j}"
    return roles


def build_graph_state(graph: Graph, labels: Sequence[str] | None = None) -> QuantumState:
    """CZ along every edge of |+>^n, built by vertex doubling in one buffer.

    Vertices join from last to first.  With the state of vertices u+1..n in
    buf[:L], vertex u joins in |+>: buf[:L] is copied into buf[L:2L], the
    x_u = 1 half, and u's CZ to each later neighbour v negates the x_v = 1
    block of that half.  The module docstring says why this is the CZ
    circuit, bit for bit.
    """
    n = graph.num_vertices
    check_register_size(n)
    labels = tuple(map(str, range(1, n + 1) if labels is None else labels))
    if len(labels) != n:
        raise ValueError("one label per vertex required")
    if len(set(labels)) != n:
        raise ValueError("duplicate qubit labels")
    later = [[] for _ in range(n + 1)]
    for u, v in graph.edges:
        later[u].append(v)
    buf = np.empty(2 ** n, dtype=complex)
    buf[0] = 2 ** (-n / 2)
    for u in range(n, 0, -1):
        size = 1 << (n - u)
        half = buf[size:2 * size]
        half[:] = buf[:size]
        for v in later[u]:
            block = half.view(np.float64).reshape(1 << (v - u - 1), 2, -1)[:, 1]  # (re, im) pairs
            np.negative(block, out=block)
    return QuantumState._trusted(labels, buf)  # unit norm by construction: every amplitude is +-2**(-n/2)


def _bits_tuple(bits, length: int) -> tuple:
    if isinstance(bits, str):
        vals = [c for c in bits]
        if any(c not in "01" for c in vals):
            raise ValueError(f"not a bitstring: {bits!r}")
        vals = [int(c) for c in vals]
    else:
        vals = [int(b) for b in bits]
        if any(b not in (0, 1) for b in vals):
            raise ValueError(f"bits must be 0/1, got {bits!r}")
    if len(vals) != length:
        raise ValueError(f"expected {length} bits, got {len(vals)}")
    return tuple(vals)


def sign_exponent(n_systems: int, bits) -> int:
    """The quadratic boolean form f(x) defining the channel-state signs."""
    q = (0,) + _bits_tuple(bits, 2 * n_systems + 1)  # 1-based indexing
    val = (q[1] & q[2]) ^ (q[1] & q[n_systems + 2])
    for k in range(3, n_systems + 2):
        val ^= (q[2] & q[k]) ^ (q[k] & q[n_systems + 2]) ^ (q[k] & q[k + n_systems])
    return val


def amplitude_oracle(n_systems: int, bits) -> float:
    """Direct amplitude (-1)^f(x) / (2^N sqrt(2)) of the full-control channel state."""
    if n_systems < 1:
        raise ValueError("need at least one remote system")
    f = sign_exponent(n_systems, bits)
    return (-1) ** f / (2 ** n_systems * math.sqrt(2))


def crio_channel_state(topology: CrioTopology) -> QuantumState:
    """Channel graph state on labels a1..a(2N+1)."""
    return build_graph_state(crio_graph(topology), qubit_labels(topology.n_systems))


def phi_state(n_systems: int, labels: Sequence[str] | None = None) -> QuantumState:
    """(1/sqrt(2^N)) sum_q |q, q> on 2N qubits (the controller-free resource)."""
    if n_systems < 1:
        raise ValueError("need at least one remote system")
    n = 2 * n_systems
    check_register_size(n)
    if labels is None:
        labels = tuple(f"q{i}" for i in range(1, n + 1))
    amps = np.zeros(2 ** n, dtype=complex)
    q = np.arange(2 ** n_systems)
    amps[(q << n_systems) | q] = 2 ** (-n_systems / 2)
    return QuantumState(labels, amps, copy=False)


# ----------------------------------------------------------------------
# serialization

def edge_list_text(graph: Graph) -> str:
    lines = [f"n={graph.num_vertices}"]
    lines += [f"{u} {v}" for u, v in graph.sorted_edges()]
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("edge list must start with a 'n=<num_vertices>' header")
    try:
        n = int(lines[0][2:])
    except ValueError:
        raise ValueError(f"malformed header {lines[0]!r}") from None
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph.of(n, edges)


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def state_to_csv(state: QuantumState) -> str:
    lines = ["index,real,imag"]
    for i, a in enumerate(state.amplitudes):
        lines.append(f"{i},{a.real:.17g},{a.imag:.17g}")
    return "\n".join(lines) + "\n"


def state_to_json_dict(state: QuantumState) -> dict:
    return {
        "labels": list(state.labels),
        "amplitudes": [[a.real, a.imag] for a in state.amplitudes],
    }


def state_from_json_dict(data: dict) -> QuantumState:
    """The inverse of state_to_json_dict; a missing key or a value of the wrong
    shape raises ValueError naming it."""
    if not isinstance(data, dict):
        raise ValueError("a state must be a JSON object with labels and amplitudes")
    for key in ("labels", "amplitudes"):
        if key not in data:
            raise ValueError(f"state is missing {key}")
        if not isinstance(data[key], list):
            raise ValueError(f"state {key} must be a list, got {type(data[key]).__name__}")
    if not data["labels"]:
        raise ValueError("state labels must name at least one qubit")
    for pair in data["amplitudes"]:
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(is_finite_number, pair))):
            raise ValueError(f"state amplitudes must be [re, im] pairs of finite numbers, got {pair!r}")
    amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    return QuantumState(tuple(data["labels"]), amps, copy=False)


def all_bitstrings(n: int):
    return ("".join(map(str, bits)) for bits in product((0, 1), repeat=n))
