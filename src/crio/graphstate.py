"""Graphs, graph states, the control-channel graph family, and exports.

A graph state is CZ along every edge of |+>^n.  build_graph_state writes it
by vertex doubling in one 2**n buffer: vertices join from last to first,
each as a sign-flipped copy of the state so far (its |+> factor), where an
amplitude is negated when an odd number of the joining vertex's CZs to the
vertices already present read 1 on both ends.  CZs commute and are
diagonal, so this is the CZ circuit applied in another order: each amplitude
is negated once per edge whose two ends read 1.  Negating a float flips only
its sign bit, so the copy is one XOR of the (re, im) words against a table
of sign bits, and the result is the same vector, bit for bit (zero signs
too), that edge-by-edge apply_2q_cz calls produce.

The channel family: CrioTopology states its edge rule, and each basis amplitude
carries the sign (-1)^f(x), f the quadratic boolean form read off those edges.
"""
from __future__ import annotations

import ctypes
import sys
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .qcore import QuantumState, check_register_size, checked_int, is_finite_number, is_int, is_real
from .report import _float_column, _nested, _pick, json_list, row_blocks

# glibc keeps freed heap memory below its trim threshold (16 MiB once an 8 MiB vector was freed)
# resident; build_graph_state returns it before a larger state, whose peak it would add to.
_MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None) if sys.platform.startswith("linux") else None

_SIGN_BIT = np.uint64(1 << 63)  # of a float64, as a uint64 word
SIGN_TABLE_BITS = 12  # a joining vertex's sign table spans at most this many later vertices (32 KiB)
MAX_SYSTEMS = 100_000  # remote systems of a CrioTopology, which holds O(N) edges and no state vector


@dataclass(frozen=True)
class Graph:
    num_vertices: int
    edges: frozenset  # of (u, v) pairs with 1 <= u < v <= num_vertices

    def __post_init__(self) -> None:
        n, name = checked_int(self.num_vertices, "num_vertices", low=1), "a vertex of edges"
        # each endpoint is checked here, once, for Graph.of's pairs too, and stored as an int
        edges = frozenset((checked_int(u, name), checked_int(v, name)) for u, v in self.edges)
        if bad := next(((u, v) for u, v in edges if not 1 <= u < v <= n), None):
            raise ValueError(f"self-loop at vertex {bad[0]}" if bad[0] == bad[1] else f"invalid edge {bad}")
        object.__setattr__(self, "num_vertices", n)
        object.__setattr__(self, "edges", edges)

    @staticmethod
    def of(num_vertices: int, edges: Iterable) -> "Graph":
        """The Graph of pairs given in either order: Graph checks each end, so only numbers are ordered here."""
        return Graph(num_vertices, {(v, u) if is_real(u) and is_real(v) and v < u else (u, v) for u, v in edges})

    def sorted_edges(self):
        return sorted(self.edges)


@dataclass(frozen=True)
class CrioTopology:
    """The channel's shape: N remote systems on vertices 1..2N+1, and the optional groups it controls.

    Vertex 1 is the controller; group k in 2..N+1 holds k and k+N.  Group 2 is always controlled; the
    optional groups are 3..N+1, all of them when controlled_groups is None.  The edges are {1,2}, {1,N+2},
    {k,k+N} for each optional k, and {2,k}, {k,N+2} for each controlled k.  Every edge joins the
    controller's colour class, 1 and 3..N+1, to its complement."""

    n_systems: int
    controlled_groups: frozenset = None

    def __post_init__(self) -> None:
        n, groups = checked_int(self.n_systems, "n_systems"), self.controlled_groups
        if not 1 <= n <= MAX_SYSTEMS:  # before the O(N) group set below
            raise ValueError(f"a channel needs 1 to {MAX_SYSTEMS} remote systems, got {n}")
        if groups is not None and (isinstance(groups, str) or not isinstance(groups, Iterable)):
            raise TypeError(f"controlled_groups must be a collection of group numbers or None, got {groups!r}")
        full = frozenset(range(3, n + 2))
        groups = full if groups is None else frozenset(groups)  # a given group is an integer (3.0, True or "3" is not)
        bad = () if groups is full else {g for g in groups if not is_int(g)} | (groups - full)
        if bad := sorted(bad, key=lambda g: (type(g).__name__, g)):  # by type first: mixed types never compare
            raise ValueError(f"controlled groups must lie in 3..{n + 1}, not {', '.join(map(str, bad))}")
        object.__setattr__(self, "n_systems", n)
        object.__setattr__(self, "controlled_groups", groups if groups is full else frozenset(map(int, groups)))

    @property
    def groups(self) -> list:
        """The participating groups, ascending: 2 and the controlled optional groups."""
        return [2, *sorted(self.controlled_groups)]

    @property
    def edges(self) -> list:
        n, wired = self.n_systems, sorted(self.controlled_groups)
        return [(1, 2), (1, n + 2), *((k, k + n) for k in range(3, n + 2)), *((2, k) for k in wired),
                *((k, n + 2) for k in wired)]

    @property
    def colour_class(self) -> list:
        return [1, *range(3, self.n_systems + 2)]


def crio_graph(topology: CrioTopology) -> Graph:
    return Graph(2 * topology.n_systems + 1, frozenset(topology.edges))  # each edge is a distinct (u, v), u < v


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
    buf[:L], vertex u joins in |+> by writing the x_u = 1 half buf[L:2L] in
    one pass: the uint64 words of buf[:L], XOR-ed with the sign bit wherever
    u's later neighbours read 1 an odd number of times.  The sign bits sit in
    a table over vertices u+1..top, top the last of u's later neighbours,
    broadcast over the contiguous chunk of vertices top+1..n below it.  The
    table spans at most SIGN_TABLE_BITS vertices; a neighbour beyond that
    span negates its x_v = 1 blocks of the half afterwards, as strided views.
    A vertex without later neighbours is a plain copy.  The module docstring
    says why this is the CZ circuit, bit for bit.
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
    if n >= 20 and _MALLOC_TRIM is not None:  # a buffer of 16 MiB or more, which malloc maps on its own
        _MALLOC_TRIM(0)
    buf = np.empty(2 ** n, dtype=complex)
    buf[0] = 2 ** (-n / 2)
    for u in range(n, 0, -1):
        size = 1 << (n - u)
        low, half = buf[:size].view(np.uint64), buf[size:2 * size].view(np.uint64)  # (re, im) words
        if not later[u]:
            half[:] = low
            continue
        span = min(max(later[u]) - u, SIGN_TABLE_BITS)
        signs = np.zeros(1 << span, dtype=np.uint64)
        for v in later[u]:
            if v - u <= span:
                _flip_signs(signs, v - u)
        np.bitwise_xor(low.reshape(1 << span, -1), signs[:, None], out=half.reshape(1 << span, -1))
        for v in later[u]:
            if v - u > span:
                _flip_signs(half, v - u)
    return QuantumState._trusted(labels, buf)  # unit norm by construction: every amplitude is +-2**(-n/2)


def _flip_signs(words: np.ndarray, depth: int) -> None:
    """XOR the sign bit, in place, into the words of `words` whose index has bit
    `depth` set, bits counted from the most significant (depth 1); `words` holds
    a multiple of 2**depth words."""
    block = words.reshape(1 << (depth - 1), 2, -1)[:, 1]
    np.bitwise_xor(block, _SIGN_BIT, out=block)


def basis_bits(num_qubits: int) -> np.ndarray:
    """The (num_qubits, 2**num_qubits) 0/1 array of every basis index: column x holds
    the bits of x, most significant first, so row i runs over qubit i+1.  A count above MAX_QUBITS is refused."""
    check_register_size(num_qubits := checked_int(num_qubits, "num_qubits", low=0))
    return (np.arange(2 ** num_qubits) >> np.arange(num_qubits - 1, -1, -1)[:, None]) & 1


def sign_exponent(n_systems: int, bits):
    """The quadratic boolean form f(x) defining the channel-state signs.

    `bits` is a bitstring, or a 0/1 array whose first axis runs over
    a1..a(2N+1); f is an int for one bitstring and an array over the
    remaining axes otherwise."""
    n_systems = checked_int(n_systems, "n_systems", low=1)
    q = np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0") if isinstance(bits, str) else np.asarray(bits)
    if q.shape[:1] != (2 * n_systems + 1,) or not np.isin(q, (0, 1)).all():
        raise ValueError(f"expected {2 * n_systems + 1} bits of 0 or 1, got {bits!r}")
    q = np.concatenate([np.zeros_like(q[:1]), q]).astype(np.int64)  # 1-based rows
    val = (q[1] & q[2]) ^ (q[1] & q[n_systems + 2])
    for k in range(3, n_systems + 2):
        val ^= (q[2] & q[k]) ^ (q[k] & q[n_systems + 2]) ^ (q[k] & q[k + n_systems])
    return int(val) if val.ndim == 0 else val


def amplitude_oracle(n_systems: int, bits):
    """Direct amplitude (-1)^f(x) * 2 ** (-(2N+1)/2) of the full-control channel state,
    for one bitstring or for each column of a bit array, as sign_exponent reads them.
    The magnitude is the float build_graph_state starts from, so the two agree bit for bit."""
    n_systems = checked_int(n_systems, "n_systems", low=1)
    return (1 - 2 * sign_exponent(n_systems, bits)) * 2 ** (-(2 * n_systems + 1) / 2)


def crio_channel_state(topology: CrioTopology) -> QuantumState:
    """Channel graph state on labels a1..a(2N+1)."""
    check_register_size(2 * topology.n_systems + 1)  # before the O(N) graph
    return build_graph_state(crio_graph(topology), qubit_labels(topology.n_systems))


def phi_state(n_systems: int) -> QuantumState:
    """(1/sqrt(2^N)) sum_q |q, q> on 2N qubits (the controller-free resource)."""
    n_systems = checked_int(n_systems, "n_systems", low=1)
    n = 2 * n_systems
    check_register_size(n)
    amps = np.zeros(2 ** n, dtype=complex)
    q = np.arange(2 ** n_systems)
    amps[(q << n_systems) | q] = 2 ** (-n_systems / 2)
    return QuantumState(tuple(f"q{i}" for i in range(1, n + 1)), amps, copy=False)


# ----------------------------------------------------------------------
# serialization

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
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise ValueError(f"malformed edge line {ln!r}") from None
        edges.append((u, v))
    return Graph.of(n, edges)


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


@dataclass(frozen=True, eq=False)
class Amplitudes:
    """A state's amplitudes as reports stream them, in blocks of report.BLOCK_ROWS rows; a block
    renders each distinct float bit pattern of its rows once, so no object is made per amplitude."""

    values: np.ndarray  # complex, one per basis index

    def __len__(self) -> int:
        return len(self.values)

    def json_blocks(self):
        """[[re, im], ...] as json.dumps(report, sort_keys=True, indent=2) writes it under report["state"]["amplitudes"]."""
        pairs = self.values.view(np.float64).reshape(-1, 2)
        return json_list(_nested([..., ...], 3), len(pairs), lambda block: _float_column(pairs[block]))

    def csv_blocks(self):
        """The index,real,imag CSV, floats as format(v, ".17g"); an index is its thousands, one string
        per distinct value in a block, then its last three digits, picked from a table."""
        pairs = self.values.view(np.float64).reshape(-1, 2)
        last = np.array([str(k) for k in range(1000)] + [f"{k:03d}" for k in range(1000)], dtype=object)

        def rows(block: slice) -> np.ndarray:
            floats = _float_column(pairs[block], lambda v: format(v, ".17g"))
            i = np.arange(block.start, block.start + len(floats))
            heads = [str(h) if h else "" for h in range(i[0] // 1000, i[-1] // 1000 + 1)]
            table = np.empty((len(floats), 7), dtype=object)
            table[:, 0], table[:, 1] = _pick(heads, i // 1000 - i[0] // 1000), last[i % 1000 + 1000 * (i >= 1000)]
            table[:, 2::2], table[:, 3::2] = [",", ",", "\n"], floats
            return table
        yield "index,real,imag\n"
        yield from row_blocks(len(pairs), rows)


def state_to_json_dict(state: QuantumState) -> dict:
    """The labels, and the amplitudes as a streamed `Amplitudes` list."""
    return {"labels": list(state.labels), "amplitudes": Amplitudes(state.amplitudes)}


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
    if bad := [label for label in data["labels"] if not isinstance(label, str)]:
        raise ValueError(f"state labels must be strings, got {bad[0]!r}")
    for pair in data["amplitudes"]:
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(is_finite_number, pair))):
            raise ValueError(f"state amplitudes must be [re, im] pairs of finite numbers, got {pair!r}")
    amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    return QuantumState(tuple(data["labels"]), amps, copy=False)


def all_bitstrings(n: int):
    return ("".join(map(str, bits)) for bits in product((0, 1), repeat=n))
