import json
import math
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import plus_state, random_state
from crio import graphstate, report
from crio.cli import main
from crio.graphstate import (
    MAX_SYSTEMS,
    Amplitudes,
    CrioTopology,
    Graph,
    all_bitstrings,
    basis_bits,
    amplitude_oracle,
    build_graph_state,
    crio_channel_state,
    crio_graph,
    parse_edge_list,
    phi_state,
    qubit_labels,
    role_names,
    state_from_json_dict,
    state_to_json_dict,
    sign_exponent,
)
from crio.qcore import apply_2q_cz
from crio.report import json_report

INV_2SQRT2 = 1 / (2 * math.sqrt(2))
LABEL_POOL = ("a", "b", "x", "y", "z", "q0", "q1", "O3", "7", "a10", "a2", "ctl")

# the 3-qubit channel state, sign per basis string (frozen from its defining expansion)
H3_SIGNS = {
    "000": +1, "001": +1, "010": +1, "011": +1,
    "100": +1, "101": -1, "110": -1, "111": +1,
}


class TestGraph:
    def test_rejects_self_loops_and_bad_vertices(self):
        with pytest.raises(ValueError):
            Graph.of(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph.of(3, [(1, 4)])

    def test_normalizes_edge_orientation(self):
        g = Graph.of(3, [(2, 1), (1, 2), (3, 1)])
        assert g.sorted_edges() == [(1, 2), (1, 3)]

    @pytest.mark.parametrize("build", [Graph.of, lambda n, edges: Graph(n, frozenset(edges))],
                             ids=["Graph.of", "Graph"])
    def test_self_loop_and_bad_edge_messages_name_the_checked_ints(self, build):
        """Both constructors refuse a self-loop the same way, after each end is checked as an integer."""
        with pytest.raises(ValueError, match=r"^self-loop at vertex 2$"):
            build(3, [(2, 2)])
        with pytest.raises(ValueError, match=r"^self-loop at vertex 2$"):
            build(3, [(np.int64(2), 2)])
        with pytest.raises(ValueError, match=r"^invalid edge \(1, 4\)$"):
            build(3, [(1, 4)])
        with pytest.raises(TypeError, match=r"^a vertex of edges must be an integer, got 2\.0$"):
            build(3, [(2.0, 2)])


class TestBuildGraphState:
    def test_duplicate_labels_refused(self):
        with pytest.raises(ValueError, match="duplicate qubit labels"):
            build_graph_state(Graph.of(3, [(1, 2)]), labels=("a", "b", "a"))

    def test_empty_edges_gives_plus_product(self):
        state = build_graph_state(Graph.of(2, []))
        np.testing.assert_allclose(state.amplitudes, plus_state(("1", "2")).amplitudes, atol=1e-15)

    def test_three_qubit_channel_sign_pattern(self):
        state = build_graph_state(Graph.of(3, [(1, 2), (1, 3)]), labels=("a", "b", "c"))
        for bits, sign in H3_SIGNS.items():
            assert state.amplitude(bits) == pytest.approx(sign * INV_2SQRT2, abs=1e-12), bits

    def test_five_qubit_channel_corner_amplitude(self):
        state = crio_channel_state(CrioTopology(2))
        assert state.amplitude("11111") == pytest.approx(-1 / (4 * math.sqrt(2)), abs=1e-12)

    def test_edge_order_independence(self):
        edges = [(1, 2), (1, 4), (2, 3), (3, 4), (3, 5)]
        labels = tuple("pqrst")
        rng = np.random.default_rng(5)
        ref = None
        for _ in range(4):
            order = list(edges)
            rng.shuffle(order)
            state = plus_state(labels)
            for u, v in order:
                state = apply_2q_cz(state, labels[u - 1], labels[v - 1])
            if ref is None:
                ref = state.amplitudes
            np.testing.assert_allclose(state.amplitudes, ref, atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_matches_cz_circuit_bit_for_bit(self, data):
        n = data.draw(st.integers(1, 10), label="vertices")
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges = data.draw(st.permutations(pairs).flatmap(
            lambda p: st.integers(0, len(p)).map(lambda k: p[:k])), label="edges")
        labels = data.draw(st.permutations(LABEL_POOL), label="labels")[:n]
        circuit = plus_state(labels)
        for u, v in edges:  # drawn in a shuffled order
            circuit = apply_2q_cz(circuit, labels[u - 1], labels[v - 1])
        built = build_graph_state(Graph.of(n, edges), labels)
        assert built.labels == tuple(labels)
        assert built.amplitudes.tobytes() == circuit.amplitudes.tobytes()  # equal, zero signs too

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_capped_sign_table_matches_cz_circuit_bit_for_bit(self, data):
        """With the sign table capped at 1-3 vertices, neighbours beyond it flip
        their blocks of the half afterwards; the state is still the circuit's."""
        n = data.draw(st.integers(1, 9), label="vertices")
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]), label="edges")
        labels = tuple(map(str, range(1, n + 1)))
        circuit = plus_state(labels)
        for u, v in edges:
            circuit = apply_2q_cz(circuit, labels[u - 1], labels[v - 1])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphstate, "SIGN_TABLE_BITS", data.draw(st.integers(1, 3), label="table bits"))
            built = build_graph_state(Graph.of(n, edges))
        assert built.amplitudes.tobytes() == circuit.amplitudes.tobytes()

    def test_far_neighbours_allocate_under_a_sixteenth_of_the_state(self):
        """Edges that span 19 and 14 vertices exceed the sign table's span; the
        build's peak beyond the state itself stays under 1/16 of the state."""
        tracemalloc.start()
        try:
            state = build_graph_state(Graph.of(20, [(1, 20), (5, 19)]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - state.amplitudes.nbytes < state.amplitudes.nbytes / 16
        x = np.arange(0, 2 ** 20, 97)  # spot-check the signs: (-1)^(x_1 x_20 + x_5 x_19)
        parity = ((x >> 19) & x ^ (x >> 15) & (x >> 1)) & 1
        assert np.array_equal(state.amplitudes[x], (1 - 2 * parity) * 2.0 ** -10)

    def test_21_qubit_channel_state_matches_the_oracle(self):
        """The N=10 channel state, which the build reaches after malloc_trim, has
        amplitude_oracle's signs exactly on seeded sampled indices, at the magnitude 2**(-21/2)."""
        n_sys, n = 10, 21
        state = crio_channel_state(CrioTopology(n_sys))
        x = np.random.default_rng(2110).integers(0, 2 ** n, size=4096)
        oracle = amplitude_oracle(n_sys, (x >> np.arange(n - 1, -1, -1)[:, None]) & 1)
        assert np.array_equal(state.amplitudes[x], np.sign(oracle) * 2 ** (-n / 2))
        assert np.abs(state.amplitudes[x] - oracle).max() <= np.spacing(oracle[0])

    def test_partial_control_channels_match_edge_signs(self):
        for n_sys in range(1, 6):
            optional = range(3, n_sys + 2)
            for mask in range(2 ** len(optional)):
                topo = CrioTopology(n_sys, frozenset(k for i, k in enumerate(optional) if mask >> i & 1))
                n = 2 * n_sys + 1
                x = np.arange(2 ** n)
                f = np.zeros(2 ** n, dtype=int)
                for u, v in crio_graph(topo).edges:
                    f ^= (x >> (n - u)) & (x >> (n - v)) & 1
                expected = (1 - 2 * f) * 2 ** (-n / 2)
                assert np.array_equal(crio_channel_state(topo).amplitudes, expected), topo

    def test_uniform_amplitude_magnitudes(self):
        for n, edges in ((3, [(1, 2), (1, 3)]), (4, [(1, 2), (2, 3), (3, 4), (1, 4)])):
            state = build_graph_state(Graph.of(n, edges))
            np.testing.assert_allclose(np.abs(state.amplitudes), 2 ** (-n / 2), atol=1e-12)


class TestCrioGraph:
    def test_single_system_channel_graph(self):
        g = crio_graph(CrioTopology(1))
        assert g.sorted_edges() == [(1, 2), (1, 3)]

    def test_two_system_full_control(self):
        g = crio_graph(CrioTopology(2))
        assert g.sorted_edges() == [(1, 2), (1, 4), (2, 3), (3, 4), (3, 5)]

    def test_partial_control_drops_edges_in_pairs(self):
        g = crio_graph(CrioTopology(2, frozenset()))
        assert g.sorted_edges() == [(1, 2), (1, 4), (3, 5)]

    def test_edge_count_invariant(self):
        assert len(crio_graph(CrioTopology(1)).edges) == 2
        for n in (2, 3, 4, 5):
            assert len(crio_graph(CrioTopology(n)).edges) == 3 * (n - 1) + 2

    def test_group_out_of_range(self):
        with pytest.raises(ValueError):
            CrioTopology(2, frozenset({5}))

    def test_roles_cover_every_vertex(self):
        topo = CrioTopology(3)
        roles = role_names(topo)
        assert set(roles) == set(range(1, 8))
        assert roles[1] == "controller"


def loop_graph(topology: CrioTopology) -> Graph:
    """The channel graph written out as a loop over the optional groups, independently of
    CrioTopology.edges: {1,2}, {1,N+2}, each group's {k,k+N}, and {2,k}, {k,N+2} if k is controlled."""
    n = topology.n_systems
    edges = [(1, 2), (1, n + 2)]
    for k in range(3, n + 2):
        edges.append((k, k + n))
        if k in topology.controlled_groups:
            edges += [(2, k), (k, n + 2)]
    return Graph.of(2 * n + 1, edges)


def shapes(n: int) -> list:
    """Every control subset up to N=5; full control and no optional group above."""
    optional = range(3, n + 2)
    subsets = [c for size in range(n) for c in combinations(optional, size)] if n <= 5 else [(), optional]
    return [CrioTopology(n, frozenset(groups)) for groups in subsets]


def shape_id(topology: CrioTopology) -> str:
    n, wired = topology.n_systems, topology.controlled_groups
    return f"N{n}-" + ("all" if len(wired) == n - 1 else ",".join(map(str, sorted(wired))) or "none")


class TestChannelShape:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_crio_graph_equals_the_loop(self, n):
        for topology in shapes(n):
            assert crio_graph(topology) == loop_graph(topology), topology

    @pytest.mark.parametrize("n", [1, 12, 1000])
    def test_edges_with_both_ends_one_have_the_parity_of_sign_exponent(self, n):
        """Claim 2 as a GF(2) identity: two different quadratic forms on 2N+1 bits differ on at
        least a quarter of the inputs (RM(2, n)'s minimum distance), so 128 random bitstrings
        miss a difference with probability at most (3/4)**128."""
        bits = np.random.default_rng(400 + n).integers(0, 2, size=(2 * n + 1, 128))
        u, v = np.array(CrioTopology(n).edges).T
        parity = (bits[u - 1] & bits[v - 1]).sum(axis=0) % 2
        np.testing.assert_array_equal(parity, sign_exponent(n, bits))

    @pytest.mark.parametrize("topology", [t for n in range(1, 6) for t in shapes(n)] + shapes(1000), ids=shape_id)
    def test_colour_class_and_its_complement_are_independent_sets(self, topology):
        colour = topology.colour_class
        assert colour == sorted(set(colour)) and colour[0] == 1
        inside = set(colour)
        ends_inside = {(u in inside, v in inside) for u, v in topology.edges}
        assert (True, True) not in ends_inside and (False, False) not in ends_inside

    def test_groups_are_the_base_group_and_the_controlled_ones(self):
        assert CrioTopology(4).groups == [2, 3, 4, 5]
        assert CrioTopology(4, frozenset({5, 3})).groups == [2, 3, 5]
        assert CrioTopology(4, frozenset()).groups == [2]

    def test_thousand_systems_build_in_under_50_ms(self):
        """The best of three builds, as one build on a loaded machine can stall well past the bound."""
        def build():
            start = time.perf_counter()
            topology = CrioTopology(1000)
            graph, groups, colour = crio_graph(topology), topology.groups, topology.colour_class
            return time.perf_counter() - start, (graph.num_vertices, len(graph.edges), len(groups), len(colour))

        runs = [build() for _ in range(3)]
        assert min(seconds for seconds, _ in runs) < 0.05
        assert all(sizes == (2001, 3 * 999 + 2, 1000, 1000) for _, sizes in runs)

    def test_shape_past_the_dense_bound_has_no_state(self):
        assert crio_graph(CrioTopology(13)).num_vertices == 27
        with pytest.raises(ValueError, match="27-qubit register exceeds the limit of 25 qubits"):
            crio_channel_state(CrioTopology(13))

    def test_count_above_max_systems_is_refused(self):
        assert CrioTopology(MAX_SYSTEMS).n_systems == MAX_SYSTEMS
        with pytest.raises(ValueError, match=f"needs 1 to {MAX_SYSTEMS} remote systems, got {MAX_SYSTEMS + 1}"):
            CrioTopology(MAX_SYSTEMS + 1)

    def test_group_range_error_names_the_range_and_only_the_offenders(self):
        with pytest.raises(ValueError) as err:
            CrioTopology(100000, frozenset({1}))
        assert str(err.value) == "controlled groups must lie in 3..100001, not 1"
        assert len(str(err.value).encode()) < 200
        with pytest.raises(ValueError, match=r"must lie in 3\.\.4, not 2.5, 1, 10, x$"):
            CrioTopology(3, frozenset({"x", 10, 2.5, 3, 1}))

    @pytest.mark.parametrize("build,name", [(CrioTopology, "n_systems"),
                                            (lambda count: Graph.of(count, [(1, 2)]), "num_vertices"),
                                            (lambda count: Graph(count, frozenset()), "num_vertices")])
    @pytest.mark.parametrize("count", [True, False, np.True_, 2.5, 3.0, "3", None])
    def test_type_confused_count_is_refused_naming_it(self, build, name, count):
        with pytest.raises((TypeError, ValueError), match=name):
            build(count)

    @pytest.mark.parametrize("count", [np.int64(3), np.int32(3), np.uint8(200)])
    def test_numpy_integer_count_is_accepted_as_an_int(self, count):
        topology, graph = CrioTopology(count), Graph.of(count, [(1, 2)])
        assert type(topology.n_systems) is int and type(graph.num_vertices) is int
        assert crio_graph(topology) == crio_graph(CrioTopology(int(count)))
        assert graph == Graph.of(int(count), [(1, 2)])

    def test_numpy_groups_and_endpoints_are_stored_as_ints(self):
        """As counts are: a group or an endpoint passes as a numpy integer and is kept as an int, in order."""
        topology = CrioTopology(3, [np.int64(4), np.uint8(3)])
        assert topology.groups == [2, 3, 4] and {type(g) for g in topology.controlled_groups} == {int}
        for graph in (Graph.of(3, [(np.int64(3), 1), (2, np.uint8(1))]),
                      Graph(3, frozenset({(np.int32(1), 3), (1, 2)}))):
            assert graph.sorted_edges() == [(1, 2), (1, 3)]
            assert {type(w) for edge in graph.edges for w in edge} == {int}


class TestAmplitudeOracle:
    def test_all_zero_string(self):
        for n in (1, 2, 3):
            assert amplitude_oracle(n, "0" * (2 * n + 1)) == pytest.approx(
                1 / (2 ** n * math.sqrt(2)), abs=1e-15
            )

    def test_sign_flip_strings(self):
        assert amplitude_oracle(1, "101") == pytest.approx(-INV_2SQRT2, abs=1e-15)
        assert amplitude_oracle(1, "110") == pytest.approx(-INV_2SQRT2, abs=1e-15)
        assert amplitude_oracle(1, "111") == pytest.approx(+INV_2SQRT2, abs=1e-15)

    def test_channel_state_equals_the_oracle_bit_for_bit(self):
        """build_graph_state and the oracle both give the magnitude 2 ** (-(2N+1)/2),
        so the N = 1..10 channel states equal the oracle exactly.  The oracle reads the
        columns of basis_bits(2N+1) in blocks of 2**16 (built as basis_bits builds them),
        which keeps N=10 to a few MiB."""
        for n in range(1, 11):
            amps = crio_channel_state(CrioTopology(n)).amplitudes
            assert not amps.imag.any(), n
            shifts = np.arange(2 * n, -1, -1)[:, None]
            for start in range(0, len(amps), 2 ** 16):
                bits = (np.arange(start, min(start + 2 ** 16, len(amps))) >> shifts) & 1
                assert amps.real[start:start + 2 ** 16].tobytes() == amplitude_oracle(n, bits).tobytes(), (n, start)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_circuit_simulation(self, n):
        state = crio_channel_state(CrioTopology(n))
        for i, bits in enumerate(all_bitstrings(2 * n + 1)):
            assert abs(state.amplitudes[i] - amplitude_oracle(n, bits)) <= 1e-12, bits

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            amplitude_oracle(1, "10")

    def test_sign_exponent_is_boolean(self):
        for bits in all_bitstrings(5):
            assert sign_exponent(2, bits) in (0, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_array_form_matches_bitstrings(self, n):
        """One call on the bit array of every basis index gives, bit for bit, the
        per-bitstring values; extra axes of the array are kept."""
        bits = basis_bits(2 * n + 1)
        expected = np.array([amplitude_oracle(n, b) for b in all_bitstrings(2 * n + 1)])
        np.testing.assert_array_equal(amplitude_oracle(n, bits), expected)
        np.testing.assert_array_equal(amplitude_oracle(n, bits.reshape(2 * n + 1, 2, -1)), expected.reshape(2, -1))
        assert sign_exponent(n, bits[:, -1].tolist()) == sign_exponent(n, "1" * (2 * n + 1))

    @pytest.mark.parametrize("bits", ["1a1", [0, 1, 2], np.zeros((2, 4), dtype=int), np.full((3, 4), 2)])
    def test_malformed_bits_rejected(self, bits):
        with pytest.raises(ValueError, match="expected 3 bits of 0 or 1"):
            sign_exponent(1, bits)

    def test_basis_bits_refuses_a_register_above_the_bound(self, monkeypatch):
        """The bound is checked before the (n, 2**n) table is allocated; MAX_QUBITS is lowered to 4, so
        the refused count stands in for one too large to allocate."""
        monkeypatch.setattr("crio.qcore.MAX_QUBITS", 4)
        assert basis_bits(4).shape == (4, 16)
        with pytest.raises(ValueError, match="5-qubit register exceeds the limit of 4 qubits"):
            basis_bits(5)

    @pytest.mark.parametrize("call, name", [(lambda v: sign_exponent(v, "000"), "n_systems"),
                                            (basis_bits, "num_qubits")], ids=["sign_exponent", "basis_bits"])
    @pytest.mark.parametrize("count", [True, 1.0], ids=repr)
    def test_count_that_is_not_an_integer_is_refused_naming_it(self, call, name, count):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
            call(count)


class TestPhiState:
    def test_single_pair_is_bell(self):
        state = phi_state(1)
        np.testing.assert_allclose(state.amplitudes, np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-15)

    def test_two_pair_expansion(self):
        state = phi_state(2)
        expected = np.zeros(16)
        for bits in ("0000", "0101", "1010", "1111"):
            expected[int(bits, 2)] = 0.5
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_matches_loop_reference(self):
        for n in range(1, 6):
            expected = np.zeros(2 ** (2 * n), dtype=complex)
            for q in range(2 ** n):
                expected[(q << n) | q] = 2 ** (-n / 2)
            assert phi_state(n).amplitudes.tobytes() == expected.tobytes()

    def test_mismatched_halves_vanish(self):
        state = phi_state(3)
        for i, bits in enumerate(all_bitstrings(6)):
            if bits[:3] != bits[3:]:
                assert state.amplitudes[i] == 0


class TestSerialization:
    def test_edge_list_round_trip(self, tmp_path):
        assert parse_edge_list("n=5\n1 2\n1 4\n2 3\n3 4\n3 5\n") == crio_graph(CrioTopology(2))

    def test_malformed_edge_list(self):
        with pytest.raises(ValueError):
            parse_edge_list("5\n1 2\n")
        with pytest.raises(ValueError):
            parse_edge_list("n=3\n1 2 3\n")

    def test_state_csv_and_json(self):
        state = crio_channel_state(CrioTopology(1))
        csv = "".join(Amplitudes(state.amplitudes).csv_blocks())
        lines = csv.strip().splitlines()
        assert lines[0] == "index,real,imag"
        assert len(lines) == 9
        idx, re, im = lines[6].split(",")  # |101>
        assert int(idx) == 5
        assert float(re) == pytest.approx(-INV_2SQRT2, abs=1e-12)
        round_trip = state_from_json_dict(json.loads("".join(json_report(state_to_json_dict(state)))))
        np.testing.assert_allclose(round_trip.amplitudes, state.amplitudes, atol=1e-15)
        assert round_trip.labels == qubit_labels(1)

    STATES = {
        "channel": lambda: crio_channel_state(CrioTopology(2)),  # imaginary parts 0.0 and -0.0
        "phi": lambda: phi_state(2),  # exact zeros
        "random": lambda: random_state(np.random.default_rng(31), [f"q{i}" for i in range(7)]),  # floats distinct
        "random11": lambda: random_state(np.random.default_rng(32), [f"q{i}" for i in range(11)]),  # index >= 1000
    }

    @pytest.mark.parametrize("state_name,block_rows", [
        *((name, rows) for name in ("channel", "phi", "random") for rows in (1, 3, 1000)),
        ("random11", 256), ("random11", 1000),  # a block across index 1000, and one that starts there
    ])
    def test_streamed_writers_match_a_plain_rendering(self, monkeypatch, state_name, block_rows):
        """The JSON and CSV state writers, in blocks of any size, write the bytes of json.dumps
        of the plain [[re, im], ...] list and of one f-string row per amplitude."""
        monkeypatch.setattr(report, "BLOCK_ROWS", block_rows)
        state = self.STATES[state_name]()
        amps = state.amplitudes
        plain = {"state": {"labels": list(state.labels), "amplitudes": [[a.real, a.imag] for a in amps]}}
        blocks = list(json_report({"state": state_to_json_dict(state)}))
        assert "".join(blocks) == json.dumps(plain, sort_keys=True, indent=2) + "\n"
        assert len(blocks) == 4 + -(-len(amps) // block_rows)  # head, blocks, list closer, tail, newline
        csv = list(Amplitudes(amps).csv_blocks())
        assert "".join(csv) == "index,real,imag\n" + "".join(f"{i},{a.real:.17g},{a.imag:.17g}\n" for i, a in enumerate(amps))
        assert len(csv) == 1 + -(-len(amps) // block_rows)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_19_qubit_write_peaks_under_three_state_sizes(self, tmp_path, fmt):
        """build-state h2n1 --n 9 holds one 8 MiB state; its report is written in blocks, so
        the traced peak, the state included, stays under three times the state's bytes."""
        tracemalloc.start()
        try:
            assert main(["build-state", "h2n1", "--n", "9", "--format", fmt, "--out", str(tmp_path / "state")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 16 * 2 ** 19

    @pytest.mark.parametrize(
        "data,named",
        [
            ({"labels": ["a"]}, "amplitudes"),
            ({"amplitudes": [[1.0, 0.0], [0.0, 0.0]]}, "labels"),
            ({"labels": ["a"], "amplitudes": "1,0"}, "amplitudes"),
            ({"labels": ["a"], "amplitudes": [[1.0, 0.0], [0.0, 0.0, 0.0]]}, "amplitudes"),
            ({"labels": ["a"], "amplitudes": [[1.0, 0.0], [float("nan"), 0.0]]}, "amplitudes"),
            ({"labels": ["a"], "amplitudes": [[1.0, 0.0], [True, 0.0]]}, "amplitudes"),
            ([], "labels and amplitudes"),
            ({"labels": [None, True], "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}, "labels"),
        ],
    )
    def test_state_schema_errors_name_the_key(self, data, named):
        with pytest.raises(ValueError, match=named):
            state_from_json_dict(data)
