import math
import re
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import plus_state, random_qubit
from crio import gm
from crio.gm import (
    MAX_SWEEPS,
    OBJECTIVE_TOL,
    GMResult,
    ProductAnsatz,
    closed_form_overlap,
    entanglement_table_rows,
    gm_channel_family,
    gm_optimize,
    gm_phi,
    hadamard_reduce,
    nonneg_reduction_qubits,
    overlap,
    reduce_channel_state,
)
from crio.graphstate import CrioTopology, crio_channel_state, phi_state
from crio.qcore import QuantumState, product_state


def exact_product_overlap(state, thetas):
    """Independent oracle: explicit kron of the product ket, then vdot."""
    vec = np.array([1.0])
    for t in thetas:
        vec = np.kron(vec, np.array([math.cos(t), math.sin(t)]))
    return complex(np.vdot(vec, state.amplitudes))


def reference_gm(state, mode="nonneg", restarts=64, seed=0):
    """The one-restart-at-a-time ascent that `gm_optimize` batches: each
    coordinate contracts the other qubits one tensordot at a time.  It builds
    its own qubit vectors and overlaps, sharing no code with the optimizer."""
    def contract(vectors, skip=None):  # skip=None gives <product|state>
        t = state.tensor_view()
        for i in sorted(set(range(state.num_qubits)) - {skip}, reverse=True):
            t = np.tensordot(t, vectors[i].conj(), axes=([i], [0]))
        return t

    def vector(theta, phi):
        return np.array([math.cos(theta), (1 if phi is None else np.exp(1j * phi)) * math.sin(theta)], dtype=complex)

    rng = np.random.default_rng(seed)
    results = []
    for _ in range(restarts):
        thetas = rng.uniform(0.0, math.pi / 2, size=state.num_qubits)
        phis = rng.uniform(0.0, 2 * math.pi, size=state.num_qubits) if mode == "general" else None
        vectors = [vector(t, None if phis is None else phis[j]) for j, t in enumerate(thetas)]
        best = abs(complex(contract(vectors))) ** 2
        history = [best]
        for _sweep in range(MAX_SWEEPS):
            for j in range(state.num_qubits):
                env = contract(vectors, j)
                m0, m1 = abs(env[0]), abs(env[1])
                if mode == "general" and m1 > 1e-300 and m0 > 1e-300:
                    phis[j] = float(np.angle(env[1]) - np.angle(env[0])) % (2 * math.pi)
                thetas[j] = math.atan2(m1, m0)
                vectors[j] = vector(thetas[j], None if phis is None else phis[j])
            value = abs(complex(contract(vectors))) ** 2
            history.append(value)
            assert value >= best - 1e-9
            if value - best < OBJECTIVE_TOL / 10:
                best = max(best, value)
                break
            best = value
        results.append((best, thetas.copy(), None if phis is None else phis.copy(), history))
    results.sort(key=lambda r: (-r[0], tuple(np.round(r[1], 12))))
    return results


class TestOverlap:
    def test_identical_product_states(self):
        state = QuantumState(("a", "b"), np.array([1, 0, 0, 0], dtype=complex))
        assert overlap(state, ProductAnsatz([0.0, 0.0])) == pytest.approx(1.0)

    def test_reduced_three_qubit_at_symmetry_point(self):
        g3 = reduce_channel_state(1)
        val = overlap(g3, ProductAnsatz([math.pi / 4] * 3))
        assert val.real == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert val.imag == pytest.approx(0.0, abs=1e-15)

    def test_reduced_five_qubit_at_symmetry_point_oracle(self):
        g5 = reduce_channel_state(2)
        thetas = [math.pi / 4] * 5
        oracle = exact_product_overlap(g5, thetas)
        assert overlap(g5, ProductAnsatz(thetas)) == pytest.approx(oracle, abs=1e-12)
        assert oracle.real == pytest.approx(0.5, abs=1e-12)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            overlap(plus_state(("a", "b")), ProductAnsatz([0.1]))

    @pytest.mark.parametrize("thetas, phis", [([math.nan], None), ([0.3, math.nan], None), ([math.inf], [0.0]),
                                              ([0.3], [math.nan]), ([0.3, 0.1], [0.0, -math.inf])], ids=repr)
    def test_non_finite_angles_are_refused(self, thetas, phis):
        """A NaN theta compares False with the non-negative mode's range, so it is refused by name, not
        carried into an overlap of nan."""
        with pytest.raises(ValueError, match="^thetas and phis must be finite$"):
            ProductAnsatz(thetas, phis)

    def test_phase_aware_overlap(self):
        state = QuantumState(("a",), np.array([1, 1j]) / math.sqrt(2))
        val = overlap(state, ProductAnsatz([math.pi / 4], [math.pi / 2]))
        assert abs(val) == pytest.approx(1.0, abs=1e-12)


class TestHadamardReduce:
    def test_three_qubit_reduction_exact(self):
        h3 = crio_channel_state(CrioTopology(1))
        g3 = hadamard_reduce(h3, ["a1"])
        expected = np.zeros(8)
        for bits in ("000", "011", "110", "101"):
            expected[int(bits, 2)] = 0.5
        np.testing.assert_allclose(g3.amplitudes, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reduction_is_non_negative(self, n):
        g = reduce_channel_state(n)
        assert np.max(np.abs(g.amplitudes.imag)) <= 1e-12
        assert np.min(g.amplitudes.real) >= -1e-12

    def test_five_qubit_reduction_pattern(self):
        g5 = reduce_channel_state(2)
        expected = np.zeros(32)
        for q2, q3 in product((0, 1), repeat=2):
            expected[int(f"0{q2}{q3}{q2}{q3}", 2)] = 1 / math.sqrt(8)
            expected[int(f"1{1 - q2}{1 - q3}{q2}{q3}", 2)] = 1 / math.sqrt(8)
        np.testing.assert_allclose(g5.amplitudes, expected, atol=1e-12)

    def test_involution(self):
        h3 = crio_channel_state(CrioTopology(1))
        again = hadamard_reduce(hadamard_reduce(h3, ["a2"]), ["a2"])
        np.testing.assert_allclose(again.amplitudes, h3.amplitudes, atol=1e-12)

    def test_reduction_qubit_list(self):
        assert nonneg_reduction_qubits(1) == ["a1"]
        assert nonneg_reduction_qubits(3) == ["a1", "a3", "a4"]


class TestOptimizer:
    def test_product_state_is_unentangled(self):
        res = gm_optimize(plus_state(("a", "b", "c")), restarts=8)
        assert res.lambda_sq == pytest.approx(1.0, abs=1e-9)
        assert res.G == pytest.approx(0.0, abs=1e-8)

    def test_three_qubit_channel(self):
        res = gm_channel_family(1, restarts=32)
        assert res.lambda_sq == pytest.approx(0.5, abs=1e-8)
        assert res.G == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(res.argmax.thetas, [math.pi / 4] * 3, atol=1e-3)
        assert res.converged

    @pytest.mark.parametrize("n", [2, 3])
    def test_channel_family_gm_equals_system_count(self, n):
        res = gm_channel_family(n, restarts=32)
        assert res.G == pytest.approx(float(n), abs=1e-6)

    @pytest.mark.parametrize("name, value", [("restarts", True), ("restarts", 2.0), ("restarts", "4"),
                                             ("seed", True), ("seed", 1.5), ("seed", None)])
    def test_bool_or_non_integer_restarts_or_seed_is_refused_naming_it(self, name, value):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            gm_optimize(plus_state(("a", "b")), **{name: value})

    def test_numpy_integer_restarts_and_seed_run_as_ints(self):
        state = plus_state(("a", "b", "c"))
        got = gm_optimize(state, restarts=np.int64(3), seed=np.int32(5)).to_json_dict()
        assert type(got["restarts"]) is int and got == gm_optimize(state, restarts=3, seed=5).to_json_dict()

    def test_negative_state_rejected_in_nonneg_mode(self):
        h3 = crio_channel_state(CrioTopology(1))  # has negative amplitudes
        with pytest.raises(ValueError, match="non-negative"):
            gm_optimize(h3, mode="nonneg")

    def test_lambda_never_exceeds_one(self):
        rng = np.random.default_rng(90)
        for _ in range(5):
            v = np.abs(rng.normal(size=8))
            state = QuantumState(("a", "b", "c"), v / np.linalg.norm(v))
            res = gm_optimize(state, restarts=8)
            assert res.lambda_sq <= 1 + 1e-12

    def test_history_is_monotone(self):
        res = gm_channel_family(2, restarts=4)
        hist = res.history
        assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))

    def test_local_unitary_invariance(self):
        # general-mode GM of the raw channel state matches nonneg-mode GM of
        # its reduction, for one and two systems
        for n in (1, 2):
            raw = gm_optimize(crio_channel_state(CrioTopology(n)), mode="general", restarts=48, seed=3)
            reduced = gm_optimize(reduce_channel_state(n), mode="nonneg", restarts=48, seed=3)
            assert raw.G == pytest.approx(reduced.G, abs=1e-6)


class TestPhiFamily:
    @pytest.mark.parametrize("n,expected", [(1, 1.0), (2, 2.0), (3, 3.0)])
    def test_gm_matches_system_count(self, n, expected):
        res = gm_phi(n, restarts=32)
        assert res.G == pytest.approx(expected, abs=1e-6)

    def test_symmetric_ansatz_is_optimal_for_bell(self):
        res = gm_phi(1, restarts=16)
        assert res.lambda_sq == pytest.approx(0.5, abs=1e-8)
        # theta_j = theta_{j+N} at the optimum
        assert abs(res.argmax.thetas[0] - res.argmax.thetas[1]) < 1e-3

    def test_table_rows(self):
        rows = entanglement_table_rows(2, restarts=24)
        assert [r[0] for r in rows] == [1, 2]
        for n, h_id, h_gm, p_id, p_gm in rows:
            assert h_id == f"h{2 * n + 1}" and p_id == f"phi{2 * n}"
            assert h_gm == pytest.approx(float(n), abs=1e-6)
            assert p_gm == pytest.approx(float(n), abs=1e-6)


class TestClosedForm:
    def test_symmetry_point(self):
        for n in (1, 2, 3):
            assert closed_form_overlap(n, [math.pi / 4] * (2 * n + 1)) == pytest.approx(
                1 / math.sqrt(2 ** n), abs=1e-12
            )

    def test_first_angle_zero_rest_quarter_pi(self):
        # oracle value: the exact inner product (the bracket evaluates to 1,
        # so the overlap equals the bare prefactor)
        thetas = [0.0] + [math.pi / 4] * 4
        oracle = exact_product_overlap(reduce_channel_state(2), thetas).real
        assert oracle == pytest.approx(1 / math.sqrt(8), abs=1e-12)
        assert closed_form_overlap(2, thetas) == pytest.approx(oracle, abs=1e-12)

    def test_first_angle_half_pi_with_complementary_sums(self):
        # sin(theta_s + theta_{s+N}) = 1 for every pair leaves the bare prefactor
        thetas = [math.pi / 2, 0.3, 0.9, math.pi / 2 - 0.3, math.pi / 2 - 0.9]
        assert closed_form_overlap(2, thetas) == pytest.approx(1 / math.sqrt(8), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_exact_overlap(self, n):
        rng = np.random.default_rng(91 + n)
        g = reduce_channel_state(n)
        for _ in range(200):
            thetas = rng.uniform(0, math.pi / 2, 2 * n + 1)
            assert closed_form_overlap(n, thetas) == pytest.approx(
                exact_product_overlap(g, thetas).real, abs=1e-10
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            closed_form_overlap(1, [0.1, 0.2, 2.0])
        with pytest.raises(ValueError):
            closed_form_overlap(2, [0.1] * 3)

    def test_symmetry_point_is_stationary(self):
        # finite-difference gradient at the all-pi/4 ansatz
        for n in (1, 2):
            base = np.full(2 * n + 1, math.pi / 4)
            eps = 1e-5
            grad = []
            for j in range(2 * n + 1):
                up, dn = base.copy(), base.copy()
                up[j] += eps
                dn[j] -= eps
                grad.append((closed_form_overlap(n, up) - closed_form_overlap(n, dn)) / (2 * eps))
            assert np.linalg.norm(grad) <= 1e-6


def ascent_case(kind, n, mode, seed):
    """A random, basis or product state on n qubits; non-negative in nonneg mode.
    Basis states give environments with an exact zero entry, which the phase
    update must skip."""
    rng = np.random.default_rng(seed)
    labels = [f"q{i}" for i in range(n)]
    if kind == "random":
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    elif kind == "basis":
        amps = np.eye(2**n)[rng.integers(2**n)]
    else:
        amps = product_state(labels, [random_qubit(rng) for _ in labels]).amplitudes
    if mode == "nonneg":
        amps = np.abs(amps)
    return QuantumState(labels, amps / np.linalg.norm(amps))


ascent_cases = given(n=st.integers(1, 8), kind=st.sampled_from(["random", "basis", "product"]),
                     mode=st.sampled_from(["nonneg", "general"]), seed=st.integers(0, 2**32 - 1))


class TestBatchedAscent:
    """`gm_optimize` sweeps all restarts as rows of one array; `reference_gm`
    runs the same ascent one restart and one coordinate at a time."""

    @settings(max_examples=40, deadline=None)
    @ascent_cases
    def test_one_restart_is_the_reference_ascent(self, n, kind, mode, seed):
        state = ascent_case(kind, n, mode, seed)
        ref_value, ref_thetas, ref_phis, ref_history = reference_gm(state, mode, restarts=1, seed=seed)[0]
        got = gm_optimize(state, mode, restarts=1, seed=seed)
        assert got.lambda_sq == pytest.approx(ref_value, abs=1e-12)
        np.testing.assert_allclose(got.argmax.thetas, ref_thetas, rtol=0, atol=1e-12)
        if mode == "general":  # phases compared on the circle
            np.testing.assert_allclose(np.angle(np.exp(1j * (got.argmax.phis - ref_phis))), 0, atol=1e-12)
        assert len(got.history) == len(ref_history)
        np.testing.assert_allclose(got.history, ref_history, rtol=0, atol=1e-12)

    @settings(max_examples=8, deadline=None)
    @ascent_cases
    def test_sixteen_restarts_match_the_reference(self, n, kind, mode, seed):
        state = ascent_case(kind, n, mode, seed)
        ref_value = reference_gm(state, mode, restarts=16, seed=seed)[0][0]
        got = gm_optimize(state, mode, restarts=16, seed=seed)
        assert got.lambda_sq == pytest.approx(ref_value, abs=1e-12)
        assert got.G == pytest.approx(-math.log2(ref_value), abs=1e-12)

    @pytest.mark.parametrize("mode", ["nonneg", "general"])
    def test_blocks_change_no_number(self, monkeypatch, mode):
        state = ascent_case("random", 5, mode, 140)
        whole = gm_optimize(state, mode, restarts=7, seed=140)
        monkeypatch.setattr(gm, "BLOCK_AMPLITUDES", 2 * 2**5)  # blocks of two rows
        split = gm_optimize(state, mode, restarts=7, seed=140)
        assert split.lambda_sq == whole.lambda_sq and split.history == whole.history
        np.testing.assert_array_equal(split.argmax.thetas, whole.argmax.thetas)

    def test_zero_qubit_state(self):
        res = gm_optimize(QuantumState((), [1.0]), restarts=2)
        assert res.lambda_sq == 1.0 and res.history == [1.0, 1.0] and res.converged

    def test_peak_memory_within_three_state_vectors(self):
        # 64 restarts on 16 qubits run one row at a time, not as one 64-row block
        state = phi_state(8)
        tracemalloc.start()
        try:
            gm_optimize(state, restarts=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * state.amplitudes.nbytes

    def test_only_block_leads_keep_their_history(self, monkeypatch):
        """1,024 restarts in blocks of 128 rows keep per restart their start angles and best
        value (56 bytes at 3 qubits), not a per-sweep history (this state's restarts keeping
        theirs peaked at about 1,460 bytes per restart)."""
        state = ascent_case("random", 3, "general", 153)
        whole = gm_optimize(state, "general", restarts=1024, seed=153)  # one block
        monkeypatch.setattr(gm, "BLOCK_AMPLITUDES", 128 * 2**3)
        tracemalloc.start()
        try:
            split = gm_optimize(state, "general", restarts=1024, seed=153)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 800 * 1024
        assert (split.lambda_sq, split.converged, split.history) == (whole.lambda_sq, whole.converged, whole.history)

    def test_restarts_keep_no_python_object_each(self, monkeypatch):
        """16,384 restarts in blocks of 128 rows keep the start angles and one float per restart,
        768 KiB and 128 KiB, and one running leader: a rank key and a list of rounded angles per
        restart, about 370 bytes each, peaked at 6.1 MB."""
        state = ascent_case("product", 3, "general", 153)  # two sweeps per restart
        whole = gm_optimize(state, "general", restarts=16384, seed=153)
        monkeypatch.setattr(gm, "BLOCK_AMPLITUDES", 128 * 2**3)
        tracemalloc.start()
        try:
            split = gm_optimize(state, "general", restarts=16384, seed=153)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert (split.lambda_sq, split.converged, split.history) == (whole.lambda_sq, whole.converged, whole.history)
        np.testing.assert_array_equal(split.argmax.thetas, whole.argmax.thetas)

    @pytest.mark.parametrize("finals", ["starts", "one point"])
    def test_equal_values_go_to_the_smallest_rounded_angles_then_the_first_row(self, monkeypatch, finals):
        """Seven rows, in blocks of two, all reach the same value.  Ending at their start angles,
        the leader is the row whose angles, rounded to 12 places, are smallest, from a later block.
        Ending 1e-14 apart below one point, each row a little lower than the last, their rounded
        angles tie and the first row leads.  A row's history names it."""
        n, restarts, finals_seen = 3, 7, []

        def level(psi, angles):  # every row at 0.25, its final angles written in place
            rows = np.arange(len(finals_seen), len(finals_seen) + len(angles))
            if finals == "one point":
                angles[:, 0] = 0.5 - 1e-14 * rows[:, None]
            finals_seen.extend(angles[:, 0].copy())
            return np.full(len(angles), 0.25), [[0.25, float(r)] for r in rows]

        monkeypatch.setattr(gm, "_ascend", level)
        monkeypatch.setattr(gm, "BLOCK_AMPLITUDES", 2 * 2**n)
        res = gm_optimize(ascent_case("random", n, "nonneg", 180), restarts=restarts, seed=180)
        win = min(range(restarts), key=lambda r: (np.round(finals_seen[r], 12).tolist(), r))
        assert win == 0 if finals == "one point" else win >= 2
        assert res.history == [0.25, float(win)] and res.converged and res.lambda_sq == 0.25
        np.testing.assert_array_equal(res.argmax.thetas, finals_seen[win])

    @staticmethod
    def loop_starts(rng, mode, restarts, n):
        """The start points as one `rng.uniform` call per restart and per kind:
        each restart's angles, then its phases."""
        highs = (math.pi / 2, 2 * math.pi) if mode == "general" else (math.pi / 2,)
        return np.array([[rng.uniform(0.0, hi, size=n) for hi in highs] for _ in range(restarts)])

    @pytest.mark.parametrize("mode", ["nonneg", "general"])
    @pytest.mark.parametrize("restarts", [1, 7, 16])
    def test_start_points_are_the_per_restart_draws(self, monkeypatch, mode, restarts):
        n, seed = 5, 150 + restarts
        state, default_rng = ascent_case("random", n, mode, seed), np.random.default_rng
        made, seen = [], []

        def recorded_rng(s):
            made.append(default_rng(s))
            return made[-1]

        def spy(psi, angles):  # records the start points and sweeps nothing
            seen.append(angles.copy())
            return np.zeros(len(angles)), [[0.0] for _ in angles]

        monkeypatch.setattr(np.random, "default_rng", recorded_rng)
        monkeypatch.setattr(gm, "_ascend", spy)
        gm_optimize(state, mode, restarts=restarts, seed=seed)
        rng = default_rng(seed)
        loop = self.loop_starts(rng, mode, restarts, n)
        drawn = np.concatenate(seen)
        assert drawn.shape == loop.shape and drawn.tobytes() == loop.tobytes()
        assert len(made) == 1 and made[0].random() == rng.random()  # the generator ends where the loop's does

    @pytest.mark.parametrize("mode", ["nonneg", "general"])
    @pytest.mark.parametrize("seed", [170, 171])
    def test_every_row_is_its_reference_restart(self, mode, seed):
        # rows stop after different sweep counts, so the rows left carry their
        # own qubit vectors; rows and reference restarts pair by start overlap
        n = 5
        state = ascent_case("random", n, mode, seed)
        starts = self.loop_starts(np.random.default_rng(seed), mode, 16, n)
        best, histories = gm._ascend(state.amplitudes.real if mode == "nonneg" else state.amplitudes, starts)
        assert len({len(h) for h in histories}) > 1
        got = sorted(zip(best.tolist(), histories), key=lambda row: row[1][0])
        want = sorted(((r[0], r[3]) for r in reference_gm(state, mode, restarts=16, seed=seed)), key=lambda r: r[1][0])
        for (value, history), (ref_value, ref_history) in zip(got, want, strict=True):
            assert value == pytest.approx(ref_value, abs=1e-12)
            assert len(history) == len(ref_history)
            np.testing.assert_allclose(history, ref_history, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(160, 164))
    def test_winner_stops_on_a_sweep_gain_below_1e_9(self, seed):
        # a literal bound, since a mutant of OBJECTIVE_TOL would move the constant
        # with it; a looser stopping rule leaves gains near 1e-5 here, which the
        # G = N checks on channel states cannot see (their lambda^2 is exact either way)
        res = gm_optimize(ascent_case("random", 5, "general", seed), "general", restarts=16, seed=seed)
        assert len(res.history) < MAX_SWEEPS + 1 and res.history[-1] - res.history[-2] < 1e-9
