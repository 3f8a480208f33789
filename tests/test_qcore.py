import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import plus_state, random_qubit, random_state
from crio.qcore import (
    HADAMARD,
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PauliAxis,
    QuantumState,
    X_AXIS,
    Z_AXIS,
    apply_1q,
    apply_2q_cz,
    apply_controlled_op,
    MAX_QUBITS,
    checked_int,
    fidelity_up_to_phase,
    measure,
    measurement_probabilities,
    outcome_bit,
    pauli_axis_matrix,
    product_state,
    purity,
    random_axis,
    reduced_density,
    rotation,
    tensor,
)

E0, E1 = np.eye(2)  # the basis kets |0> and |1>


class TestPauliAxis:
    def test_aligned_axes(self):
        np.testing.assert_allclose(pauli_axis_matrix(Z_AXIS), np.diag([1, -1]), atol=1e-15)
        np.testing.assert_allclose(pauli_axis_matrix(X_AXIS), PAULI_X, atol=1e-15)

    def test_tilted_axis_squares_to_identity(self):
        axis = PauliAxis(1 / math.sqrt(2), 0.0, 1 / math.sqrt(2))
        m = pauli_axis_matrix(axis)
        np.testing.assert_allclose(m, (PAULI_X + PAULI_Z) / math.sqrt(2), atol=1e-15)
        # direct 2x2 multiplication oracle
        sq = np.array([[sum(m[i, r] * m[r, j] for r in range(2)) for j in range(2)] for i in range(2)])
        np.testing.assert_allclose(sq, IDENTITY_2, atol=1e-12)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError):
            PauliAxis(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_axis_rejected(self, bad):
        with pytest.raises(ValueError, match="unit norm"):
            PauliAxis(bad, 0.0, 0.0)

    def test_unit_keeps_the_bits_of_ordinary_vectors(self):
        """Where the squared norm is a normal float, unit divides by its square root, as it always did."""
        rng = np.random.default_rng(12)
        vectors = (rng.normal(size=(300, 3)) * 10.0 ** rng.integers(-100, 100, size=(300, 1))).tolist()
        for x, y, z in vectors + [[1, 1, 0], [3.0, -1.0, 2.0], [1e-16, 0.0, 0.0]]:
            n = math.sqrt(x * x + y * y + z * z)
            assert PauliAxis.unit(x, y, z) == PauliAxis(x / n, y / n, z / n)

    @pytest.mark.parametrize("vector, direction", [
        ((1e300, 1e300, 0.0), (1, 1, 0)),
        ((-1e308, 1e308, 1e308), (-1, 1, 1)),
        ((1e-300, 0.0, 0.0), (1, 0, 0)),
        ((1e-160, -1e-160, 0.0), (1, -1, 0)),
        ((5e-324, 0.0, 0.0), (1, 0, 0)),
    ])
    def test_unit_of_a_vector_whose_squares_leave_the_float_range(self, vector, direction):
        """Squares that overflow, or underflow below the normal range, are taken after dividing
        by the largest component, which gives the bits of the rescaled direction."""
        assert PauliAxis.unit(*vector) == PauliAxis.unit(*direction)

    def test_unit_refuses_only_the_zero_vector(self):
        with pytest.raises(ValueError, match="cannot normalize a zero axis vector"):
            PauliAxis.unit(0.0, -0.0, 0)
        assert PauliAxis.unit(0.0, 0.0, -5e-324) == PauliAxis(0.0, 0.0, -1.0)

    def test_involution_and_hermiticity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            m = pauli_axis_matrix(random_axis(rng))
            assert np.max(np.abs(m @ m - IDENTITY_2)) <= 1e-12
            assert np.max(np.abs(m - m.conj().T)) <= 1e-12
            assert abs(np.trace(m)) <= 1e-12


SIGNED_UNIT_AXES = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


class TestScalarGates:
    """pauli_axis_matrix and rotation are built from Python scalars; the reference is the sum of
    scaled 2x2 arrays they replaced.  Bit for bit on axes with no zero component; where a component
    is zero only the sign of a zero may differ, which np.array_equal ignores."""

    @staticmethod
    def reference_sigma(axis):
        return axis.x * PAULI_X + axis.y * PAULI_Y + axis.z * PAULI_Z

    @classmethod
    def reference_rotation(cls, axis, alpha):
        return math.cos(alpha) * IDENTITY_2 + 1j * math.sin(alpha) * cls.reference_sigma(axis)

    def test_bit_equal_on_random_axes_and_angles(self):
        rng = np.random.default_rng(33)
        for i in range(2000):
            axis = random_axis(rng)
            if i % 2:  # Python floats as well as random_axis's numpy floats
                axis = PauliAxis(float(axis.x), float(axis.y), float(axis.z))
            alpha = float(rng.uniform(-4 * math.pi, 4 * math.pi))
            assert 0 not in (axis.x, axis.y, axis.z)
            for got, want in ((pauli_axis_matrix(axis), self.reference_sigma(axis)),
                              (rotation(axis, alpha), self.reference_rotation(axis, alpha))):
                assert got.dtype == want.dtype and got.shape == want.shape == (2, 2)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (axis, alpha)

    @pytest.mark.parametrize("xyz", SIGNED_UNIT_AXES, ids=str)
    @pytest.mark.parametrize("as_float", [False, True], ids=["int", "float"])
    def test_equal_on_signed_unit_axes(self, xyz, as_float):
        axis = PauliAxis(*map(float, xyz)) if as_float else PauliAxis(*xyz)
        assert np.array_equal(pauli_axis_matrix(axis), self.reference_sigma(axis))
        for alpha in (0, 3, 0.0, 0.7, -math.pi / 2, math.pi):
            assert np.array_equal(rotation(axis, alpha), self.reference_rotation(axis, alpha))


class TestRotation:
    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(rotation(X_AXIS, 0.0), IDENTITY_2, atol=1e-15)

    def test_quarter_turn_is_i_sigma(self):
        rng = np.random.default_rng(12)
        axis = random_axis(rng)
        np.testing.assert_allclose(rotation(axis, math.pi / 2), 1j * pauli_axis_matrix(axis), atol=1e-12)

    def test_matches_matrix_exponential_oracle(self):
        # eigendecomposition oracle: exp(i a sigma) = V exp(i a L) V^dag
        rng = np.random.default_rng(13)
        for _ in range(20):
            axis = random_axis(rng)
            alpha = rng.uniform(-2 * math.pi, 2 * math.pi)
            vals, vecs = np.linalg.eigh(pauli_axis_matrix(axis))
            oracle = vecs @ np.diag(np.exp(1j * alpha * vals)) @ vecs.conj().T
            np.testing.assert_allclose(rotation(axis, alpha), oracle, atol=1e-12)
        np.testing.assert_allclose(
            rotation(Z_AXIS, math.pi / 4),
            np.diag([np.exp(1j * math.pi / 4), np.exp(-1j * math.pi / 4)]),
            atol=1e-12,
        )

    def test_composition(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            axis = random_axis(rng)
            a, b = rng.uniform(0, 2 * math.pi, 2)
            np.testing.assert_allclose(
                rotation(axis, a) @ rotation(axis, b), rotation(axis, a + b), atol=1e-10
            )

    def test_unitary(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            u = rotation(random_axis(rng), rng.uniform(0, 2 * math.pi))
            assert np.max(np.abs(u @ u.conj().T - IDENTITY_2)) <= 1e-12


class TestGates:
    def test_cz_flips_sign_of_11(self):
        state = product_state(("p", "q"), [E1, E1])
        out = apply_2q_cz(state, "p", "q")
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, -1], atol=1e-15)

    def test_controlled_op_control_off(self):
        rng = np.random.default_rng(16)
        psi = random_qubit(rng)
        state = product_state(("c", "T"), [np.array([1, 0]), psi])
        out = apply_controlled_op(state, "c", "T", pauli_axis_matrix(random_axis(rng)))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_controlled_op_against_kron_oracle(self):
        rng = np.random.default_rng(17)
        axis = random_axis(rng)
        sigma = pauli_axis_matrix(axis)
        psi = random_qubit(rng)
        plus = np.array([1, 1]) / math.sqrt(2)
        state = product_state(("c", "T"), [plus, psi])
        out = apply_controlled_op(state, "c", "T", sigma)
        # 4x4 matrix-vector oracle
        u = np.kron(np.diag([1, 0]), IDENTITY_2) + np.kron(np.diag([0, 1]), sigma)
        np.testing.assert_allclose(out.amplitudes, u @ state.amplitudes, atol=1e-12)
        expected = np.concatenate([psi, sigma @ psi]) / math.sqrt(2)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_controlled_op_with_far_control(self):
        # control after target in label order, plus a spectator in between
        rng = np.random.default_rng(18)
        axis = random_axis(rng)
        sigma = pauli_axis_matrix(axis)
        psi, spec = random_qubit(rng), random_qubit(rng)
        state = product_state(("T", "s", "c"), [psi, spec, np.array([0, 1])])
        out = apply_controlled_op(state, "c", "T", sigma)
        expected = product_state(("T", "s", "c"), [sigma @ psi, spec, np.array([0, 1])])
        assert fidelity_up_to_phase(out, expected) >= 1 - 1e-12
        np.testing.assert_allclose(out.amplitudes, expected.amplitudes, atol=1e-12)

    def test_unknown_label_and_non_unitary_rejected(self):
        state = plus_state(("a",))
        with pytest.raises(KeyError):
            apply_1q(state, HADAMARD, "zz")
        with pytest.raises(ValueError):
            apply_1q(state, np.array([[1, 0], [0, 2]]), "a")

    def test_nan_matrix_rejected(self):
        state = plus_state(("c", "t"))
        nan = np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match="not unitary"):
            apply_1q(state, nan, "t")
        with pytest.raises(ValueError, match="not unitary"):
            apply_controlled_op(state, "c", "t", nan)

    def test_norm_preserved_over_random_circuit(self):
        rng = np.random.default_rng(19)
        state = random_state(rng, ("a", "b", "c", "d"))
        for _ in range(40):
            kind = rng.integers(3)
            if kind == 0:
                state = apply_1q(state, rotation(random_axis(rng), rng.uniform(0, 6.3)), str(rng.choice(list("abcd"))))
            elif kind == 1:
                q1, q2 = rng.choice(list("abcd"), size=2, replace=False)
                state = apply_2q_cz(state, str(q1), str(q2))
            else:
                q1, q2 = rng.choice(list("abcd"), size=2, replace=False)
                state = apply_controlled_op(state, str(q1), str(q2), pauli_axis_matrix(random_axis(rng)))
            assert abs(np.linalg.norm(state.amplitudes) - 1) <= 1e-12


class TestMeasure:
    def test_eigenstate_in_x(self):
        state = plus_state(("a",))
        record, post = measure(state, "a", "X", forced_outcome=0)
        assert record.probability == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(post.amplitudes, state.amplitudes, atol=1e-12)

    def test_unbiased_superposition(self):
        state = product_state(("a",), [E0])
        p0, p1 = measurement_probabilities(state, "a", "X")
        assert p0 == pytest.approx(0.5, abs=1e-12)
        assert p1 == pytest.approx(0.5, abs=1e-12)

    def test_channel_qubit_brute_force_oracle(self):
        from crio.graphstate import CrioTopology, crio_channel_state

        state = crio_channel_state(CrioTopology(1))
        # brute-force projector oracle on the 8-amplitude vector
        plus = np.array([1, 1]) / math.sqrt(2)
        proj = np.kron(np.outer(plus, plus), np.eye(4))
        p_plus_oracle = float(np.linalg.norm(proj @ state.amplitudes) ** 2)
        p0, p1 = measurement_probabilities(state, "a1", "X")
        assert p0 == pytest.approx(p_plus_oracle, abs=1e-12)
        assert p0 == pytest.approx(0.5, abs=1e-12)
        assert p1 == pytest.approx(0.5, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            state = random_state(rng, ("a", "b", "c"))
            for basis in ("Z", "X"):
                p0, p1 = measurement_probabilities(state, "b", basis)
                assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_record_probability_is_pre_renormalization_weight(self):
        rng = np.random.default_rng(21)
        state = random_state(rng, ("a", "b"))
        record, _ = measure(state, "a", "Z", forced_outcome=1)
        t = state.amplitudes.reshape(2, 2)
        assert record.probability == pytest.approx(float(np.linalg.norm(t[1]) ** 2), abs=1e-12)

    def test_forced_zero_probability_raises(self):
        state = product_state(("a",), [E0])
        with pytest.raises(ValueError):
            measure(state, "a", "Z", forced_outcome=1)

    def test_seeded_rng_reproduces(self):
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        state = plus_state(("a", "b"))
        rec_a, _ = measure(state, "a", "Z", rng=rng_a)
        rec_b, _ = measure(state, "a", "Z", rng=rng_b)
        assert rec_a.outcome == rec_b.outcome

    def test_unforced_without_rng_raises(self):
        with pytest.raises(ValueError, match="rng"):
            measure(plus_state(("a",)), "a", "Z")

    def test_remove_drops_qubit(self):
        rng = np.random.default_rng(22)
        psi = random_qubit(rng)
        state = product_state(("a", "b"), [np.array([1, 0]), psi])
        _, post = measure(state, "a", "Z", forced_outcome=0, remove=True)
        assert post.labels == ("b",)
        np.testing.assert_allclose(post.amplitudes, psi, atol=1e-12)


class TestFidelityAndDensity:
    def test_global_phase(self):
        rng = np.random.default_rng(23)
        s = random_state(rng, ("a", "b"))
        s2 = QuantumState(s.labels, np.exp(1j * 0.7) * s.amplitudes)
        assert fidelity_up_to_phase(s, s2) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert fidelity_up_to_phase(product_state(("a",), [E0]), product_state(("a",), [E1])) == pytest.approx(0.0, abs=1e-15)

    def test_plus_zero(self):
        assert fidelity_up_to_phase(plus_state(("a",)), product_state(("a",), [E0])) == pytest.approx(
            1 / math.sqrt(2), abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_up_to_phase(plus_state(("a",)), plus_state(("a", "b")))

    def test_label_reordering(self):
        rng = np.random.default_rng(24)
        s = random_state(rng, ("a", "b", "c"))
        assert fidelity_up_to_phase(s, s.reordered(("c", "a", "b"))) == pytest.approx(1.0, abs=1e-12)

    def test_reduced_density_of_product_is_pure(self):
        rng = np.random.default_rng(25)
        psi = random_qubit(rng)
        state = product_state(("a", "b"), [psi, random_qubit(rng)])
        rho = reduced_density(state, ("a",))
        np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), atol=1e-12)
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_reduced_density_of_entangled_is_mixed(self):
        bell = QuantumState(("a", "b"), np.array([1, 0, 0, 1]) / math.sqrt(2))
        assert purity(reduced_density(bell, ("a",))) == pytest.approx(0.5, abs=1e-12)

    def test_reduced_density_refuses_a_repeated_label(self):
        bell = QuantumState(("a", "b"), np.array([1, 0, 0, 1]) / math.sqrt(2))
        with pytest.raises(ValueError, match="^duplicate qubit labels$"):
            reduced_density(bell, ["a", "a"])


class TestStateConstruction:
    def test_big_endian_indexing(self):
        state = product_state(("a", "b"), [E1, E0])
        assert state.amplitude("10") == pytest.approx(1.0)
        assert np.argmax(np.abs(state.amplitudes)) == 2  # first label is the most significant bit
        for bits in ([1, 0], [np.int64(1), np.uint8(0)], ["1", "0"]):
            assert state.amplitude(bits) == pytest.approx(1.0)

    @pytest.mark.parametrize("bits", [[1.7, 0], [True, False], [1.0, 0.0], [2, 0], ["10"], "1x", [1]], ids=repr)
    def test_amplitude_refuses_bits_that_are_not_0_or_1(self, bits):
        """Each element reads as an outcome does: 1.7 is not read as 1, nor True as 1."""
        state = product_state(("a", "b"), [E1, E0])
        with pytest.raises(ValueError, match=f"^expected a bitstring of length 2, got {re.escape(repr(bits))}$"):
            state.amplitude(bits)

    def test_tensor_and_duplicate_labels(self):
        a = plus_state(("a",))
        b = product_state(("b",), [E1])
        ab = tensor(a, b)
        assert ab.labels == ("a", "b")
        with pytest.raises(ValueError):
            tensor(a, plus_state(("a",)))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            QuantumState(("a",), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("amps", [[math.nan, 0.0], [1.0, math.nan], [math.nan, math.inf], [math.inf, 0.0]])
    def test_non_finite_amplitudes_rejected(self, amps):
        with pytest.raises(ValueError, match="normalized"):
            QuantumState(("a",), amps)

    def test_real_amplitudes_without_copy(self):
        amps = np.array([1.0, 0.0])
        state = QuantumState(("a",), amps, copy=False)
        assert state.amplitudes.dtype == complex
        assert state.amplitude("0") == pytest.approx(1.0)


class _LargeAllocation(Exception):
    """Stands in for an allocation the register bound should have refused."""


@pytest.fixture
def refuse_large_allocations(monkeypatch):
    """Make np.zeros and np.kron raise instead of building more than 2**16 amplitudes."""
    zeros, kron = np.zeros, np.kron

    def small_zeros(shape, *args, **kwargs):
        if np.prod(shape) > 2 ** 16:
            raise _LargeAllocation(f"np.zeros of shape {shape}")
        return zeros(shape, *args, **kwargs)

    def small_kron(a, b):
        if np.size(a) * np.size(b) > 2 ** 16:
            raise _LargeAllocation(f"np.kron to {np.size(a) * np.size(b)} entries")
        return kron(a, b)

    monkeypatch.setattr(np, "zeros", small_zeros)
    monkeypatch.setattr(np, "kron", small_kron)


class TestRegisterBound:
    @pytest.mark.parametrize("build", [
        lambda labels: product_state(labels, [np.array([1, 0])] * len(labels)),
    ], ids=["product_state"])
    def test_builders_refused_before_allocating(self, build, refuse_large_allocations):
        labels = [f"q{i}" for i in range(MAX_QUBITS + 1)]
        with pytest.raises(ValueError) as err:
            build(labels)
        assert str(err.value) == f"a {MAX_QUBITS + 1}-qubit register exceeds the limit of {MAX_QUBITS} qubits"

    def test_plus_state_refused_above_bound(self):
        with pytest.raises(ValueError, match="limit"):
            product_state([f"q{i}" for i in range(MAX_QUBITS + 1)], [np.array([1, 1]) / math.sqrt(2)] * (MAX_QUBITS + 1))

    def test_tensor_refused_above_bound(self):
        half = (MAX_QUBITS + 1) // 2
        a = plus_state([f"a{i}" for i in range(half)])
        b = plus_state([f"b{i}" for i in range(MAX_QUBITS + 1 - half)])
        with pytest.raises(ValueError, match="limit"):
            tensor(a, b)


_SRC = Path(__file__).resolve().parents[1] / "src" / "crio"
# where is_int may be called outside qcore: a set of groups, and a JSON file's values, are checked whole
_IS_INT_CALLERS = {("graphstate.py", "CrioTopology.__post_init__"), ("protocol.py", "run_config_from_dict")}


def _is_int_callers(path: Path) -> set:
    """(file, enclosing Class.function) of every is_int call in a source file."""
    found = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            func = child.func if isinstance(child, ast.Call) else None
            if getattr(func, "id", None) == "is_int" or getattr(func, "attr", None) == "is_int":  # or qcore.is_int
                found.add((path.name, scope))
            walk(child, scope)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


class TestIntegerRule:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), np.int32(-3)])
    def test_integers_pass_as_int(self, value):
        got = checked_int(value, "n")
        assert type(got) is int and got == value

    @pytest.mark.parametrize("value", [True, False, np.True_, 3.0, 2.5, np.float64(3.0), "3", None, [3]],
                             ids=repr)
    def test_bool_or_non_integer_is_a_type_error_naming_the_argument(self, value):
        with pytest.raises(TypeError, match=f"^count must be an integer, got {re.escape(repr(value))}$"):
            checked_int(value, "count", low=0, high=9)

    @pytest.mark.parametrize("value, message", [(0, "n must be at least 1, got 0"),
                                                (np.int64(-4), "n must be at least 1, got -4"),
                                                (11, "n must be at most 10, got 11")])
    def test_out_of_range_is_a_value_error_naming_the_bound(self, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            checked_int(value, "n", low=1, high=10)

    def test_bounds_are_inclusive_and_optional(self):
        assert [checked_int(v, "n", low=1, high=10) for v in (1, 10)] == [1, 10]
        assert checked_int(-2 ** 70, "n") == -2 ** 70 and checked_int(2 ** 70, "n", low=0) == 2 ** 70

    @pytest.mark.parametrize("value, bit", [(0, 0), (1, 1), ("0", 0), ("1", 1), (np.int64(1), 1), (np.uint8(0), 0)])
    def test_outcome_bit_takes_integer_or_string_bits(self, value, bit):
        got = outcome_bit(value)
        assert type(got) is int and got == bit

    @pytest.mark.parametrize("value", [True, False, np.True_, 0.0, 1.0, 2, -1, "2", "01", b"1", None], ids=repr)
    def test_outcome_bit_refuses_anything_else_naming_it(self, value):
        with pytest.raises(ValueError, match=f"^outcome must be 0 or 1, got {re.escape(repr(value))}$"):
            outcome_bit(value)

    def test_the_rule_is_written_only_in_qcore(self):
        """No module but qcore checks an integer by hand: is_int is called elsewhere only where a whole
        collection is checked, and no other module spells out the integer message."""
        modules = sorted(_SRC.glob("*.py"))
        assert {path.name for path in modules} >= {"qcore.py", "graphstate.py", "protocol.py", "gm.py", "stator.py"}
        callers = set().union(*(_is_int_callers(path) for path in modules if path.name != "qcore.py"))
        assert callers <= _IS_INT_CALLERS, sorted(callers - _IS_INT_CALLERS)
        spelled = [path.name for path in modules
                   if path.name != "qcore.py" and "must be an integer" in path.read_text(encoding="utf-8")]
        assert spelled == []
