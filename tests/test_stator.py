import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_qubit
from crio.graphstate import amplitude_oracle, qubit_labels
from crio.protocol import run_checkpoints, step1_stator, symbolic_checkpoints
from crio.qcore import (
    HADAMARD,
    IDENTITY_2,
    PAULI_X,
    PAULI_Z,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    pauli_axis_matrix,
    product_state,
    random_axis,
    rotation,
)
from crio.stator import Stator, diagonal_stator, stator_from_state, word_table
from crio.qcore import QuantumState

PROBE_VECTORS = [
    np.array([1, 0], dtype=complex),
    np.array([1, 1], dtype=complex) / math.sqrt(2),
    np.array([1, 1j], dtype=complex) / math.sqrt(2),
]


def word_matrix(word, axes):
    """Kronecker product of sigma_n^w over the targets; the reference for the word table."""
    m = np.array([[1.0 + 0j]])
    for w, axis in zip(word, axes):
        m = np.kron(m, pauli_axis_matrix(axis) if w else IDENTITY_2)
    return m


def reference_matrix(s):
    """Term-by-term matrix of a stator, each word rebuilt with np.kron."""
    d_t = s.target_dim
    m = np.zeros((s.control_dim * d_t, d_t), dtype=complex)
    for (bits, word), coeff in s.terms.items():
        r0 = int(bits, 2) * d_t
        m[r0 : r0 + d_t, :] += coeff * word_matrix(word, s.target_axes)
    return m


def pair_stator(axis, label="b"):
    return Stator.from_terms((label,), (axis,), [("0", (0,), 1.0), ("1", (1,), 1.0)])


def probe_runs(n_systems, axes, betas, outcomes, tag):
    """Joint states at one checkpoint for the three standard probe products."""
    t_labels = [f"O{j}" for j in range(n_systems + 2, 2 * n_systems + 2)]
    joints, probes = [], []
    for vec in PROBE_VECTORS:
        vecs = [vec] * n_systems
        cps = dict(run_checkpoints(n_systems, axes, betas, vecs, outcomes))
        joints.append(cps[tag])
        probes.append(product_state(t_labels, vecs))
    return joints, probes, tuple(t_labels)


class TestFromState:
    def test_single_pair_form(self):
        rng = np.random.default_rng(31)
        axis = random_axis(rng)
        sigma = pauli_axis_matrix(axis)
        psi = random_qubit(rng)
        joint_amps = np.concatenate([psi, sigma @ psi]) / math.sqrt(2)
        joint = QuantumState(("b", "T"), joint_amps)
        s = stator_from_state(joint, ("b",), ("T",), (axis,), product_state(("T",), [psi]))
        expected = pair_stator(axis).scaled(1 / math.sqrt(2))
        assert s.equal_terms(expected, tol=1e-10)

    def test_product_state_single_term(self):
        rng = np.random.default_rng(32)
        psi = random_qubit(rng)
        joint = product_state(("b", "T"), [np.array([1, 0]), psi])
        s = stator_from_state(joint, ("b",), ("T",), (X_AXIS,), product_state(("T",), [psi]))
        assert set(s.terms) == {("0", (0,))}
        assert s.terms[("0", (0,))] == pytest.approx(1.0)

    def test_channel_step1_has_full_term_set(self):
        rng = np.random.default_rng(33)
        axes = [random_axis(rng), random_axis(rng)]
        joints, probes, t_labels = probe_runs(2, axes, [0.3, 0.4], [0, 0, 0, 0, 0], "step1")
        s = stator_from_state(joints, qubit_labels(2), t_labels, axes, probes)
        assert len(s.terms) == 32
        assert s.equal_terms(step1_stator(2, axes), tol=1e-10)
        for (bits, word), coeff in s.terms.items():
            assert word == (int(bits[3]), int(bits[4]))
            assert coeff == pytest.approx(amplitude_oracle(2, bits), abs=1e-10)

    def test_inconsistent_joints_rejected(self):
        rng = np.random.default_rng(34)
        axis = random_axis(rng)
        sigma = pauli_axis_matrix(axis)
        joints, probes = [], []
        for vec, flip in ((PROBE_VECTORS[0], False), (PROBE_VECTORS[1], True)):
            op = sigma if flip else IDENTITY_2  # different stator per probe: no single fit
            amps = np.concatenate([vec, op @ vec]) / math.sqrt(2)
            joints.append(QuantumState(("b", "T"), amps))
            probes.append(product_state(("T",), [vec]))
        with pytest.raises(ValueError, match="not of stator form"):
            stator_from_state(joints, ("b",), ("T",), (axis,), probes)

    def test_degenerate_probe_rejected(self):
        # z-axis sigma has |0> as eigenvector, so the single |0> probe cannot identify I vs sigma
        psi = np.array([1, 0], dtype=complex)
        joint = product_state(("b", "T"), [np.array([1, 0]), psi])
        with pytest.raises(ValueError, match="rank-deficient"):
            stator_from_state(joint, ("b",), ("T",), (Z_AXIS,), product_state(("T",), [psi]))

    def test_z_axis_resolved_by_extra_probes(self):
        rng = np.random.default_rng(35)
        betas = [0.9]
        joints, probes, t_labels = probe_runs(1, [Z_AXIS], betas, [0, 0, 0], "step1")
        s = stator_from_state(joints, qubit_labels(1), t_labels, (Z_AXIS,), probes)
        assert s.equal_terms(step1_stator(1, [Z_AXIS]), tol=1e-10)


class TestTransforms:
    def test_sigma_x_flips_term_bits(self):
        rng = np.random.default_rng(36)
        axis = random_axis(rng)
        s = Stator.from_terms(("b", "c"), (axis,), [("10", (0,), 1.0), ("01", (1,), 1.0)])
        out = s.apply_control_unitary("b", PAULI_X)
        assert set(out.terms) == {("00", (0,)), ("11", (1,))}

    def test_x_projection_then_sigma_z_restores_pair(self):
        rng = np.random.default_rng(37)
        axis = random_axis(rng)
        s = Stator.from_terms(("b", "c"), (axis,), [("00", (0,), 1.0), ("11", (1,), 1.0)])
        minus_branch = s.project_control("c", "X", 1)
        assert minus_branch.control_labels == ("b",)
        corrected = minus_branch.apply_control_unitary("b", PAULI_Z)
        assert corrected.equal_terms(pair_stator(axis), up_to_scale=True)

    @pytest.mark.parametrize("basis, outcome, message", [("Y", 0, "basis must be"), ("X", 2, "outcome must be")])
    def test_bad_basis_or_outcome_refused(self, basis, outcome, message):
        s = Stator.from_terms(("b",), (X_AXIS,), [("0", (0,), 1.0)])
        with pytest.raises(ValueError, match=message):
            s.project_control("b", basis, outcome)

    def test_projection_annihilation(self):
        s = Stator.from_terms(("b",), (X_AXIS,), [("0", (0,), 1.0)])
        with pytest.raises(ValueError, match="annihilates"):
            s.project_control("b", "Z", 1)

    def test_hadamard_merges_plus_minus_components(self):
        # H sends a |+> control component to |0>: a two-term stator on the
        # +/- axis becomes a single computational term
        axis = X_AXIS
        s = Stator.from_terms(("c",), (axis,), [("0", (1,), 1.0), ("1", (1,), 1.0)])  # sqrt2 |+> (x) sigma
        out = s.apply_control_unitary("c", HADAMARD)
        assert set(out.terms) == {("0", (1,))}
        assert out.terms[("0", (1,))] == pytest.approx(math.sqrt(2))

    @pytest.mark.parametrize("n", [2, 3])
    def test_hadamard_reduction_identity(self, n):
        """H on qubits a3..a_{N+1} of the step-1 stator collapses it to the
        two-family form: |+> sum |q,q> sigma^q + |-> sum |q,q-bar> sigma^{q-bar}."""
        rng = np.random.default_rng(40 + n)
        axes = [random_axis(rng) for _ in range(n)]
        s = step1_stator(n, axes)
        for k in range(3, n + 2):
            s = s.apply_control_unitary(f"a{k}", HADAMARD)

        inv_sqrt2 = 1 / math.sqrt(2)
        terms = {}
        for q in product((0, 1), repeat=n):
            qbar = tuple(1 - b for b in q)
            aligned = "".join(map(str, q)) + "".join(map(str, q))
            anti = "".join(map(str, q)) + "".join(map(str, qbar))
            # |+> branch -> (|0>+|1>)/sqrt2, |-> branch -> (|0>-|1>)/sqrt2
            for first, sign_anti in (("0", +1), ("1", -1)):
                terms[(first + aligned, q)] = terms.get((first + aligned, q), 0) + inv_sqrt2
                terms[(first + anti, qbar)] = terms.get((first + anti, qbar), 0) + sign_anti * inv_sqrt2
        expected = Stator.from_terms(qubit_labels(n), axes, [(b, w, c) for (b, w), c in terms.items()])
        assert s.equal_terms(expected, up_to_scale=True, tol=1e-10)


class TestEigenoperator:
    def test_single_pair_any_angle(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            s = pair_stator(random_axis(rng))
            assert s.eigenoperator_residual([rng.uniform(0, 2 * math.pi)]) <= 1e-12

    def test_zero_angles_always_zero(self):
        rng = np.random.default_rng(45)
        for n in (1, 2, 3):
            s = diagonal_stator([f"a{k}" for k in range(2, n + 2)], [random_axis(rng) for _ in range(n)])
            assert s.eigenoperator_residual([0.0] * n) <= 1e-15

    def test_two_pair_stator_matches_dense_oracle(self):
        rng = np.random.default_rng(46)
        axes = (random_axis(rng), random_axis(rng))
        s = diagonal_stator(("b", "c"), axes)
        m = s.as_matrix()
        assert m.shape == (16, 4)
        for _ in range(20):
            a, b = rng.uniform(0, 2 * math.pi, 2)
            # dense matrix product oracle, built independently of the method
            left = np.kron(np.kron(rotation(X_AXIS, a), rotation(X_AXIS, b)), np.eye(4)) @ m
            right = m @ np.kron(rotation(axes[0], a), rotation(axes[1], b))
            oracle = float(np.max(np.abs(left - right)))
            assert oracle <= 1e-12
            assert s.eigenoperator_residual([a, b]) == pytest.approx(oracle, abs=1e-14)

    def test_arity_mismatch(self):
        s = pair_stator(X_AXIS)
        with pytest.raises(ValueError):
            s.eigenoperator_residual([0.1, 0.2])

    def test_four_pair_stator(self):
        rng = np.random.default_rng(49)
        s = diagonal_stator([f"a{k}" for k in range(2, 6)], [random_axis(rng) for _ in range(4)])
        for _ in range(10):
            assert s.eigenoperator_residual(rng.uniform(0, 2 * math.pi, 4)) <= 1e-12


class TestMatrixForm:
    def test_protocol_stators_have_equal_column_norms(self):
        # isometry up to scale: every target basis column carries equal weight
        rng = np.random.default_rng(53)
        for s in (
            step1_stator(2, [random_axis(rng), random_axis(rng)]),
            diagonal_stator(("b", "c"), (random_axis(rng), random_axis(rng))),
            pair_stator(random_axis(rng)),
        ):
            norms = np.linalg.norm(s.as_matrix(), axis=0)
            np.testing.assert_allclose(norms, norms[0], atol=1e-12)


class TestNormalize:
    def test_step1_channel_stator_halves(self):
        rng = np.random.default_rng(47)
        axis = random_axis(rng)
        s = step1_stator(1, [axis])
        w = s.normalize()
        # trace convention: Tr(W^dag W) = 1, i.e. W = S/sqrt(2) here
        m = w.as_matrix()
        assert np.trace(m.conj().T @ m).real == pytest.approx(1.0, abs=1e-12)
        assert w.equal_terms(s.scaled(1 / math.sqrt(2)), tol=1e-12)

    def test_idempotent_and_scale_invariant(self):
        rng = np.random.default_rng(48)
        s = pair_stator(random_axis(rng))
        w = s.normalize()
        assert w.normalize().equal_terms(w, tol=1e-12)
        assert s.scaled(2.0).normalize().equal_terms(w, tol=1e-12)

    def test_zero_stator_rejected(self):
        with pytest.raises(ValueError):
            Stator.from_terms(("b",), (X_AXIS,), [("0", (0,), 0.0)])


class TestDualPath:
    """Transforming the symbolic stator and re-extracting one from the
    simulated statevector must give identical term sets at every step."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("case", [0, 1])
    def test_agreement_at_every_step(self, n, case):
        rng = np.random.default_rng(50 + 10 * n + case)
        axes = [random_axis(rng) for _ in range(n)]
        betas = list(rng.uniform(0, 2 * math.pi, n))
        outcomes = list(rng.integers(0, 2, size=1 + 2 * n))
        sym = dict(symbolic_checkpoints(n, axes, betas, outcomes))
        for tag in ("step1", "step2", "step3", "step4", "step5"):
            joints, probes, t_labels = probe_runs(n, axes, betas, outcomes, tag)
            extracted = stator_from_state(joints, sym[tag].control_labels, t_labels, axes, probes)
            assert extracted.equal_terms(sym[tag], up_to_scale=True, tol=1e-10), tag

    def test_final_stator_is_diagonal(self):
        rng = np.random.default_rng(52)
        for n in (1, 2, 3):
            axes = [random_axis(rng) for _ in range(n)]
            sym = dict(symbolic_checkpoints(n, axes, [0.0] * n, [0] * (1 + n)))
            diag = diagonal_stator([f"a{k}" for k in range(2, n + 2)], axes)
            assert sym["step4"].equal_terms(diag, up_to_scale=True, tol=1e-10)


def _pretty(s: Stator) -> str:
    """The terms of `s` in ket and Pauli-word notation, in `terms` order."""
    parts = []
    for (bits, word), coeff in s.terms.items():
        ops = "·".join("σ_n" if w else "I" for w in word) or "1"
        parts.append(f"({coeff.real:+.6g}{coeff.imag:+.6g}j)|{bits}⟩⊗{ops}")
    return " + ".join(parts)


def _json_dict(s: Stator) -> dict:
    """The controls, target axes and terms of `s` as JSON values, in `terms` order."""
    return {
        "controls": list(s.control_labels),
        "target_axes": [[ax.x, ax.y, ax.z] for ax in s.target_axes],
        "terms": [{"bits": b, "word": list(w), "re": c.real, "im": c.imag} for (b, w), c in s.terms.items()],
    }


class TestPresentation:
    def test_pretty_uses_ket_and_word_notation(self):
        s = Stator.from_terms(("b", "c"), (X_AXIS,), [("01", (1,), 1.0)])
        text = _pretty(s)
        assert "|01⟩" in text and "σ_n" in text

    def test_json_terms_round_trip_fields(self):
        s = pair_stator(X_AXIS)
        data = _json_dict(s)
        assert data["controls"] == ["b"]
        assert {tuple(t["word"]) for t in data["terms"]} == {(0,), (1,)}

    def test_word_table_without_targets(self):
        np.testing.assert_allclose(word_table(()), [[[1.0]]])


class TestConstruction:
    def test_duplicate_terms_add_up(self):
        s = Stator.from_terms(("b",), (X_AXIS,), [("1", (0,), 0.25), ("0", (1,), 1.0), ("1", (0,), 0.5)])
        assert list(s.terms.items()) == [(("0", (1,)), 1.0), (("1", (0,)), 0.75)]

    def test_terms_cancelling_to_zero_are_dropped(self):
        s = Stator.from_terms(("b",), (X_AXIS,), [("0", (0,), 1.0), ("1", (1,), 1.0), ("1", (1,), -1.0)])
        assert set(s.terms) == {("0", (0,))}
        assert s.coefficient("1", (1,)) == 0j

    @pytest.mark.parametrize(
        "term, message",
        [(("2", (0,), 1.0), "bitstring"), (("00", (0,), 1.0), "bitstring"),
         (("0", (2,), 1.0), "word"), (("0", (0, 1), 1.0), "word"), (("0", (0,), math.inf), "non-finite")],
    )
    def test_malformed_term_rejected(self, term, message):
        with pytest.raises(ValueError, match=message):
            Stator.from_terms(("b",), (X_AXIS,), [term])

    @pytest.mark.parametrize("coeffs", [np.ones(4), np.ones((2, 2, 2)), [[1.0, math.nan], [0.0, 0.0]]])
    def test_malformed_array_rejected(self, coeffs):
        with pytest.raises(ValueError):
            Stator(("b",), (X_AXIS,), coeffs)

    @pytest.mark.parametrize("build", [lambda: Stator(["a", "a"], [], np.ones((2, 2))),
                                       lambda: Stator(["a", 1, "1"], [], np.ones((2, 2, 2))),
                                       lambda: diagonal_stator(["a", "a"], [X_AXIS, Z_AXIS])],
                             ids=["array", "labels-read-as-strings", "diagonal"])
    def test_duplicate_control_labels_are_refused(self, build):
        """As QuantumState refuses duplicate qubit labels: otherwise project_control("a", ...) would act
        on the first "a" only."""
        with pytest.raises(ValueError, match="^duplicate control labels$"):
            build()

    def test_terms_and_array_are_read_only(self):
        s = pair_stator(X_AXIS)
        with pytest.raises(TypeError):
            s.terms[("0", (1,))] = 1.0
        with pytest.raises(ValueError):
            s.coeffs[0, 0] = 2.0


@st.composite
def stators(draw):
    """Random stators on 1-3 controls and 1-2 targets, some entries exactly zero."""
    n_c, n_t = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (2,) * (n_c + n_t)
    coeffs = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (rng.random(shape) < 0.7)
    coeffs.flat[rng.integers(coeffs.size)] = 1.0
    labels = [f"c{k}" for k in range(n_c)]
    return Stator(labels, [random_axis(rng) for _ in range(n_t)], coeffs), rng


def _on_control(s, pos, op):
    """op acting on control qubit `pos` of a stator matrix's rows."""
    return np.kron(np.kron(np.eye(2**pos), op), np.eye(2 ** (s.n_controls - pos - 1) * s.target_dim))


class TestTransformsMatchMatrix:
    """Every transform equals the same operation on as_matrix(), to 1e-12."""

    @settings(max_examples=40, deadline=None)
    @given(stators(), st.data())
    def test_transforms_act_on_the_matrix(self, drawn, data):
        s, rng = drawn
        m = s.as_matrix()
        np.testing.assert_allclose(m, reference_matrix(s), rtol=0, atol=1e-12)

        pos = data.draw(st.integers(0, s.n_controls - 1))
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        out = s.apply_control_unitary(s.control_labels[pos], u)
        np.testing.assert_allclose(out.as_matrix(), _on_control(s, pos, u) @ m, rtol=0, atol=1e-12)

        basis, outcome = data.draw(st.sampled_from(["Z", "X"])), data.draw(st.integers(0, 1))
        bra = np.eye(2)[outcome] if basis == "Z" else np.array([1, (-1) ** outcome]) / math.sqrt(2)
        projected = _on_control(s, pos, bra[None, :]) @ m
        if np.abs(projected).max() > 1e-9:
            out = s.project_control(s.control_labels[pos], basis, outcome)
            assert out.control_labels == s.control_labels[:pos] + s.control_labels[pos + 1 :]
            np.testing.assert_allclose(out.as_matrix(), projected, rtol=0, atol=1e-12)
        else:
            with pytest.raises(ValueError, match="annihilates"):
                s.project_control(s.control_labels[pos], basis, outcome)

        factor = complex(rng.normal(), rng.normal())
        np.testing.assert_allclose(s.scaled(factor).as_matrix(), factor * m, rtol=0, atol=1e-12)
        expected = m / math.sqrt(np.trace(m.conj().T @ m).real)
        np.testing.assert_allclose(s.normalize().as_matrix(), expected, rtol=0, atol=1e-12)


class TestGoldenPresentation:
    """_pretty and _json_dict of the terms, as the dict-of-terms implementation printed them."""

    CASES = {
        "pair": (
            lambda: pair_stator(X_AXIS),
            "(+1+0j)|0⟩⊗I + (+1+0j)|1⟩⊗σ_n",
            ["b"], [[1.0, 0.0, 0.0]],
            [("0", [0], 1.0, 0.0), ("1", [1], 1.0, 0.0)],
        ),
        "step1": (
            lambda: step1_stator(1, [Z_AXIS]),
            "(+0.353553+0j)|000⟩⊗I + (+0.353553+0j)|001⟩⊗σ_n + (+0.353553+0j)|010⟩⊗I"
            " + (+0.353553+0j)|011⟩⊗σ_n + (+0.353553+0j)|100⟩⊗I + (-0.353553+0j)|101⟩⊗σ_n"
            " + (-0.353553+0j)|110⟩⊗I + (+0.353553+0j)|111⟩⊗σ_n",
            ["a1", "a2", "a3"], [[0.0, 0.0, 1.0]],
            [(format(x, "03b"), [x % 2], (-1) ** (x in (5, 6)) * 0.35355339059327373, 0.0)
             for x in range(8)],
        ),
        "step4": (
            lambda: dict(symbolic_checkpoints(2, [X_AXIS, Y_AXIS], [0.3, 1.1], [1, 0, 1, 1, 0]))["step4"],
            "(+0.176777+0j)|00⟩⊗I·I + (+0.176777+0j)|01⟩⊗I·σ_n + (+0.176777+0j)|10⟩⊗σ_n·I"
            " + (+0.176777+0j)|11⟩⊗σ_n·σ_n",
            ["a2", "a3"], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            [(b, [int(c) for c in b], 0.1767766952966368, 0.0) for b in ("00", "01", "10", "11")],
        ),
        # a rotation whose two contributions to a real part are both -0.0: the sum prints as +0
        "step5": (
            lambda: dict(symbolic_checkpoints(1, [X_AXIS], [2.0], [0, 0, 0]))["step5"],
            "(-0.14713+0j)|0⟩⊗I + (+0+0.321485j)|0⟩⊗σ_n + (+0+0.321485j)|1⟩⊗I + (-0.14713+0j)|1⟩⊗σ_n",
            ["a2"], [[1.0, 0.0, 0.0]],
            [("0", [0], -0.14713012504590706, 0.0), ("0", [1], 0.0, 0.32148518831195894),
             ("1", [0], 0.0, 0.32148518831195894), ("1", [1], -0.14713012504590706, 0.0)],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_pretty_and_json_match_recorded_output(self, case):
        build, pretty, controls, target_axes, terms = self.CASES[case]
        s = build()
        assert _pretty(s) == pretty
        data = _json_dict(s)
        assert list(data) == ["controls", "target_axes", "terms"]
        assert data["controls"] == controls and data["target_axes"] == target_axes
        assert [list(t) for t in data["terms"]] == [["bits", "word", "re", "im"]] * len(terms)
        assert [(t["bits"], t["word"]) for t in data["terms"]] == [(b, w) for b, w, _, _ in terms]
        for t, (_, _, re, im) in zip(data["terms"], terms):
            assert type(t["re"]) is float and type(t["im"]) is float
            assert abs(t["re"] - re) <= 1e-12 and abs(t["im"] - im) <= 1e-12
            signs = [math.copysign(1, v) for v in (t["re"], t["im"], re, im)]
            assert signs[:2] == signs[2:]
