import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_qubit
from crio import protocol
from crio.graphstate import CrioTopology, crio_channel_state
from crio.protocol import (
    BranchRecord,
    ClassicalMessage,
    LocalityError,
    Step,
    assert_local,
    build_parties,
    control_denial_report,
    load_run_config,
    run_checkpoints,
    run_config_from_dict,
    run_config_to_dict,
    run_crio,
    step1_stator,
    symbolic_checkpoints,
)
from crio.qcore import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    PauliAxis,
    QuantumState,
    X_AXIS,
    Z_AXIS,
    apply_1q,
    apply_controlled_op,
    basis_state,
    fidelity_up_to_phase,
    measure,
    measurement_probabilities,
    pauli_axis_matrix,
    product_state,
    random_axis,
    reduced_density,
    rotation,
    tensor,
)
from crio.stator import diagonal_stator, stator_from_state


def expected_corrections(n, outcomes, participating_ks):
    """Corrections dictated by the broadcast bits, in protocol order."""
    out = []
    bits = iter(outcomes)
    if next(bits) == "1":
        out += [f"sigma_x a{k}" for k in participating_ks]
    for k in participating_ks:
        if next(bits) == "1":
            out.append(f"sigma_z a{k}")
    for k in participating_ks:
        if next(bits) == "1":
            out.append(f"i*sigma_n O{k + n}")
    return tuple(out)


class TestSingleSystem:
    def test_zero_angle_every_branch_exact(self):
        rng = np.random.default_rng(60)
        res = run_crio(1, [random_axis(rng)], [0.0], [random_qubit(rng)])
        assert len(res.branches) == 8
        assert res.min_fidelity() >= 1 - 1e-10

    def test_controller_minus_branch_triggers_sigma_x(self):
        rng = np.random.default_rng(61)
        res = run_crio(1, [random_axis(rng)], [1.1], [random_qubit(rng)])
        for branch in res.branches:
            if branch.outcomes[0] == "1":
                assert "sigma_x a2" in branch.corrections
            else:
                assert "sigma_x a2" not in branch.corrections

    def test_quarter_turn_x_axis_flips_zero_ket(self):
        # exp(i pi/2 sigma_x)|0> = i|1>: 2x2 matrix application oracle
        res = run_crio(1, [X_AXIS], [math.pi / 2], [np.array([1.0, 0.0])])
        oracle = rotation(X_AXIS, math.pi / 2) @ np.array([1.0, 0.0])
        np.testing.assert_allclose(np.abs(oracle), [0, 1], atol=1e-12)
        target = basis_state(("O3",), "1")
        for branch in res.branches:
            assert fidelity_up_to_phase(branch.final_state, target) >= 1 - 1e-10

    def test_final_stator_matches_pair_form(self):
        rng = np.random.default_rng(63)
        axis = random_axis(rng)
        sym = dict(symbolic_checkpoints(1, [axis], [0.7], [0, 0]))
        assert sym["step4"].equal_terms(diagonal_stator(("a2",), (axis,)), up_to_scale=True)


class TestTwoSystems:
    def test_all_branches_against_kron_oracle(self):
        rng = np.random.default_rng(64)
        axes = [random_axis(rng), random_axis(rng)]
        alpha, beta = rng.uniform(0, 2 * math.pi, 2)
        t1, t2 = random_qubit(rng), random_qubit(rng)
        res = run_crio(2, axes, [alpha, beta], [t1, t2])
        assert len(res.branches) == 32
        # direct application oracle on the two target qubits
        oracle = np.kron(rotation(axes[0], alpha) @ t1, rotation(axes[1], beta) @ t2)
        expected = QuantumState(("O4", "O5"), oracle)
        for branch in res.branches:
            assert fidelity_up_to_phase(branch.final_state, expected) >= 1 - 1e-10

    def test_post_hadamard_stator_term_set(self):
        """After the H layer the stator holds the eight aligned/anti-aligned
        families on (a2..a5), rearranged here in the +/- basis of a1."""
        rng = np.random.default_rng(65)
        axes = [random_axis(rng), random_axis(rng)]
        sym = dict(symbolic_checkpoints(2, axes, [0.0, 0.0], [0, 0, 0]))
        s2 = sym["step2"]
        plus_terms = {("0000", (0, 0)), ("0101", (0, 1)), ("1010", (1, 0)), ("1111", (1, 1))}
        minus_terms = {("1100", (0, 0)), ("1001", (0, 1)), ("0110", (1, 0)), ("0011", (1, 1))}
        ref = s2.coefficient("0" + "0000", (0, 0))
        for bits, word in plus_terms:
            assert s2.coefficient("0" + bits, word) == pytest.approx(ref, abs=1e-12)
            assert s2.coefficient("1" + bits, word) == pytest.approx(ref, abs=1e-12)
        for bits, word in minus_terms:
            assert s2.coefficient("0" + bits, word) == pytest.approx(ref, abs=1e-12)
            assert s2.coefficient("1" + bits, word) == pytest.approx(-ref, abs=1e-12)
        assert len(s2.terms) == 16

    def test_holder_minus_outcomes_trigger_partner_sigma_z(self):
        rng = np.random.default_rng(66)
        res = run_crio(2, [random_axis(rng), random_axis(rng)], [0.4, 1.9],
                       [random_qubit(rng), random_qubit(rng)])
        for branch in res.branches:
            # outcome order: a1, a4, a5, a2, a3
            assert ("sigma_z a2" in branch.corrections) == (branch.outcomes[1] == "1")
            assert ("sigma_z a3" in branch.corrections) == (branch.outcomes[2] == "1")

    def test_zero_angles_leave_targets_unchanged(self):
        rng = np.random.default_rng(67)
        t1, t2 = random_qubit(rng), random_qubit(rng)
        res = run_crio(2, [random_axis(rng), random_axis(rng)], [0.0, 0.0], [t1, t2])
        expected = product_state(("O4", "O5"), [t1, t2])
        for branch in res.branches:
            assert fidelity_up_to_phase(branch.final_state, expected) >= 1 - 1e-10


class TestBranchBookkeeping:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_probabilities_sum_to_one(self, n):
        rng = np.random.default_rng(70 + n)
        res = run_crio(
            n,
            [random_axis(rng) for _ in range(n)],
            list(rng.uniform(0, 2 * math.pi, n)),
            [random_qubit(rng) for _ in range(n)],
        )
        assert res.total_probability() == pytest.approx(1.0, abs=1e-10)
        assert len(res.branches) == 2 ** (2 * n + 1)

    def test_corrections_follow_broadcast_bits(self):
        rng = np.random.default_rng(74)
        n = 2
        res = run_crio(n, [random_axis(rng)] * n, [0.5, 1.2], [random_qubit(rng)] * n)
        for branch in res.branches:
            assert branch.corrections == expected_corrections(n, branch.outcomes, [2, 3])

    def test_message_audit(self):
        rng = np.random.default_rng(75)
        n = 2
        res = run_crio(n, [random_axis(rng)] * n, [0.5, 1.2], [random_qubit(rng)] * n)
        assert res.measurement_count == 1 + 2 * n
        for branch in res.branches:
            assert len(branch.transcript) == 3 * n  # broadcast fan-out + step4 + step6
            for msg in branch.transcript:
                assert msg.payload in (0, 1)  # outcome bits only, never angles or axes
            step3 = [m for m in branch.transcript if m.step == "step3"]
            assert {m.recipient for m in step3} == {"A2", "A3"}
            assert all(m.sender == "A1" for m in step3)

    def test_sampled_mode_reproducible(self):
        rng = np.random.default_rng(76)
        args = (2, [random_axis(rng), random_axis(rng)], [0.3, 0.9],
                [random_qubit(rng), random_qubit(rng)])
        a = run_crio(*args, mode="sample", seed=123)
        b = run_crio(*args, mode="sample", seed=123)
        assert len(a.branches) == len(b.branches) == 1
        assert a.branches[0].outcomes == b.branches[0].outcomes
        assert a.branches[0].transcript == b.branches[0].transcript
        np.testing.assert_allclose(
            a.branches[0].final_state.amplitudes, b.branches[0].final_state.amplitudes, atol=1e-15
        )
        assert a.branches[0].fidelity >= 1 - 1e-10

    @pytest.mark.parametrize("rows", [slice(1, 3), slice(None, None, -3), slice(5, 2), slice(-4, None)])
    def test_slice_lists_the_records_of_its_rows(self, rows):
        """A slice of the branch table is the list of its rows' records, as it
        was when the branches were a list."""
        res = run_crio(2, *random_inputs(np.random.default_rng(78), 2))
        got, ref = res.branches[rows], list(res.branches)[rows]
        assert isinstance(got, list) and len(got) == len(ref)
        for g, r in zip(got, ref):
            assert_same_branch(g, r)

    def test_checkpoints_cover_all_steps(self):
        rng = np.random.default_rng(77)
        tags = [t for t, _ in run_checkpoints(1, [random_axis(rng)], [0.4], [random_qubit(rng)], [0, 1, 0])]
        assert tags == ["step1", "step2", "step3", "step4", "step5", "step6"]


class TestWalkMatchesCheckpoints:
    """The branch enumeration and the forced-outcome checkpoint path read the
    same step plan; on every enumerated branch (a seeded subset of 32 at N=4)
    they must end in the same state."""

    @pytest.mark.parametrize(
        "n,groups,permitted",
        [
            (1, None, True),
            (2, None, True),
            (3, None, True),
            (2, frozenset(), True),
            (3, frozenset({4}), True),
            (1, None, False),
            (2, None, False),
            (3, None, False),
            (4, None, True),
            (4, frozenset({3, 5}), True),
            (4, None, False),
        ],
    )
    def test_final_state_on_every_branch(self, n, groups, permitted):
        rng = np.random.default_rng(90 + n)
        axes = [random_axis(rng) for _ in range(n)]
        betas = list(rng.uniform(0, 2 * math.pi, n))
        targets = [random_qubit(rng) for _ in range(n)]
        res = run_crio(n, axes, betas, targets, permitted=permitted, controlled_groups=groups)
        branches = res.branches
        if n == 4:
            branches = [branches[i] for i in sorted(rng.choice(len(branches), 32, replace=False))]
        for branch in branches:
            bits = [int(b) for b in branch.outcomes]
            tag, final = run_checkpoints(n, axes, betas, targets, bits, permitted, groups)[-1]
            assert tag == "step6"
            assert final.labels == branch.final_state.labels
            np.testing.assert_allclose(final.amplitudes, branch.final_state.amplitudes, rtol=0, atol=1e-12)


class TestCheckpointsMatchReferenceWalk:
    """The forced-outcome checkpoints against the per-node reference walk,
    which is built from the public kernels alone, on every branch."""

    @pytest.mark.parametrize(
        "n,groups,permitted",
        [(1, None, True), (2, None, True), (3, None, True), (2, frozenset(), True), (3, frozenset({4}), True),
         (1, None, False), (2, None, False), (3, None, False)],
    )
    def test_step6_state_on_every_branch(self, n, groups, permitted):
        axes, betas, targets = random_inputs(np.random.default_rng(140 + n), n)
        ks = protocol._participating_ks(n, groups)
        plan = protocol._plan(n, axes, betas, ks, permitted)
        expected = protocol._expected_state(n, axes, betas, targets, ks)
        branches = reference_walk(protocol._initial_state(n, targets, groups), plan, expected)
        assert len(branches) == 2 ** sum(step.basis is not None for step in plan)
        for branch in branches:
            bits = [int(b) for b in branch.outcomes]
            tag, final = run_checkpoints(n, axes, betas, targets, bits, permitted, groups)[-1]
            assert tag == "step6"
            assert final.labels == branch.final_state.labels
            np.testing.assert_allclose(final.amplitudes, branch.final_state.amplitudes, rtol=0, atol=1e-12)


def reference_fidelity(state, expected):
    if state.labels == expected.labels:
        return fidelity_up_to_phase(state, expected)
    rho = reduced_density(state, expected.labels)
    val = float(np.real(expected.amplitudes.conj() @ rho @ expected.amplitudes))
    return math.sqrt(min(max(val, 0.0), 1.0))


def apply_step(state, step):
    """A gate step through the public kernels, independent of the executor."""
    if step.control is None:
        return apply_1q(state, step.matrix, step.qubit)
    return apply_controlled_op(state, step.control, step.qubit, step.matrix)


def reference_walk(state, plan, expected, rule=protocol._keep_both):
    """Depth-first, one state per node: the loop the batched enumeration replaced.
    It follows the keep-both rule: each outcome of probability at least 1e-14 is
    a forced measurement; outcome 0's subtree comes first."""
    assert rule is protocol._keep_both

    def visit(state, idx, prob, outcomes, corrections, transcript):
        while idx < len(plan) and plan[idx].basis is None:
            state = apply_step(state, plan[idx])
            idx += 1
        if idx == len(plan):
            yield BranchRecord(outcomes, prob, corrections, state, reference_fidelity(state, expected), transcript)
            return
        step = plan[idx]
        probs = measurement_probabilities(state, step.qubit, step.basis)
        for outcome in (0, 1):
            if probs[outcome] < 1e-14:
                continue
            record, post = measure(state, step.qubit, step.basis, forced_outcome=outcome, remove=True)
            applied = step.on_one if outcome == 1 else ()
            for fix, _ in applied:
                post = apply_step(post, fix)
            msgs = tuple(ClassicalMessage(step.actor, r, step.tag, outcome) for r in step.messages_to)
            yield from visit(post, idx + 1, prob * record.probability, outcomes + str(outcome),
                             corrections + tuple(label for _, label in applied), transcript + msgs)

    return list(visit(state, 0, 1.0, "", (), ()))


def reference_sample(state, plan, rng):
    """One branch drawn by seeded `measure` calls, the sample loop the executor replaced:
    its outcome string and final state."""
    outcomes = ""
    for step in plan:
        if step.basis is None:
            state = apply_step(state, step)
            continue
        record, state = measure(state, step.qubit, step.basis, rng=rng, remove=True)
        outcomes += str(record.outcome)
        for fix, _ in step.on_one if record.outcome == 1 else ():
            state = apply_step(state, fix)
    return outcomes, state


def assert_same_branch(got, ref):
    assert (got.outcomes, got.corrections, got.transcript) == (ref.outcomes, ref.corrections, ref.transcript)
    assert got.final_state.labels == ref.final_state.labels
    assert got.probability == pytest.approx(ref.probability, rel=0, abs=1e-12)
    assert got.fidelity == pytest.approx(ref.fidelity, rel=0, abs=1e-12)
    np.testing.assert_allclose(got.final_state.amplitudes, ref.final_state.amplitudes, rtol=0, atol=1e-12)


def assert_same_branches(got, ref):
    assert [b.outcomes for b in got] == [b.outcomes for b in ref]
    for g, r in zip(got, ref):
        assert_same_branch(g, r)


def random_inputs(rng, n):
    return ([random_axis(rng) for _ in range(n)], list(rng.uniform(0, 2 * math.pi, n)),
            [random_qubit(rng) for _ in range(n)])


def biased_plan(rng):
    """A state and a hand-made plan with two measurements of (almost) no
    probability: a reads 1 in Z with probability 9e-16 and b reads |-> in X
    with probability 0."""
    state = tensor(product_state(("a", "b"), [[1, 3e-8], [1 / math.sqrt(2), 1 / math.sqrt(2)]]),
                   product_state(("c", "d", "e"), [random_qubit(rng) for _ in range(3)]))
    state = apply_controlled_op(state, "c", "d", PAULI_X)  # entangles c, d
    plan = [
        Step("s1", "P", "c", matrix=HADAMARD),
        Step("s2", "P", "a", basis="Z", messages_to=("Q",), on_one=((Step("f", "P", "d", PAULI_X), "x d"),)),
        Step("s3", "P", "b", basis="X", messages_to=("Q", "R"), on_one=((Step("f", "P", "c", PAULI_Z), "z c"),)),
        Step("s4", "P", "c", basis="Z", messages_to=("R",), on_one=((Step("f", "P", "d", PAULI_Z), "z d"),)),
        Step("s5", "P", "d", matrix=HADAMARD),
    ]
    return state, plan


class TestBatchedEnumeration:
    """The executor's enumeration against the per-node reference walk, and its
    sample mode against the enumeration and against seeded `measure` calls."""

    @pytest.mark.parametrize(
        "n,groups,permitted",
        [(1, None, True), (2, None, False), (3, frozenset({4}), True), (4, None, True), (4, frozenset({5}), False)],
    )
    def test_run_matches_reference_walk(self, n, groups, permitted):
        axes, betas, targets = random_inputs(np.random.default_rng(110 + n), n)
        result = run_crio(n, axes, betas, targets, permitted=permitted, controlled_groups=groups)
        plan = protocol._plan(n, axes, betas, protocol._participating_ks(n, groups), permitted)
        walked = reference_walk(protocol._initial_state(n, targets, groups), plan, result.expected_target)
        assert len(result.branches) == 2 ** result.measurement_count
        assert_same_branches(result.branches, walked)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_denial_guesses_match_reference_walk(self, n):
        """Each guess is the plan with the controller's step-3 measurement replaced
        by its outcome-1 corrections (guess 1) or by nothing (guess 0)."""
        axes, betas, targets = random_inputs(np.random.default_rng(120 + n), n)
        report = control_denial_report(n, axes, betas, targets)
        ks = protocol._participating_ks(n, None)
        plan = protocol._plan(n, axes, betas, ks)
        expected = protocol._expected_state(n, axes, betas, targets, ks)
        i = next(i for i, step in enumerate(plan) if step.basis is not None)  # A1's step-3 measurement
        worst = {}
        for guess in (0, 1):
            guessed = plan[:i] + [fix for fix, _ in plan[i].on_one if guess] + plan[i + 1:]
            walked = reference_walk(protocol._initial_state(n, targets, None), guessed, expected)
            assert_same_branches(report.guess_branches[guess], walked)
            worst[guess] = min(b.fidelity for b in walked)
        assert report.best_guess == max(worst, key=worst.get)
        assert report.best_guess_min_fidelity == pytest.approx(worst[report.best_guess], abs=1e-12)

    def test_zero_probability_outcomes_are_pruned(self):
        """Protocol measurements are unbiased, so a hand-made plan exercises the
        pruning: a's 1 (9e-16) is below the 1e-14 cut, and b's |-> has probability 0."""
        rng = np.random.default_rng(130)
        state, plan = biased_plan(rng)
        expected = product_state(("e",), [random_qubit(rng)])
        got = protocol._branches(state, plan, expected, protocol._keep_both)
        assert [b.outcomes for b in got] == ["000", "001"]
        assert_same_branches(got, reference_walk(state, plan, expected))

    @pytest.mark.parametrize("outcomes, qubit, basis, bit", [("100", "a", "Z", 1), ("010", "b", "X", 1)])
    def test_forcing_a_zero_probability_outcome_raises(self, outcomes, qubit, basis, bit):
        state, plan = biased_plan(np.random.default_rng(131))
        protocol._walk(state, plan, protocol._forced("001"))  # a kept branch is followed
        with pytest.raises(ValueError, match=rf"zero-probability outcome \({qubit}, basis {basis}, outcome {bit}\)"):
            protocol._walk(state, plan, protocol._forced(outcomes))

    @pytest.mark.parametrize("n,groups,permitted", [(1, None, True), (2, frozenset(), True), (3, None, False)])
    def test_sample_draws_as_measure_draws(self, n, groups, permitted):
        axes, betas, targets = random_inputs(np.random.default_rng(150 + n), n)
        ks = protocol._participating_ks(n, groups)
        plan = protocol._plan(n, axes, betas, ks, permitted)
        for seed in range(8):
            (sampled,) = run_crio(n, axes, betas, targets, mode="sample", seed=seed, permitted=permitted,
                                  controlled_groups=groups).branches
            outcomes, final = reference_sample(protocol._initial_state(n, targets, groups), plan,
                                               np.random.default_rng(seed))
            assert sampled.outcomes == outcomes
            np.testing.assert_allclose(sampled.final_state.amplitudes, final.amplitudes, rtol=0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 4), control=st.sampled_from(["full", "partial", "denied"]),
           seed=st.integers(0, 2**32 - 1))
    def test_sampled_branches_are_enumerated_branches(self, n, control, seed):
        rng = np.random.default_rng(seed)
        args = random_inputs(rng, n)
        groups = frozenset(int(g) for g in range(3, n + 2) if rng.random() < 0.5) if control == "partial" else None
        kwargs = {"permitted": control != "denied", "controlled_groups": groups}
        result = run_crio(n, *args, **kwargs)
        enumerated = {b.outcomes: b for b in result.branches}
        assert len(enumerated) == 2 ** result.measurement_count
        for sample_seed in range(4):
            (sampled,) = run_crio(n, *args, mode="sample", seed=sample_seed, **kwargs).branches
            assert_same_branch(enumerated[sampled.outcomes], sampled)


class TestParticipatingRegister:
    """Runs build and walk only a1 and the participating groups.  The oracle is
    the full 2N+1 channel tensor every target, walked by the same plan: an
    unwired group's pair and target are a product factor no step touches."""

    @pytest.mark.parametrize("permitted", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_control_subset_matches_full_register(self, n, permitted):
        axes, betas, targets = random_inputs(np.random.default_rng(170 + n), n)
        t_labels = [f"O{j}" for j in range(n + 2, 2 * n + 2)]
        for size in range(n):
            for groups in map(frozenset, combinations(range(3, n + 2), size)):
                result = run_crio(n, axes, betas, targets, permitted=permitted, controlled_groups=groups)
                plan = protocol._plan(n, axes, betas, protocol._participating_ks(n, groups), permitted)
                full = tensor(crio_channel_state(CrioTopology(n, groups)), product_state(t_labels, targets))
                oracle = protocol._branches(full, plan, result.expected_target, protocol._keep_both)
                got = result.branches
                assert [(b.outcomes, b.corrections, b.transcript) for b in got] == \
                    [(b.outcomes, b.corrections, b.transcript) for b in oracle]
                for field in ("probability", "fidelity"):
                    np.testing.assert_allclose([getattr(b, field) for b in got], [getattr(b, field) for b in oracle],
                                               rtol=0, atol=1e-12)
                # a1 stays unmeasured when control is denied
                kept = result.expected_target.labels if permitted else ("a1",) + result.expected_target.labels
                assert all(b.final_state.labels == kept for b in got)


class TestValidation:
    def test_locality_guard(self):
        parties = build_parties(1, [X_AXIS], [0.0])
        assert_local(parties, "A3", ("a3", "O3"))
        with pytest.raises(LocalityError):
            assert_local(parties, "A2", ("a1",))

    def test_party_secrets(self):
        axes = [PauliAxis.unit(1, 1, 0)]
        parties = build_parties(1, axes, [0.37])
        assert parties["A2"].knows_angle == pytest.approx(0.37)
        assert parties["A2"].knows_axis is None
        assert parties["A3"].knows_axis == axes[0]
        assert parties["A3"].knows_angle is None
        assert parties["A1"].knows_angle is None and parties["A1"].knows_axis is None

    def test_unnormalized_target_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            run_crio(1, [X_AXIS], [0.1], [np.array([1.0, 1.0])])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("target", [[1e300, 1e300], [float("nan"), 0.0]])
    def test_huge_or_nan_target_rejected_without_warning(self, target):
        with pytest.raises(ValueError, match="normalized"):
            run_crio(1, [X_AXIS], [0.1], [np.array(target)])

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            run_crio(1, [X_AXIS], [0.1], [np.array([1.0, 0.0])], mode="both")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_crio(2, [X_AXIS], [0.1, 0.2], [np.array([1.0, 0.0])] * 2)

    @pytest.mark.parametrize("run", [run_crio, control_denial_report])
    def test_register_above_bound_rejected(self, run):
        n = 9  # 3N+1 = 28 qubits
        with pytest.raises(ValueError, match="28-qubit register exceeds the limit"):
            run(n, [X_AXIS] * n, [0.1] * n, [np.array([1.0, 0.0])] * n)


class TestPartialControl:
    def test_uncontrolled_base_group_still_succeeds(self):
        rng = np.random.default_rng(80)
        axes = [random_axis(rng), random_axis(rng)]
        res = run_crio(2, axes, [0.8, 1.4], [random_qubit(rng), random_qubit(rng)],
                       controlled_groups=frozenset())
        assert res.participating_systems == (4,)
        assert len(res.branches) == 8
        assert res.min_fidelity() >= 1 - 1e-10
        assert res.expected_target.labels == ("O4",)

    def test_three_system_partial_subset(self):
        rng = np.random.default_rng(81)
        axes = [random_axis(rng) for _ in range(3)]
        res = run_crio(3, axes, [0.3, 0.6, 0.9], [random_qubit(rng) for _ in range(3)],
                       controlled_groups=frozenset({4}))
        assert res.participating_systems == (5, 7)
        assert res.min_fidelity() >= 1 - 1e-10


class TestDenial:
    def test_not_permitted_run_reports_incompletion(self):
        rng = np.random.default_rng(82)
        res = run_crio(1, [X_AXIS], [0.7], [random_qubit(rng)], permitted=False)
        assert not res.permitted
        assert res.measurement_count == 2  # no controller measurement happened
        assert all(m.step != "step3" for b in res.branches for m in b.transcript)
        assert res.min_fidelity() < 1 - 1e-6

    def test_generic_angle_defeats_every_guess(self):
        rng = np.random.default_rng(83)
        rep = control_denial_report(1, [X_AXIS], [0.7], [random_qubit(rng)])
        assert rep.purity_without_controller < 1 - 1e-6
        assert rep.best_guess_min_fidelity < 1 - 1e-6
        assert not rep.control_defeated
        for branches in rep.guess_branches.values():
            assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-10)

    def test_identity_on_axis_eigenstate_is_control_proof(self):
        # with a z-axis coupling and a |0> target no entanglement ever forms,
        # so a zero rotation succeeds on every branch even without the controller
        rep = control_denial_report(1, [Z_AXIS], [0.0], [np.array([1.0, 0.0])])
        assert rep.best_guess_min_fidelity >= 1 - 1e-10
        assert rep.control_defeated
        # the channel itself is still entangled with the controller
        assert rep.purity_without_controller < 1 - 1e-6

    def test_two_system_purity(self):
        rng = np.random.default_rng(84)
        rep = control_denial_report(2, [random_axis(rng), random_axis(rng)], [0.5, 0.6],
                                    [random_qubit(rng), random_qubit(rng)])
        assert rep.purity_without_controller < 1 - 1e-6


class TestConfigIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(85)
        axes = [random_axis(rng), random_axis(rng)]
        targets = [random_qubit(rng), random_qubit(rng)]
        cfg = run_config_to_dict(2, axes, [0.1, 0.2], targets, "enumerate", 9, True, frozenset({3}))
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        kwargs = load_run_config(path)
        assert kwargs["n_systems"] == 2
        assert kwargs["controlled_groups"] == frozenset({3})
        np.testing.assert_allclose(kwargs["targets"][0], targets[0], atol=1e-15)
        res = run_crio(**kwargs)
        assert res.min_fidelity() >= 1 - 1e-10

    def test_result_json_shape(self):
        rng = np.random.default_rng(86)
        res = run_crio(1, [random_axis(rng)], [0.4], [random_qubit(rng)])
        data = res.to_json_dict()
        assert data["n_systems"] == 1 and len(data["branches"]) == 8
        assert all(set(b) >= {"outcomes", "probability", "fidelity", "transcript"} for b in data["branches"])
