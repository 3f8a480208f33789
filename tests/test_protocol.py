import dataclasses
import json
import math
import re
import tracemalloc
from functools import reduce
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense_walk
from conftest import random_qubit
from dense_walk import records
from crio import protocol
from crio.gm import closed_form_overlap, gm_optimize, gm_phi
from crio.graphstate import (
    CrioTopology,
    Graph,
    amplitude_oracle,
    basis_bits,
    crio_channel_state,
    phi_state,
    sign_exponent,
)
from crio.povm import PovmParams, control_power_report, sample_outcomes
from crio.protocol import (
    LocalityError,
    Step,
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
    QuantumState,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    apply_1q,
    apply_controlled_op,
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
from crio.report import json_report
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
        for branch in records(res.branches):
            if branch.outcomes[0] == "1":
                assert "sigma_x a2" in branch.corrections
            else:
                assert "sigma_x a2" not in branch.corrections

    def test_quarter_turn_x_axis_flips_zero_ket(self):
        # exp(i pi/2 sigma_x)|0> = i|1>: 2x2 matrix application oracle
        res = run_crio(1, [X_AXIS], [math.pi / 2], [np.array([1.0, 0.0])])
        oracle = rotation(X_AXIS, math.pi / 2) @ np.array([1.0, 0.0])
        np.testing.assert_allclose(np.abs(oracle), [0, 1], atol=1e-12)
        target = product_state(("O3",), [np.array([0.0, 1.0])])
        for branch in records(res.branches):
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
        for branch in records(res.branches):
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
        for branch in records(res.branches):
            # outcome order: a1, a4, a5, a2, a3
            assert ("sigma_z a2" in branch.corrections) == (branch.outcomes[1] == "1")
            assert ("sigma_z a3" in branch.corrections) == (branch.outcomes[2] == "1")

    def test_zero_angles_leave_targets_unchanged(self):
        rng = np.random.default_rng(67)
        t1, t2 = random_qubit(rng), random_qubit(rng)
        res = run_crio(2, [random_axis(rng), random_axis(rng)], [0.0, 0.0], [t1, t2])
        expected = product_state(("O4", "O5"), [t1, t2])
        for branch in records(res.branches):
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
        for branch in records(res.branches):
            assert branch.corrections == expected_corrections(n, branch.outcomes, [2, 3])

    def test_message_audit(self):
        rng = np.random.default_rng(75)
        n = 2
        res = run_crio(n, [random_axis(rng)] * n, [0.5, 1.2], [random_qubit(rng)] * n)
        assert res.measurement_count == 1 + 2 * n
        for branch in records(res.branches):
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
        a = records(run_crio(*args, mode="sample", seed=123).branches)
        b = records(run_crio(*args, mode="sample", seed=123).branches)
        assert len(a) == len(b) == 1
        assert a[0].outcomes == b[0].outcomes
        assert a[0].transcript == b[0].transcript
        np.testing.assert_allclose(a[0].final_state.amplitudes, b[0].final_state.amplitudes, atol=1e-15)
        assert a[0].fidelity >= 1 - 1e-10

    def test_sample_mode_without_a_seed_is_refused(self):
        """A draw from OS entropy could not be repeated, so sample mode needs a seed; enumeration draws nothing."""
        args = random_inputs(np.random.default_rng(77), 2)
        for kwargs in ({}, {"seed": None}):
            with pytest.raises(ValueError, match="sample mode needs a seed"):
                run_crio(2, *args, mode="sample", **kwargs)
        assert len(run_crio(2, *args, mode="enumerate", seed=None).branches) == 32

    def test_checkpoints_cover_all_steps(self):
        rng = np.random.default_rng(77)
        tags = [t for t, _ in run_checkpoints(1, [random_axis(rng)], [0.4], [random_qubit(rng)], [0, 1, 0])]
        assert tags == ["step1", "step2", "step3", "step4", "step5", "step6"]

    @pytest.mark.parametrize("n, permitted, groups, tags", [
        (2, False, None, ["step1", "step2", "step4", "step5", "step6"]),  # no controller measurement
        (1, True, None, ["step1", "step2", "step3", "step4", "step5", "step6"]),
        (3, True, frozenset(), ["step1", "step2", "step3", "step4", "step5", "step6"]),  # base group only
    ])
    def test_checkpoint_tags_include_steps_with_no_operation(self, n, permitted, groups, tags):
        """A checkpoint per step tag of the run, even one whose step does nothing on this
        register: at N=1, and with no optional group wired, no party applies H in step 2."""
        rng = np.random.default_rng(78)
        axes, betas, targets = [random_axis(rng) for _ in range(n)], [0.4] * n, [random_qubit(rng) for _ in range(n)]
        checkpoints = run_checkpoints(n, axes, betas, targets, [0] * (2 * n + 1), permitted, groups)
        assert [t for t, _ in checkpoints] == tags
        if n == 1 or groups == frozenset():  # the base group alone takes part
            assert all(s.tag != "step2" for s in protocol._plan(n, axes, betas, [2]))

    def test_symbolic_checkpoints_stop_after_step5(self):
        rng = np.random.default_rng(79)
        tags = [t for t, _ in symbolic_checkpoints(2, [random_axis(rng)] * 2, [0.4, 1.1], [0, 1, 0])]
        assert tags == ["step1", "step2", "step3", "step4", "step5"]


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
        rows = sorted(rng.choice(len(res.branches), 32, replace=False)) if n == 4 else slice(None)
        for branch in records(res.branches, rows):
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
        ks, plan, vecs = protocol._setup(n, axes, betas, targets, groups, permitted)
        expected = dense_walk.expected_state(n, axes, betas, vecs, ks)
        branches = reference_walk(dense_walk.initial_state(n, ks, vecs), plan, expected)
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
            yield dense_walk.Branch(outcomes, prob, corrections, state, reference_fidelity(state, expected),
                                    transcript)
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
            msgs = tuple(dense_walk.Message(step.actor, r, step.tag, outcome) for r in step.messages_to)
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


def engine_branches(state, plan, expected, rule):
    """The block engine's branches of a hand-made plan, on `state` as one block; `expected` is one qubit."""
    return protocol._branches(dense_walk.one_block(state), plan, {expected.labels[0]: expected.amplitudes}, rule)


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


def first_measurement(plan) -> int:
    return next(i for i, step in enumerate(plan) if step.basis is not None)


def biased_plan(rng, a=(1, 3e-8), b=(1 / math.sqrt(2), 1 / math.sqrt(2))):
    """A state and a hand-made plan, with kets `a` and `b` on the qubits measured first.  By
    default these are two measurements of (almost) no probability: a reads 1 in Z with
    probability 9e-16 and b reads |-> in X with probability 0."""
    state = tensor(product_state(("a", "b"), [a, b]),
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
        ks, plan, vecs = protocol._setup(n, axes, betas, targets, groups, permitted)
        walked = reference_walk(dense_walk.initial_state(n, ks, vecs), plan, result.expected_target)
        assert len(result.branches) == 2 ** result.measurement_count
        assert_same_branches(records(result.branches), walked)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_denial_guesses_match_reference_walk(self, n):
        """Each guess is the plan with the controller's step-3 measurement replaced
        by its outcome-1 corrections (guess 1) or by nothing (guess 0)."""
        axes, betas, targets = random_inputs(np.random.default_rng(120 + n), n)
        report = control_denial_report(n, axes, betas, targets)
        ks, plan, vecs = protocol._setup(n, axes, betas, targets)
        expected = dense_walk.expected_state(n, axes, betas, vecs, ks)
        i = next(i for i, step in enumerate(plan) if step.basis is not None)  # A1's step-3 measurement
        worst = {}
        for guess in (0, 1):
            guessed = plan[:i] + [fix for fix, _ in plan[i].on_one if guess] + plan[i + 1:]
            walked = reference_walk(dense_walk.initial_state(n, ks, vecs), guessed, expected)
            assert_same_branches(records(report.guess_branches[guess]), walked)
            worst[guess] = min(b.fidelity for b in walked)
        assert report.best_guess == max(worst, key=worst.get)
        assert report.best_guess_min_fidelity == pytest.approx(worst[report.best_guess], abs=1e-12)

    def test_zero_probability_outcome_is_refused(self):
        """Protocol measurements are unbiased, so a hand-made plan reaches the refusal:
        enumeration keeps a's 1, of probability 9e-16."""
        rng = np.random.default_rng(130)
        state, plan = biased_plan(rng)
        expected = product_state(("e",), [random_qubit(rng)])
        with pytest.raises(ValueError, match=r"zero-probability outcome \(a, basis Z, outcome 1\)"):
            engine_branches(state, plan, expected, protocol._keep_both)

    def test_uneven_outcomes_match_reference_walk(self):
        """Outcome probabilities other than 1/2: a reads 1 with probability 0.09, and b is off |+>."""
        rng = np.random.default_rng(132)
        state, plan = biased_plan(rng, a=(math.sqrt(0.91), 0.3), b=(math.cos(0.3), math.sin(0.3)))
        expected = product_state(("e",), [random_qubit(rng)])
        got = engine_branches(state, plan, expected, protocol._keep_both)
        assert len(got) == 8
        assert np.ptp(got.probabilities) > 0.1
        assert_same_branches(records(got), reference_walk(state, plan, expected))

    @pytest.mark.parametrize("outcomes, qubit, basis, bit", [("100", "a", "Z", 1), ("010", "b", "X", 1)])
    def test_forcing_a_zero_probability_outcome_raises(self, outcomes, qubit, basis, bit):
        state, plan = biased_plan(np.random.default_rng(131))
        register = dense_walk.one_block(state)
        protocol._run(register, plan, protocol._forced("001"))  # a kept branch is followed
        with pytest.raises(ValueError, match=rf"zero-probability outcome \({qubit}, basis {basis}, outcome {bit}\)"):
            protocol._run(register, plan, protocol._forced(outcomes))

    def test_dense_oracle_refuses_as_the_engine_does(self):
        """The dense walk of the test oracle on the same hand-made plans: the same refusals,
        and the reference walk's branches where outcomes are uneven."""
        rng = np.random.default_rng(130)
        state, plan = biased_plan(rng)
        expected = product_state(("e",), [random_qubit(rng)])
        with pytest.raises(ValueError, match=r"zero-probability outcome \(a, basis Z, outcome 1\)"):
            dense_walk.branches(state, plan, expected, protocol._keep_both)
        for outcomes, match in (("100", r"\(a, basis Z, outcome 1\)"), ("010", r"\(b, basis X, outcome 1\)")):
            with pytest.raises(ValueError, match=match):
                dense_walk.walk(state, plan, protocol._forced(outcomes))
        rng = np.random.default_rng(132)
        state, plan = biased_plan(rng, a=(math.sqrt(0.91), 0.3), b=(math.cos(0.3), math.sin(0.3)))
        expected = product_state(("e",), [random_qubit(rng)])
        assert_same_branches(records(dense_walk.branches(state, plan, expected, protocol._keep_both)),
                             reference_walk(state, plan, expected))

    @pytest.mark.parametrize("permitted", [True, False])
    def test_mixed_rule_keeps_the_matching_enumerated_branches(self, permitted):
        """A rule that keeps one outcome at some measurements and both at the rest: its branches are
        the enumerated ones whose bits read the kept outcome there, in the same order, so the branch
        axes of the kept-both measurements line up across the blocks."""
        n = 3
        axes, betas, targets = random_inputs(np.random.default_rng(134), n)
        ks, plan, vecs = protocol._setup(n, axes, betas, targets, permitted=permitted)
        kets = protocol._expected_kets(n, axes, betas, vecs, ks)
        forced, count = {1: 1, 2: 0, 4: 1}, iter(range(100))

        def rule(step, p):
            i = next(count)
            return (forced[i],) if i in forced else (0, 1)

        full = protocol._branches(protocol._register(n, ks, vecs), plan, kets, protocol._keep_both)
        mixed = protocol._branches(protocol._register(n, ks, vecs), plan, kets, rule)
        rows = [r for r in range(len(full)) if all(full.bits[r, i] == bit for i, bit in forced.items())]
        assert len(mixed) == 2 ** (sum(step.basis is not None for step in plan) - len(forced)) == len(rows)
        assert_same_branches(records(mixed), records(full, rows))

    @pytest.mark.parametrize("n,groups,permitted", [(1, None, True), (2, frozenset(), True), (3, None, False)])
    def test_sample_draws_as_measure_draws(self, n, groups, permitted):
        axes, betas, targets = random_inputs(np.random.default_rng(150 + n), n)
        ks, plan, vecs = protocol._setup(n, axes, betas, targets, groups, permitted)
        for seed in range(8):
            (sampled,) = records(run_crio(n, axes, betas, targets, mode="sample", seed=seed, permitted=permitted,
                                          controlled_groups=groups).branches)
            outcomes, final = reference_sample(dense_walk.initial_state(n, ks, vecs), plan,
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
        enumerated = {b.outcomes: b for b in records(result.branches)}
        assert len(enumerated) == 2 ** result.measurement_count
        for sample_seed in range(4):
            (sampled,) = records(run_crio(n, *args, mode="sample", seed=sample_seed, **kwargs).branches)
            assert_same_branch(enumerated[sampled.outcomes], sampled)


def weigh_each_step(step, p):
    """Both outcomes, as `_keep_both` keeps them, but not that rule: the engine weighs every measurement."""
    return (0, 1)


def assert_same_run(got, want):
    """Two `_run` results, byte for byte: registers (shapes included), outcome bits and measured steps."""
    (reg, bits, measured), (ref, ref_bits, ref_measured) = got, want
    assert (reg.order, reg.labels, measured) == (ref.order, ref.labels, ref_measured)
    for a, b in zip([reg.norm2, bits, *reg.blocks, *reg.grams], [ref.norm2, ref_bits, *ref.blocks, *ref.grams],
                    strict=True):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestDeferredEnumeration:
    """An enumeration weighs the blocks only at its last measurement; weighing every step, as the other
    rules do, gives the same register bit for bit, and the same refusals."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 4), control=st.sampled_from(["full", "partial", "denied"]),
           seed=st.integers(0, 2**32 - 1))
    def test_deferred_walk_is_the_per_step_walk(self, n, control, seed):
        rng = np.random.default_rng(seed)
        axes, betas, targets = random_inputs(rng, n)
        groups = frozenset(int(g) for g in range(3, n + 2) if rng.random() < 0.5) if control == "partial" else None
        ks, plan, vecs = protocol._setup(n, axes, betas, targets, groups, control != "denied")
        register = protocol._register(n, ks, vecs)
        assert_same_run(protocol._run(register, plan, protocol._keep_both),
                        protocol._run(register, plan, weigh_each_step))
        if control == "full":  # control_denial_report's two guesses, from the register before step 3
            lead = first_measurement(plan)
            reg = protocol._run(register, plan[:lead], protocol._keep_both)[0]
            fixes = [fix for fix, _ in plan[lead].on_one]
            for guess in ([], fixes):
                assert_same_run(protocol._run(reg, guess + plan[lead + 1:], protocol._keep_both),
                                protocol._run(reg, guess + plan[lead + 1:], weigh_each_step))

    def test_low_final_branch_is_walked_again_step_by_step(self, monkeypatch):
        """No step keeps an outcome of probability at most 1e-12 (a reads 1 with probability 1.5e-12), but
        the final branches below it are at most 2e-12, so the enumeration walks the plan again, weighing
        each step: it returns the per-step branches, those of the reference walk."""
        rng = np.random.default_rng(136)
        state, plan = biased_plan(rng, a=(math.sqrt(1 - 1.5e-12), math.sqrt(1.5e-12)),
                                  b=(math.cos(0.3), math.sin(0.3)))
        expected = product_state(("e",), [random_qubit(rng)])
        register, least = dense_walk.one_block(state), []
        protocol._run(register, plan, lambda step, p: least.append(p.min()) or (0, 1))
        assert min(least) > 1e-12
        runs, run = [], protocol._run
        monkeypatch.setattr(protocol, "_run", lambda reg, plan, rule: runs.append(rule) or run(reg, plan, rule))
        got = engine_branches(state, plan, expected, protocol._keep_both)
        assert runs[0] is protocol._keep_both and len(runs) == 2 and runs[1] is not protocol._keep_both
        assert got.probabilities.min() <= 2e-12
        assert_same_run(run(register, plan, protocol._keep_both), run(register, plan, weigh_each_step))
        assert_same_branches(records(got), reference_walk(state, plan, expected))

    def test_controlled_outcome_one_fix_matches_reference_walk(self):
        """An outcome-1 fix that is a controlled gate is written into the kept-both block's outcome-1 half
        as a plain one is."""
        rng = np.random.default_rng(137)
        state, plan = biased_plan(rng, a=(math.sqrt(0.91), 0.3), b=(math.cos(0.3), math.sin(0.3)))
        plan[1].on_one = ((Step("f", "P", "d", PAULI_X, control="c"), "cx c d"),)
        expected = product_state(("e",), [random_qubit(rng)])
        got = engine_branches(state, plan, expected, protocol._keep_both)
        assert len(got) == 8
        assert_same_branches(records(got), reference_walk(state, plan, expected))


SPECIAL_BETAS = (0.0, math.pi / 4, math.pi / 2, math.pi, 3 * math.pi / 2)


def eigenstate_inputs(rng, n):
    """Axes x, y, z in turn, special angles, and each target an eigenstate of its axis."""
    axes = [(X_AXIS, Y_AXIS, Z_AXIS)[i % 3] for i in range(n)]
    targets = [np.linalg.eigh(pauli_axis_matrix(axis))[1][:, rng.integers(2)] for axis in axes]
    return axes, [float(b) for b in rng.choice(SPECIAL_BETAS, n)], targets


class TestUnbiasedOutcomes:
    """Every measurement of the protocol is unbiased, for any target: each branch has
    probability 2**-m, so no outcome rule meets the walk's zero-probability refusal."""

    @pytest.mark.parametrize("inputs", [random_inputs, eigenstate_inputs])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_branch_has_probability_two_to_minus_m(self, n, inputs):
        args = inputs(np.random.default_rng(210 + n), n)
        runs = [run_crio(n, *args, permitted=permitted, controlled_groups=frozenset(groups)).branches
                for permitted in (True, False) for size in range(n) for groups in combinations(range(3, n + 2), size)]
        runs += control_denial_report(n, *args).guess_branches.values()
        for branches in runs:
            assert len(branches) == 2 ** len(branches.steps)
            np.testing.assert_allclose(branches.probabilities, 2.0 ** -len(branches.steps), rtol=0, atol=1e-12)


class TestDenialClosedForm:
    """Every branch of both control-denial guesses has fidelity sqrt((1 + z**2) / 2), with
    z = prod_k <psi_k|sigma_{n_k}|psi_k>, real as each sigma_n is Hermitian.  After the denied plan
    the w = 0 term holds the expected targets A and the w = 1 term B = (x)_k sigma_{n_k} A (sigma_n
    commutes with exp(i*beta*sigma_n)); tracing a1 leaves their equal mixture, so
    F**2 = (1 + <A|B>**2) / 2 with <A|B> = z.  A closed form, so it checks the engine's two-term
    path without a walk."""

    @pytest.mark.parametrize("inputs", [random_inputs, eigenstate_inputs])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_branch_of_both_guesses(self, n, inputs):
        for seed in range(2):
            axes, betas, targets = inputs(np.random.default_rng(300 + 10 * n + seed), n)
            z = math.prod(np.vdot(t, pauli_axis_matrix(axis) @ t).real for axis, t in zip(axes, targets))
            report = control_denial_report(n, axes, betas, targets)
            for branches in report.guess_branches.values():
                assert len(branches) == 2 ** (2 * n)
                np.testing.assert_allclose(branches.fidelities, math.sqrt((1 + z * z) / 2), rtol=0, atol=1e-12)
            if inputs is eigenstate_inputs:  # each rotation is a phase on its target: control is defeated
                assert abs(z) == pytest.approx(1, abs=1e-12) and report.control_defeated

    @pytest.mark.parametrize("inputs", [random_inputs, eigenstate_inputs])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_denial_fidelity_is_every_enumerated_branch(self, n, inputs):
        """protocol.denial_fidelity, in O(N), equals the fidelity of every branch of both
        guesses; it reads 1 on eigenstate targets only."""
        for seed in range(2):
            axes, betas, targets = inputs(np.random.default_rng(320 + 10 * n + seed), n)
            fidelity = protocol.denial_fidelity(axes, targets)
            for branches in control_denial_report(n, axes, betas, targets).guess_branches.values():
                np.testing.assert_allclose(branches.fidelities, fidelity, rtol=0, atol=1e-12)
            assert (abs(fidelity - 1) <= 1e-12) == (inputs is eigenstate_inputs)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("target, match", [([2, 0], "target states must be normalized"),
                                               ([math.nan, 0.0], "target states must be normalized"),
                                               ([1e300, 1e300], "target states must be normalized"),
                                               ([1.0, 0.0, 0.0], "target systems are single qubits")], ids=repr)
    def test_denial_fidelity_refuses_the_targets_setup_refuses(self, target, match):
        """One check of the targets serves both: an unnormalized ket is not read as a fidelity above 1."""
        for call in (lambda: protocol.denial_fidelity([Z_AXIS], [np.array(target)]),
                     lambda: control_denial_report(1, [Z_AXIS], [0.3], [np.array(target)])):
            with pytest.raises(ValueError, match=f"^{match}$"):
                call()

    @pytest.mark.parametrize("axes, targets", [([Z_AXIS, X_AXIS], [np.array([1.0, 0.0])]),
                                               ([Z_AXIS], [np.array([1.0, 0.0])] * 2), ([], [])])
    def test_denial_fidelity_refuses_unequal_or_empty_lists(self, axes, targets):
        """zip would drop the unmatched entries, and an empty product would read as fidelity 1."""
        with pytest.raises(ValueError, match="^one target per axis and at least one axis, got "):
            protocol.denial_fidelity(axes, targets)

    def test_denial_fidelity_reads_each_target_divided_by_its_norm(self):
        """A ket within 1e-8 of unit norm is divided by its norm, as `_setup` divides the run's targets."""
        axes, _, targets = random_inputs(np.random.default_rng(340), 3)
        scaled = [t * (1 + 5e-9) for t in targets]
        assert protocol.denial_fidelity(axes, scaled) == pytest.approx(protocol.denial_fidelity(axes, targets),
                                                                       rel=0, abs=1e-15)


class TestParticipatingRegister:
    """Runs build and walk only a1 and the participating groups.  The oracle is
    the full 2N+1 channel tensor every target, taken through steps 1-2 by the
    public kernels and walked by the rest of the same plan: an unwired group's
    pair and target are a product factor no step touches."""

    @pytest.mark.parametrize("permitted", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_control_subset_matches_full_register(self, n, permitted):
        axes, betas, targets = random_inputs(np.random.default_rng(170 + n), n)
        t_labels = [f"O{j}" for j in range(n + 2, 2 * n + 2)]
        for size in range(n):
            for groups in map(frozenset, combinations(range(3, n + 2), size)):
                result = run_crio(n, axes, betas, targets, permitted=permitted, controlled_groups=groups)
                _, plan, _ = protocol._setup(n, axes, betas, targets, groups, permitted)
                full = tensor(crio_channel_state(CrioTopology(n, groups)), product_state(t_labels, targets))
                lead = first_measurement(plan)
                for step in plan[:lead]:
                    full = apply_step(full, step)
                oracle = records(dense_walk.branches(full, plan[lead:], result.expected_target, protocol._keep_both))
                got = records(result.branches)
                assert [(b.outcomes, b.corrections, b.transcript) for b in got] == \
                    [(b.outcomes, b.corrections, b.transcript) for b in oracle]
                for field in ("probability", "fidelity"):
                    np.testing.assert_allclose([getattr(b, field) for b in got], [getattr(b, field) for b in oracle],
                                               rtol=0, atol=1e-12)
                # a1 stays unmeasured when control is denied
                kept = result.expected_target.labels if permitted else ("a1",) + result.expected_target.labels
                assert all(b.final_state.labels == kept for b in got)


def control_subsets(max_n):
    for n in range(1, max_n + 1):
        for size in range(n):
            for groups in combinations(range(3, n + 2), size):
                yield n, frozenset(groups)


def tensored_out(register):
    """The dense state of a block register, summed over its two terms with np.kron, on its blocks' labels."""
    labels = sum(register.labels, ())
    return QuantumState(labels, sum(reduce(np.kron, [block[w] for block in register.blocks]) for w in (0, 1)))


# The sign rule's block tables, one row per term w, over the block's channel qubits' basis in index order: the
# hub's Phi_w[h, u, v] = (-1)^(h*w) [u xor v = w] and a group's g_w[x, y] = (-1)^(x*(w xor y)).
HUB_TERMS = np.array([[1, 0, 0, 1, 1, 0, 0, 1], [0, 1, 1, 0, 0, -1, -1, 0]]) * 2 ** -1.5
GROUP_TERMS = np.array([[1, 1, 1, -1], [1, 1, -1, 1]]) / 2


class TestBlockForm:
    """The register as two terms of block products, against the graph state and the control function."""

    @pytest.mark.parametrize("n,groups", [(1, None), (2, None), (3, None), (5, None), (9, None),
                                          (5, frozenset({4, 6}))])
    def test_derived_tables_are_the_sign_rule_bit_for_bit(self, n, groups):
        """The tables `_register` reads off the graph, at m = 1, 2, 3, 5 and 9 participating groups and
        one partial-control shape, against the sign rule's as uint64: with every target |0>, a block's
        entries on target 0 are its table, as x * (1 + 0j) has real part x, signed zeros too."""
        ks = CrioTopology(n, groups).groups
        reg = protocol._register(n, ks, [np.array([1, 0], dtype=complex)] * n)
        assert len(reg.blocks) == len(ks)
        for block, reference in zip(reg.blocks, [HUB_TERMS] + [GROUP_TERMS] * (len(ks) - 1)):
            table = np.ascontiguousarray(block.reshape(2, -1, 2)[..., 0].real)
            np.testing.assert_array_equal(table.view(np.uint64), reference.view(np.uint64))

    def test_register_past_the_dense_bound(self):
        """`_register` at N=1000, far past the dense bound, with one target ket throughout: 1000 blocks,
        each bit-equal to N=2's block of its kind, and the last group's holding a1001, a2001 and O2001."""
        ket = random_qubit(np.random.default_rng(243))
        small = protocol._register(2, [2, 3], [ket] * 2)
        reg = protocol._register(1000, list(range(2, 1002)), [ket] * 1000)
        assert len(reg.blocks) == 1000 and reg.labels[-1] == ("a1001", "a2001", "O2001")
        for i, block in enumerate(reg.blocks):
            np.testing.assert_array_equal(block.view(np.uint64), small.blocks[min(i, 1)].view(np.uint64))

    @pytest.mark.parametrize("n,groups", control_subsets(5))
    def test_factors_tensor_out_to_the_graph_state(self, n, groups):
        """The blocks before step 1, tensored out and permuted, against the partial-control channel
        graph state tensor the targets: an unwired group's pair is contracted with CZ|++>, its
        product factor."""
        axes, betas, targets = random_inputs(np.random.default_rng(230 + n), n)
        ks, _, vecs = protocol._setup(n, axes, betas, targets, groups)
        got = tensored_out(protocol._register(n, ks, vecs))
        channel = crio_channel_state(CrioTopology(n, groups))
        unwired = [k for k in range(3, n + 2) if k not in ks]
        kept = ["a1"] + [f"a{k}" for k in ks] + [f"a{k + n}" for k in ks]
        pairs = [lab for k in unwired for lab in (f"a{k}", f"a{k + n}")]
        t = channel.reordered(kept + pairs).amplitudes.reshape(2 ** len(kept), -1)
        cz_plus = np.array([1, 1, 1, -1]) / 2
        part = t @ reduce(np.kron, [cz_plus] * len(unwired), np.ones(1))
        expected = tensor(QuantumState(kept, part), product_state([f"O{k + n}" for k in ks], [vecs[k - 2] for k in ks]))
        assert got.num_qubits == 3 * len(ks) + 1
        np.testing.assert_allclose(got.reordered(expected.labels).amplitudes, expected.amplitudes, rtol=0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), eigen=st.booleans())
    def test_step3_zeroes_one_term_on_every_permitted_branch(self, n, seed, eigen):
        """After step 3 of a permitted run, on every branch one term is exactly zero, the one the
        controller's outcome did not pick, to the end of the run; a denied run keeps both terms
        nonzero on every branch."""
        rng = np.random.default_rng(seed)
        args = (eigenstate_inputs if eigen else random_inputs)(rng, n)
        groups = frozenset(int(g) for g in range(3, n + 2) if rng.random() < 0.5)
        for permitted in (True, False):
            ks, plan, vecs = protocol._setup(n, *args, controlled_groups=groups, permitted=permitted)
            register = protocol._register(n, ks, vecs)
            through3 = [step for step in plan if step.tag in ("step1", "step2", "step3")]
            for steps in (through3, plan):
                reg, bits, _ = protocol._run(register, steps, protocol._keep_both)
                # each block's slice on every branch: one branch axis per measurement, all kept both
                rows = [protocol._gather(block, np.arange(len(bits)), bits.shape[1]) for block in reg.blocks]
                zero = np.array([[any((block[r, w] == 0).all() for block in rows) for w in (0, 1)]
                                 for r in range(len(bits))])
                if permitted:
                    assert (zero[range(len(bits)), 1 - bits[:, 0]]).all()  # outcome s0 keeps term w = s0
                    assert not zero[range(len(bits)), bits[:, 0]].any()
                else:
                    assert not zero.any()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_probability_is_the_squared_norm_of_each_branch_row(self, n):
        """By deferred measurement a branch's probability is the squared norm of its unnormalised row:
        each block's slice on the branch, multiplied out term by term and summed over the two terms.
        Full, partial, denied and sampled runs and both denial guesses."""
        args = random_inputs(np.random.default_rng(280 + n), n)
        runs = [run_crio(n, *args, **kwargs).branches
                for kwargs in ({}, {"controlled_groups": frozenset(range(3, n + 2, 2))}, {"permitted": False},
                               {"mode": "sample", "seed": n})]
        runs += control_denial_report(n, *args).guess_branches.values()
        for branches in runs:
            axes = len(branches).bit_length() - 1  # 2**axes rows
            rows = [protocol._gather(a, np.arange(len(branches)), axes) for _, a in branches.factors]
            norm2 = np.linalg.norm(protocol._terms(rows).sum(axis=1), axis=1) ** 2
            np.testing.assert_allclose(branches.probabilities, norm2, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("run", ["permitted", "denied", "guess 0", "guess 1"])
    def test_no_final_block_holds_more_than_eight_branch_rows(self, run):
        """A block has size 2 only on the branch axes of the measurements and fixes that touch it: the
        controller's bit and its own two bits, so at most 8 rows of the 2**11 (2**10) branches at N=5."""
        n = 5
        args = random_inputs(np.random.default_rng(250), n)
        if run.startswith("guess"):
            branches = control_denial_report(n, *args).guess_branches[int(run[-1])]
        else:
            branches = run_crio(n, *args, permitted=run == "permitted").branches
        assert len(branches) == 2 ** len(branches.steps)
        for _, block in branches.factors:
            assert math.prod(block.shape[:-2]) <= 8

    def test_single_branch_run_past_64_measurements(self):
        """A kept-one measurement adds no branch axis, so neither do its bits: 70 one-qubit blocks,
        each measured once in sample mode, against independent draws from the same generator
        (numpy refuses arrays of more than 64 axes)."""
        rng = np.random.default_rng(260)
        kets = [random_qubit(rng) for _ in range(70)]
        blocks = [np.stack([ket, np.zeros(2)]) for ket in kets]  # term w = 1 is zero
        labels = tuple(f"q{i}" for i in range(70))
        register = protocol._Register(labels, [(q,) for q in labels], blocks, [b.conj() @ b.T for b in blocks],
                                      np.ones(()))
        plan = [Step("s", "P", q, basis="ZX"[i % 2]) for i, q in enumerate(labels)]
        reg, bits, measured = protocol._run(register, plan, protocol._drawn(np.random.default_rng(5)))
        probs = np.ravel(reg.norm2.T)
        draw, expected, p = np.random.default_rng(5), [], 1.0
        for i, ket in enumerate(kets):
            weights = np.abs(HADAMARD @ ket if i % 2 else ket) ** 2
            expected.append(0 if draw.random() < weights[0] else 1)
            p *= weights[expected[-1]]
        assert bits.shape == (1, 70) and bits[0].tolist() == expected
        assert probs.shape == (1,) and probs[0] == pytest.approx(p, rel=1e-12, abs=0)
        assert len(measured) == 70 and reg.order == () and reg.norm2.shape == ()

    def test_extra_edge_between_groups_is_refused(self, monkeypatch):
        """A mutant channel graph with an edge between two groups does not split into blocks."""
        class Mutant(CrioTopology):
            @property
            def edges(self):
                return [*super().edges, (3, 4)]

        monkeypatch.setattr(protocol, "CrioTopology", Mutant)
        n, args = 3, random_inputs(np.random.default_rng(240), 3)
        for run in (lambda: run_crio(n, *args), lambda: control_denial_report(n, *args),
                    lambda: run_checkpoints(n, *args, [0] * 7)):
            with pytest.raises(ValueError, match=r"not one pair per group: a3-a4"):
                run()

    def test_dropped_hub_edge_is_refused(self, monkeypatch):
        """A mutant channel graph without the edge a2-a3 is refused, though its groups still split
        into pairs: a2 and a4 no longer have one neighbour set, so the graph has no two-term block form."""
        class Mutant(CrioTopology):
            @property
            def edges(self):
                return [edge for edge in super().edges if edge != (2, 3)]

        monkeypatch.setattr(protocol, "CrioTopology", Mutant)
        n, args = 2, random_inputs(np.random.default_rng(242), 2)
        for run in (lambda: run_crio(n, *args), lambda: control_denial_report(n, *args),
                    lambda: run_checkpoints(n, *args, [0] * 5)):
            with pytest.raises(ValueError, match=r"hub edges differ from the sign rule's: a2-a3$"):
                run()

    @pytest.mark.parametrize("edge, match", [
        ((2, 4), r"hub edges differ from the sign rule's: a2-a4$"),  # inside the separator {a2, a4}
        ((1, 3), r"besides a1 alone, the channel graph is not one pair per group: a1-a3$"),  # a1 into a group
    ], ids=["separator", "a1-group"])
    def test_mutant_edge_is_refused_by_name(self, monkeypatch, edge, match):
        """A mutant N=2 channel graph with one more edge is refused, and the edge is named."""
        class Mutant(CrioTopology):
            @property
            def edges(self):
                return [*super().edges, edge]

        monkeypatch.setattr(protocol, "CrioTopology", Mutant)
        n, args = 2, random_inputs(np.random.default_rng(244), 2)
        for run in (lambda: run_crio(n, *args), lambda: control_denial_report(n, *args),
                    lambda: run_checkpoints(n, *args, [0] * 5)):
            with pytest.raises(ValueError, match=match):
                run()

    @pytest.mark.parametrize("step, match", [
        (Step("x", "A5", "O5", PAULI_X, control="a2"), "no block holds O5 and a2"),
        (Step("x", "A9", "a9", HADAMARD), "no block holds a9"),
    ])
    def test_step_across_blocks_is_refused(self, step, match):
        n = 2
        ks, plan, vecs = protocol._setup(n, *random_inputs(np.random.default_rng(241), n))
        with pytest.raises(ValueError, match=match):
            protocol._run(protocol._register(n, ks, vecs), plan[:2] + [step], protocol._keep_both)


def builder_cases():
    """Every control subset for N <= 3, and full control for N = 4 and 5."""
    for n in (1, 2, 3):
        for size in range(n):
            for groups in combinations(range(3, n + 2), size):
                yield n, frozenset(groups)
    yield 4, None
    yield 5, None


class TestInitialStateBuilder:
    """`dense_walk.initial_state` builds steps 1-2 into the register as one product of the channel
    and a target table; the oracle is the same steps applied by the public kernels."""

    @pytest.mark.parametrize("n,groups", builder_cases())
    def test_lead_matches_public_kernels(self, n, groups):
        axes, betas, targets = random_inputs(np.random.default_rng(190 + n), n)
        ks, plan, vecs = protocol._setup(n, axes, betas, targets, groups)
        state, lead = dense_walk.initial_state(n, ks, vecs), []
        for tag in ("step1", "step2"):
            for step in (step for step in plan if step.tag == tag):
                state = apply_step(state, step)
                lead.append(step)
            built = dense_walk.initial_state(n, ks, vecs, lead)
            assert built.labels == state.labels
            np.testing.assert_allclose(built.amplitudes, state.amplitudes, rtol=0, atol=1e-12)

    def test_built_register_allocates_one_vector(self):
        n = 5
        ks, plan, vecs = protocol._setup(n, *random_inputs(np.random.default_rng(195), n))
        lead = plan[:first_measurement(plan)]
        tracemalloc.start()
        try:
            state = dense_walk.initial_state(n, ks, vecs, lead)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.num_qubits == 16
        assert peak < 1.5 * state.amplitudes.nbytes

    @pytest.mark.parametrize("lead, match", [
        pytest.param(lambda plan: plan[:first_measurement(plan) + 1], "measurement on a1", id="measurement"),
        pytest.param(lambda plan: plan[:3] + [Step("step2", "A7", "a7", HADAMARD)], "a gate on a7",
                     id="gate-on-step1-qubit"),
        pytest.param(lambda plan: [Step("step2", "A5", "O5", HADAMARD)], "a gate on O5",
                     id="gate-on-target"),
        pytest.param(lambda plan: plan[:2] + [Step("step1", "A7", "O6", PAULI_X, control="a7")],
                     "a7 -> O6 is not a step-1 gate", id="crossed-control"),
        pytest.param(lambda plan: [Step("step1", "A2", "O5", PAULI_X, control="a2")],
                     "a2 -> O5 is not a step-1 gate", id="control-off-step1"),
        pytest.param(lambda plan: plan[:2], "step-1 gates on only some groups", id="some-groups"),
    ])
    def test_unrepresentable_lead_refused(self, lead, match):
        n = 3
        ks, plan, vecs = protocol._setup(n, *random_inputs(np.random.default_rng(196), n))
        assert [step.tag for step in plan[:3]] == ["step1"] * 3
        with pytest.raises(ValueError, match=match):
            dense_walk.initial_state(n, ks, vecs, lead(plan))

    def test_walk_refuses_a_controlled_gate(self):
        n = 2
        ks, plan, vecs = protocol._setup(n, *random_inputs(np.random.default_rng(197), n))
        with pytest.raises(ValueError, match=r"no controlled gate \(a4 -> O4\)"):
            dense_walk.walk(dense_walk.initial_state(n, ks, vecs), plan, protocol._keep_both)


ENTRY_POINTS = ("run_crio", "control_denial_report", "run_checkpoints", "symbolic_checkpoints", "step1_stator")
TAKE_BETAS = ENTRY_POINTS[:4]  # all but step1_stator


def holders(n) -> dict:
    """Each qubit's party, from the paper's partition: A_1 holds a_1, A_k (k = 2..N+1) holds a_k,
    and A_j (j = N+2..2N+1) holds a_j and its target O_j."""
    held = {f"a{k}": f"A{k}" for k in range(1, 2 * n + 2)}
    return held | {f"O{j}": f"A{j}" for j in range(n + 2, 2 * n + 2)}


def with_fixes(plan) -> list:
    """The plan's steps followed by every measurement's outcome-1 fixes."""
    return plan + [fix for step in plan for fix, _ in step.on_one]


class TestOwnership:
    """The plan's actors and recipients against the paper's ownership partition, and where each
    party's secret enters the plan."""

    @pytest.mark.parametrize("permitted", [True, False])
    @pytest.mark.parametrize("n,groups", control_subsets(4))
    def test_every_step_acts_on_its_actors_qubits(self, n, groups, permitted):
        held = holders(n)
        _, plan, _ = protocol._setup(n, *random_inputs(np.random.default_rng(300 + n), n), groups, permitted)
        measured = [step for step in plan if step.basis is not None]
        assert len(measured) == permitted + 2 * (len(groups) + 1)
        for step in with_fixes(plan):
            assert step.actor == held[step.qubit]
            assert step.control is None or held[step.control] == step.actor
            assert step.messages_to == tuple(held[fix.qubit] for fix, _ in step.on_one)

    @pytest.mark.parametrize("permitted", [True, False])
    def test_each_secret_reaches_only_its_holders_steps(self, permitted):
        """Changing beta_k changes only the matrices of A_k's steps, and changing axis k only
        those of A_{k+N}'s."""
        n, rng = 3, np.random.default_rng(310)
        axes, betas, _ = random_inputs(rng, n)

        def matrices(axes, betas):
            plan = protocol._setup(n, axes, betas, permitted=permitted)[1]
            return [(step.actor, step.matrix) for step in with_fixes(plan)]

        base = matrices(axes, betas)
        for i, k in enumerate(range(2, n + 2)):
            for holder, changed in ((f"A{k}", matrices(axes, betas[:i] + [betas[i] + 0.5] + betas[i + 1:])),
                                    (f"A{k + n}", matrices(axes[:i] + [random_axis(rng)] + axes[i + 1:], betas))):
                assert [actor for actor, _ in changed] == [actor for actor, _ in base]
                moved = {actor for (actor, a), (_, b) in zip(base, changed)
                         if a is not None and not np.array_equal(a, b)}
                assert moved == {holder}

    def test_step_across_parties_raises_locality_error(self, monkeypatch):
        """A mutant target rule that puts O_{j+1} under step 1's gate controlled by a_j."""
        monkeypatch.setattr(protocol, "target_label", lambda j: f"O{j + 1}")
        with pytest.raises(LocalityError, match=r"^party A5 does not own qubit 'a4'$"):
            run_crio(2, *random_inputs(np.random.default_rng(311), 2))


_BOOLS = st.sampled_from([True, False, np.True_])
_CONFUSED = {  # the type-confused values drawn for an argument of each kind
    "int": _BOOLS,
    "count": st.one_of(_BOOLS, st.floats(0.01, 99.99).filter(lambda v: not v.is_integer())),
    "flag": st.text(max_size=5),
    "angle": st.one_of(st.booleans(), st.text(max_size=5)),
}
_CONFUSED["betas"] = st.tuples(st.integers(0, 1), _CONFUSED["angle"]).map(
    lambda drawn: [drawn[1] if i == drawn[0] else 0.3 for i in range(2)])  # one beta of two confused
_CONFUSED["vertex"] = st.one_of(_CONFUSED["count"], st.sampled_from([1.0, 3.0]), st.text(max_size=3))
_CONFUSED["collection"] = st.one_of(st.text(max_size=5), st.integers(), _BOOLS)  # for a collection of integers
_CONFUSED["group"] = st.one_of(_BOOLS, st.sampled_from([3.0, 4.0]), st.text(max_size=2)).map(lambda g: {g})
_CONFUSED["negative"] = st.integers(-2 ** 40, -1)
_CONFUSED["outcome"] = st.one_of(_BOOLS, st.sampled_from([0.0, 1.0, 1.5, 2, "x"]))
_CONFUSED["loop"] = st.sampled_from([2.0, np.float64(2.0), np.float32(2.0)])  # equal to the other end, 2
_ONE_CONFUSED = {"int": True, "count": 2.5, "flag": "yes", "angle": True, "betas": [True, 0.3], "vertex": 1.5,
                 "collection": "34", "group": {3.0}, "negative": -1, "outcome": True, "loop": 2.0}  # one per kind


def _type_confused_calls() -> list:
    """(entry point, argument, kind, call): call(value) passes valid N=2 arguments but value for the argument."""
    axes, betas, targets, outcomes = [X_AXIS, Z_AXIS], [0.3, 1.2], [np.array([1.0, 0.0])] * 2, [0] * 5
    state, params = crio_channel_state(CrioTopology(1)), PovmParams.from_free(math.pi / 4, 0.0, 0.3, math.pi / 2)
    povm = vars(params)
    stator = step1_stator(1, [X_AXIS])
    protocol_calls = {
        "run_crio": lambda n=2, b=betas, **kw: run_crio(n, axes, b, targets, **kw),
        "control_denial_report": lambda n=2, b=betas: control_denial_report(n, axes, b, targets),
        "run_checkpoints": lambda n=2, b=betas, **kw: run_checkpoints(n, axes, b, targets, outcomes, **kw),
        "symbolic_checkpoints": lambda n=2, b=betas: symbolic_checkpoints(n, axes, b, outcomes),
    }
    return [
        *((entry, "n_systems", "count", lambda v, f=f: f(n=v)) for entry, f in protocol_calls.items()),
        *((entry, "betas", "betas", lambda v, f=f: f(b=v)) for entry, f in protocol_calls.items()),
        *((entry, "permitted", "flag", lambda v, f=protocol_calls[entry]: f(permitted=v))
          for entry in ("run_crio", "run_checkpoints")),
        ("run_crio", "seed", "int", lambda v: run_crio(2, axes, betas, targets, mode="sample", seed=v)),
        ("step1_stator", "n_systems", "count", lambda v: step1_stator(v, axes)),
        ("Graph", "num_vertices", "count", lambda v: Graph.of(v, [(1, 2)])),
        ("CrioTopology", "n_systems", "count", CrioTopology),
        ("gm_optimize", "restarts", "count", lambda v: gm_optimize(state, restarts=v)),
        ("gm_optimize", "seed", "int", lambda v: gm_optimize(state, seed=v)),
        *(("PovmParams", field, "angle", lambda v, field=field: PovmParams(**{**povm, field: v})) for field in povm),
        ("CrioTopology", "controlled_groups", "collection", lambda v: CrioTopology(3, v)),
        ("CrioTopology", "controlled groups", "group", lambda v: CrioTopology(3, v)),  # one non-integer group
        ("Graph", "edges", "vertex", lambda v: Graph(3, frozenset({(v, 2)}))),
        ("Graph.of", "edges", "vertex", lambda v: Graph.of(3, [(v, 2)])),
        *((entry, "n_systems", "count", f) for entry, f in (
            ("phi_state", phi_state), ("gm_phi", lambda v: gm_phi(v, restarts=2)),
            ("amplitude_oracle", lambda v: amplitude_oracle(v, "000")),
            ("closed_form_overlap", lambda v: closed_form_overlap(v, [0.3] * 3)))),
        ("measure", "outcome", "outcome", lambda v: measure(state, "a1", "Z", forced_outcome=v)),
        ("Stator.project_control", "outcome", "outcome", lambda v: stator.project_control("a1", "Z", v)),
        ("run_crio", "seed", "negative", lambda v: run_crio(2, axes, betas, targets, mode="sample", seed=v)),
        ("gm_optimize", "seed", "negative", lambda v: gm_optimize(state, seed=v)),
        ("control_power_report", "target_alpha", "angle", control_power_report),
        ("sign_exponent", "n_systems", "count", lambda v: sign_exponent(v, "000")),
        ("basis_bits", "num_qubits", "count", basis_bits),
        ("Graph.of", "edges", "loop", lambda v: Graph.of(3, [(v, 2)])),  # a float self-loop names its end
        ("sample_outcomes", "n_samples", "count", lambda v: sample_outcomes(params, v, seed=1)),
        ("sample_outcomes", "n_samples", "negative", lambda v: sample_outcomes(params, v, seed=1)),
        ("sample_outcomes", "seed", "int", lambda v: sample_outcomes(params, 10, seed=v)),
        ("sample_outcomes", "seed", "negative", lambda v: sample_outcomes(params, 10, seed=v)),
    ]


_TYPE_CONFUSED_CALLS = _type_confused_calls()


class TestValidation:
    def test_unnormalized_target_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            run_crio(1, [X_AXIS], [0.1], [np.array([1.0, 1.0])])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("target", [[1e300, 1e300], [float("nan"), 0.0]])
    def test_huge_or_nan_target_rejected_without_warning(self, target):
        with pytest.raises(ValueError, match="normalized"):
            run_crio(1, [X_AXIS], [0.1], [np.array(target)])

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", ["run_crio", "control_denial_report", "run_checkpoints"])
    def test_non_finite_beta_rejected_by_name(self, entry, beta):
        args = (1, [X_AXIS], [beta], [np.array([1.0, 0.0])])
        with pytest.raises(ValueError, match="betas must be finite"):
            if entry == "run_checkpoints":
                run_checkpoints(*args, [0, 0, 0])
            else:
                {"run_crio": run_crio, "control_denial_report": control_denial_report}[entry](*args)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            run_crio(1, [X_AXIS], [0.1], [np.array([1.0, 0.0])], mode="both")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_crio(2, [X_AXIS], [0.1, 0.2], [np.array([1.0, 0.0])] * 2)

    @pytest.mark.parametrize(
        "n,axes,betas,outcomes,entries,match",
        [
            pytest.param(2, [X_AXIS], [0.1, 0.2], [0] * 5, ENTRY_POINTS, "one PauliAxis per remote system",
                         id="short-axes"),
            pytest.param(2, [X_AXIS] * 2, [0.1], [0] * 5, TAKE_BETAS, "one entry per system", id="short-betas"),
            pytest.param(1, [(1.0, 0.0, 0.0)], [0.1], [0] * 3, ENTRY_POINTS, "one PauliAxis per remote system",
                         id="tuple-axis"),
            pytest.param(1, [X_AXIS], [math.nan], [0] * 3, TAKE_BETAS, "betas must be finite", id="nan-beta"),
            pytest.param(1, [X_AXIS], [math.inf], [0] * 3, TAKE_BETAS, "betas must be finite", id="inf-beta"),
            pytest.param(1, [X_AXIS], [0.1], [0], ("run_checkpoints", "symbolic_checkpoints"),
                         "too few outcomes", id="too-few-outcomes"),
            pytest.param(1, [X_AXIS], [0.1], [2, 0, 0], ("run_checkpoints", "symbolic_checkpoints"),
                         "outcome must be 0 or 1", id="outcome-out-of-range"),
            pytest.param(3, [X_AXIS] * 3, [0.1] * 3, [0] * 7, ("symbolic_checkpoints", "step1_stator"),
                         "10-qubit register exceeds", id="above-bound"),
        ],
    )
    def test_entry_points_refuse_bad_input(self, monkeypatch, n, axes, betas, outcomes, entries, match):
        """Each entry point refuses each malformed input with a ValueError naming it, from
        its one setup.  The bound case lowers MAX_QUBITS to 9 so that N=3 (3N+1 = 10 qubits)
        stands in for a register too large to allocate."""
        monkeypatch.setattr("crio.qcore.MAX_QUBITS", 9)
        targets = [np.array([1.0, 0.0])] * n
        calls = {
            "run_crio": lambda: run_crio(n, axes, betas, targets),
            "control_denial_report": lambda: control_denial_report(n, axes, betas, targets),
            "run_checkpoints": lambda: run_checkpoints(n, axes, betas, targets, outcomes),
            "symbolic_checkpoints": lambda: symbolic_checkpoints(n, axes, betas, outcomes),
            "step1_stator": lambda: step1_stator(n, axes),
        }
        for entry in entries:
            with pytest.raises(ValueError, match=match):
                calls[entry]()

    @pytest.mark.parametrize("run", [run_crio, control_denial_report])
    def test_register_above_bound_rejected(self, run):
        n = 9  # 3N+1 = 28 qubits
        with pytest.raises(ValueError, match="28-qubit register exceeds the limit"):
            run(n, [X_AXIS] * n, [0.1] * n, [np.array([1.0, 0.0])] * n)

    @pytest.mark.parametrize("run", [run_crio, control_denial_report])
    def test_bool_system_count_is_refused_naming_it(self, run):
        with pytest.raises(TypeError, match="n_systems must be an integer, got True"):
            run(True, [X_AXIS], [0.1], [np.array([1.0, 0.0])])

    @pytest.mark.parametrize("n", [2.5, "3", None])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_non_integer_system_count_is_refused_naming_it(self, entry, n):
        axes, betas, targets, outcomes = [X_AXIS] * 2, [0.1] * 2, [np.array([1.0, 0.0])] * 2, [0] * 5
        calls = {
            "run_crio": lambda: run_crio(n, axes, betas, targets),
            "control_denial_report": lambda: control_denial_report(n, axes, betas, targets),
            "run_checkpoints": lambda: run_checkpoints(n, axes, betas, targets, outcomes),
            "symbolic_checkpoints": lambda: symbolic_checkpoints(n, axes, betas, outcomes),
            "step1_stator": lambda: step1_stator(n, axes),
        }
        with pytest.raises(TypeError, match=f"^n_systems must be an integer, got {re.escape(repr(n))}$"):
            calls[entry]()

    @pytest.mark.parametrize("run, error, match", [
        pytest.param(lambda *args: run_crio(*args, permitted="no"), TypeError,
                     "permitted must be True or False, got 'no'", id="permitted-string"),
        pytest.param(lambda *args: run_checkpoints(*args, [0, 0, 0], permitted=0), TypeError,
                     "permitted must be True or False, got 0", id="permitted-zero"),
        pytest.param(lambda *args: run_checkpoints(*args, "01x"), ValueError,
                     "outcome must be 0 or 1, got 'x'", id="outcome-letter"),
    ])
    def test_malformed_flag_or_outcome_is_refused_naming_it(self, run, error, match):
        with pytest.raises(error, match=f"^{re.escape(match)}$"):
            run(1, [X_AXIS], [0.1], [np.array([1.0, 0.0])])

    @pytest.mark.parametrize("bad", [True, False, np.True_, 0.0, 1.0, np.float64(1.0), b"1", None],
                             ids=repr)
    @pytest.mark.parametrize("entry", ["run_checkpoints", "symbolic_checkpoints"])
    def test_forced_outcome_that_is_not_an_integer_or_bit_string_is_refused(self, entry, bad):
        """A bool or a float is not an outcome, though True == 1 and 0.0 == 0."""
        outcomes = [0, bad, 0]
        with pytest.raises(ValueError, match=f"^outcome must be 0 or 1, got {re.escape(repr(bad))}$"):
            if entry == "run_checkpoints":
                run_checkpoints(1, [X_AXIS], [0.1], [np.array([1.0, 0.0])], outcomes)
            else:
                symbolic_checkpoints(1, [X_AXIS], [0.1], outcomes)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_type_confused_argument_is_refused_naming_it(self, data):
        """One argument of a library entry point drawn type-confused, the others valid: a ValueError or
        TypeError that names the argument, never a result."""
        entry, name, kind, call = data.draw(st.sampled_from(_TYPE_CONFUSED_CALLS))
        value = data.draw(_CONFUSED[kind], label=f"{entry}({name}=...)")
        with pytest.raises((TypeError, ValueError), match=name):
            call(value)

    @pytest.mark.parametrize("entry, name, kind, call", _TYPE_CONFUSED_CALLS,
                             ids=[f"{entry}-{name}-{kind}" for entry, name, kind, _ in _TYPE_CONFUSED_CALLS])
    def test_each_row_refuses_one_confused_value_naming_it(self, entry, name, kind, call):
        """Every row of the table, with one fixed value of its kind, whichever rows the draws above reach."""
        with pytest.raises((TypeError, ValueError), match=name):
            call(_ONE_CONFUSED[kind])

    def test_forced_outcomes_take_ints_numpy_ints_and_bit_strings_alike(self):
        args = (1, [X_AXIS], [0.1], [np.array([0.6, 0.8j])])
        want = run_checkpoints(*args, [1, 0, 1])
        for outcomes in ([np.int64(1), np.uint8(0), 1], ["1", "0", "1"], "101"):
            got = run_checkpoints(*args, outcomes)
            assert [tag for tag, _ in got] == [tag for tag, _ in want]
            assert all(np.array_equal(a.amplitudes, b.amplitudes) for (_, a), (_, b) in zip(got, want))

    def test_numpy_system_count_is_reported_as_an_int(self):
        """A numpy integer count passes the checks; the result stores it as an int, so its report
        writes, byte for byte as for the Python int."""
        args = ([X_AXIS], [0.1], [np.array([0.6, 0.8])])
        reports = []
        for n in (np.int64(1), 1):
            result = run_crio(n, *args)
            assert type(result.n_systems) is int
            payload = {**result.summary_json(), "branches": result.branches}
            reports.append("".join(json_report(payload)))
        assert reports[0] == reports[1] and json.loads(reports[0])["n_systems"] == 1
        assert type(control_denial_report(np.int64(1), *args).n_systems) is int

    def test_numpy_groups_are_reported_as_ints(self):
        """CrioTopology stores numpy integer groups as ints, so the participating systems they number write
        the same report bytes as Python int groups."""
        args = (2, [X_AXIS] * 2, [0.1, 0.2], [np.array([0.6, 0.8])] * 2)
        reports = []
        for groups in (frozenset({np.int64(3)}), frozenset({3})):
            result = run_crio(*args, controlled_groups=groups)
            assert result.participating_systems == (4, 5) and {type(k) for k in result.participating_systems} == {int}
            reports.append("".join(json_report({**result.summary_json(), "branches": result.branches})))
        assert reports[0] == reports[1]


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
        assert all(m.step != "step3" for b in records(res.branches) for m in b.transcript)
        assert res.min_fidelity() < 1 - 1e-6

    def test_generic_angle_defeats_every_guess(self):
        rng = np.random.default_rng(83)
        rep = control_denial_report(1, [X_AXIS], [0.7], [random_qubit(rng)])
        assert rep.purity_without_controller < 1 - 1e-6
        assert rep.best_guess_min_fidelity < 1 - 1e-6
        assert not rep.control_defeated
        for branches in rep.guess_branches.values():
            assert sum(b.probability for b in records(branches)) == pytest.approx(1.0, abs=1e-10)

    def test_best_guess_is_the_guess_with_the_higher_worst_fidelity(self, monkeypatch):
        """The two guesses tie on every branch (TestDenialClosedForm), so guess 1's
        fidelities are lifted halfway to 1 here; the report must then pick guess 1."""
        rng = np.random.default_rng(85)
        axes, betas, targets = [random_axis(rng), random_axis(rng)], [0.4, 1.1], [random_qubit(rng), random_qubit(rng)]
        _, plan, _ = protocol._setup(2, axes, betas, targets)
        lead = next(i for i, step in enumerate(plan) if step.basis is not None)
        guess1_steps = len(plan[lead].on_one) + len(plan) - lead - 1  # its fixes, then the rest of the plan
        real = protocol._branches

        def lifted(reg, steps, kets, rule):
            brs = real(reg, steps, kets, rule)
            return dataclasses.replace(brs, fidelities=(1 + brs.fidelities) / 2) if len(steps) == guess1_steps else brs

        monkeypatch.setattr(protocol, "_branches", lifted)
        rep = control_denial_report(2, axes, betas, targets)
        worst = {g: float(brs.fidelities.min()) for g, brs in rep.guess_branches.items()}
        assert worst[0] < worst[1] < 1 - 1e-6
        assert rep.best_guess == 1 and rep.best_guess_min_fidelity == worst[1]
        assert not rep.control_defeated

    def test_identity_on_axis_eigenstate_is_control_proof(self):
        # with a z-axis coupling and a |0> target no entanglement ever forms,
        # so a zero rotation succeeds on every branch even without the controller
        rep = control_denial_report(1, [Z_AXIS], [0.0], [np.array([1.0, 0.0])])
        assert rep.best_guess_min_fidelity >= 1 - 1e-10
        assert rep.control_defeated
        # the channel itself is still entangled with the controller
        assert rep.purity_without_controller < 1 - 1e-6

    def test_near_eigenstate_target_is_not_control_proof(self):
        """A target 0.01 rad off the z axis keeps every guess's fidelity below 1 by about
        1e-4, far above control_defeated's 1e-6 slack and below a looser 1e-3 one."""
        target = np.array([math.cos(0.01), math.sin(0.01)])
        rep = control_denial_report(1, [Z_AXIS], [0.8], [target])
        assert rep.best_guess_min_fidelity == pytest.approx(1 - 1e-4, abs=1e-6)
        assert not rep.control_defeated

    def test_two_system_purity(self):
        rng = np.random.default_rng(84)
        rep = control_denial_report(2, [random_axis(rng), random_axis(rng)], [0.5, 0.6],
                                    [random_qubit(rng), random_qubit(rng)])
        assert rep.purity_without_controller < 1 - 1e-6

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_purity_is_that_of_the_rest_of_the_register(self, n):
        """The purity without the controller, against the reduced state of every other qubit."""
        axes, betas, targets = random_inputs(np.random.default_rng(86 + n), n)
        rep = control_denial_report(n, axes, betas, targets)
        ks, plan, vecs = protocol._setup(n, axes, betas, targets)
        state = dense_walk.initial_state(n, ks, vecs, plan[:first_measurement(plan)])
        rho = reduced_density(state, [lab for lab in state.labels if lab != "a1"])
        assert rep.purity_without_controller == pytest.approx(float(np.trace(rho @ rho).real), abs=1e-12)

    def test_report_never_squares_the_register(self):
        """At N=4 a density matrix of the 12 qubits other than a1 would take 256 MiB."""
        n = 4
        args = random_inputs(np.random.default_rng(90), n)
        tracemalloc.start()
        try:
            rep = control_denial_report(n, *args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.purity_without_controller == pytest.approx(0.5, abs=1e-12)
        assert peak < 8 * 2 ** 20


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
        payload = {**res.summary_json(), "min_fidelity": res.min_fidelity(),
                   "total_probability": res.total_probability(), "branches": res.branches}
        data = json.loads("".join(json_report(payload)))
        assert data["n_systems"] == 1 and len(data["branches"]) == 8
        assert all(set(b) == {"outcomes", "probability", "fidelity"} for b in data["branches"])
        assert [m["step"] for m in data["measurements"]] == ["step3", "step4", "step6"]
