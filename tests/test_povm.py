import copy
import math
import re
from dataclasses import asdict, astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_qubit
from crio.povm import (
    BranchCoefficients,
    MAX_SHARED_BRANCHES,
    _accepted,
    _branch_maps,
    _channel_map,
    _dense_maps,
    _dense_step1,
    _ket_array,
    _pair_index,
    PovmParams,
    angle_in_set,
    branch_coefficients,
    case2_lambda1_for_alpha,
    classify_branches,
    control_power_report,
    enumerate_case1,
    enumerate_case2,
    guess_probability,
    outcome_probabilities,
    outcome_probability,
    random_valid_kets,
    sample_outcomes,
    separability_check,
    simulate_branch,
    success_rate,
)
from crio.protocol import step1_stator
from crio.qcore import IDENTITY_2, PAULI_X, X_AXIS, PauliAxis, pauli_axis_matrix, random_axis, rotation
from crio.stator import Stator

PI = math.pi


def angle_sets_equal(a, b, tol=1e-9):
    return len(a) == len(b) and all(angle_in_set(x, b, tol) for x in a)


def _simulated_probabilities(params, axis, target_vec) -> np.ndarray:
    """The four branch probabilities conditioned on a specific target state, from the
    dense branch maps, ordered (1,1),(1,2),(2,1),(2,2)."""
    return np.sum(np.abs(_dense_maps(params, axis) @ target_vec) ** 2, axis=1)


def _outer_product_complete(angles) -> bool:
    """The completeness check as numpy once made it: |k1><k1| + |k2><k2| within 1e-10 of I, entrywise."""
    th1, th2, ph1, ph2, la1, la2, om1, om2 = angles
    with np.errstate(invalid="ignore"):
        for (t1, p1), (t2, p2) in (((th1, ph1), (th2, ph2)), ((la1, om1), (la2, om2))):
            k1, k2 = (np.array([math.cos(t), np.exp(1j * p) * math.sin(t)]) for t, p in ((t1, p1), (t2, p2)))
            total = np.outer(k1, k1.conj()) + np.outer(k2, k2.conj())
            if not np.max(np.abs(total - IDENTITY_2)) <= 1e-10:
                return False
    return True


@st.composite
def _perturbed_angles(draw):
    """from_free's eight angles, with theta2, phi2, lambda2 and omega2 each kept, moved by
    at most 1e-13 or by at least 1e-8, or replaced by NaN or an infinity; in half the draws
    all four are kept or moved by at most 1e-13."""
    theta, phase = st.floats(0, PI / 2), st.floats(0, 2 * PI)
    angles = list(astuple(PovmParams.from_free(draw(theta), draw(phase), draw(theta), draw(phase))))
    kinds = ["kept", "tiny"] if draw(st.booleans()) else ["kept", "tiny", "large", "nan", "inf"]
    for i in (1, 3, 5, 7):
        kind = draw(st.sampled_from(kinds))
        if kind == "tiny":
            angles[i] += draw(st.floats(-1e-13, 1e-13))
        elif kind == "large":
            angles[i] += draw(st.sampled_from([-1, 1])) * draw(st.floats(1e-8, 1.0))
        elif kind != "kept":
            angles[i] = math.nan if kind == "nan" else draw(st.sampled_from([math.inf, -math.inf]))
    return angles


def _projectors(params) -> list:
    """The rank-1 projectors (M1, M2, N1, N2) onto the four kets of a POVM."""
    return [np.outer(k, np.conj(k)) for k in map(np.array, params._kets())]


class TestBuildPovm:
    def test_computational_endpoints(self):
        p = PovmParams.from_free(0.0, 0.0, 0.0, PI / 2)
        m1, m2, n1, n2 = _projectors(p)
        np.testing.assert_allclose(m1, np.diag([1, 0]), atol=1e-12)
        np.testing.assert_allclose(m2, np.diag([0, 1]), atol=1e-12)
        np.testing.assert_allclose(n1, np.diag([1, 0]), atol=1e-12)
        np.testing.assert_allclose(n2, np.diag([0, 1]), atol=1e-12)

    def test_x_basis_projectors(self):
        p = PovmParams(PI / 4, PI / 4, 0.0, PI, 0.0, PI / 2, 0.0, 0.0)
        m1, m2, _, _ = _projectors(p)
        np.testing.assert_allclose(m1, (IDENTITY_2 + PAULI_X) / 2, atol=1e-12)
        np.testing.assert_allclose(m2, (IDENTITY_2 - PAULI_X) / 2, atol=1e-12)

    def test_completeness_violation_rejected(self):
        with pytest.raises(ValueError, match="completeness"):
            PovmParams(PI / 4, PI / 3, 0.0, PI, 0.0, PI / 2, 0.0, 0.0)
        with pytest.raises(ValueError, match="completeness"):
            PovmParams(PI / 4, PI / 4, 0.0, PI / 2, 0.0, PI / 2, 0.0, 0.0)

    @pytest.mark.parametrize("build", [
        lambda: PovmParams(math.nan, math.nan, 0.0, 0.0, 0.0, PI / 2, 0.0, 0.0),
        lambda: PovmParams(PI / 4, PI / 4, math.nan, PI, 0.0, PI / 2, 0.0, 0.0),
        lambda: PovmParams(0.0, PI / 2, 0.0, 0.0, PI / 4, PI / 4, 0.0, math.nan),
        lambda: PovmParams.from_free(math.nan, 0.0, 0.0, 0.0),
        lambda: PovmParams.from_free(PI / 4, math.inf, 0.0, 0.0),
    ], ids=["nan-thetas", "nan-phi1", "nan-omega2", "from-free-nan-theta", "from-free-inf-phi"])
    def test_nan_angles_rejected(self, build):
        with pytest.raises(ValueError, match=r"must lie in \[0, pi/2\]|completeness"):
            build()

    @pytest.mark.parametrize("field", range(8))
    @pytest.mark.parametrize("bad", [True, np.True_, "0.1", None, 0.1j], ids=repr)
    def test_bool_or_non_number_angle_is_refused_naming_it(self, field, bad):
        """Each of the eight angles is refused by name when it is a bool or not a real number;
        True is not read as 1 nor "0.1" compared with a bound."""
        angles = [PI / 4, PI / 4, 0.0, PI, 0.0, PI / 2, 0.0, 0.0]
        name = ("theta1", "theta2", "phi1", "phi2", "lambda1", "lambda2", "omega1", "omega2")[field]
        angles[field] = bad
        with pytest.raises(TypeError, match=f"^{name} must be a number, got {re.escape(repr(bad))}$"):
            PovmParams(*angles)

    def test_integer_angles_are_numbers(self):
        assert PovmParams(0, np.int64(1) * PI / 2, 0, 3, 0, PI / 2, 0, 1).theta1 == 0

    @settings(max_examples=300, deadline=None)
    @given(angles=_perturbed_angles())
    def test_completeness_check_agrees_with_the_outer_product_oracle(self, angles):
        """The closed-form completeness check accepts and refuses what the sum of
        np.outer projectors did, near and far from complete, NaN and inf included."""
        in_range = all(-1e-12 <= angles[i] <= PI / 2 + 1e-12 for i in (0, 1, 4, 5))
        try:
            PovmParams(*angles)
            refused = None
        except ValueError as exc:
            refused = str(exc)
        if not in_range:
            assert refused is not None and "must lie in [0, pi/2]" in refused
        elif _outer_product_complete(angles):
            assert refused is None
        else:
            assert refused is not None and "completeness" in refused

    @settings(max_examples=100, deadline=None)
    @given(batch=st.lists(_perturbed_angles(), min_size=1, max_size=6))
    def test_batch_check_accepts_and_refuses_what_povm_params_does(self, batch):
        """The vectorised range and completeness check of random_valid_kets, row by row,
        against PovmParams.__post_init__, near and far from complete, NaN and inf included."""
        angles = np.array(batch)
        kets = _ket_array(angles)
        for angles_row, kets_row, accepted in zip(batch, kets, _accepted(angles, kets)):
            try:
                p = PovmParams(*angles_row)
            except ValueError:
                assert not accepted
            else:
                assert accepted and np.array_equal(kets_row, np.array(p._kets()))

    @pytest.mark.parametrize("seed, count", [(110, 1), (111, 200), (112, 1000)])
    def test_batch_draw_is_random_valid_draw_for_draw(self, seed, count):
        batch_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        kets = random_valid_kets(batch_rng, count)
        scalar = np.array([PovmParams.random_valid(scalar_rng)._kets() for _ in range(count)])
        assert kets.shape == (count, 4, 2) and np.array_equal(kets, scalar)
        assert batch_rng.random() == scalar_rng.random()

    def test_random_valid_satisfies_completeness(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            p = PovmParams.random_valid(rng)
            m1, m2, n1, n2 = _projectors(p)
            np.testing.assert_allclose(m1 + m2, IDENTITY_2, atol=1e-10)
            np.testing.assert_allclose(n1 + n2, IDENTITY_2, atol=1e-10)


class TestOutcomeProbability:
    def test_quarter_for_any_valid_params(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            p = PovmParams.random_valid(rng)
            axis = random_axis(rng)
            for j in (1, 2):
                for k in (1, 2):
                    assert outcome_probability(p, j, k, axis) == pytest.approx(0.25, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(free=st.lists(st.tuples(st.floats(0, PI / 2), st.floats(0, 2 * PI), st.floats(0, PI / 2),
                                   st.floats(0, 2 * PI)), min_size=1, max_size=6),
           direction=st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: math.hypot(*v) > 0.1))
    def test_batch_matches_the_dense_branch_maps(self, free, direction):
        """Each row of outcome_probabilities is |B_jk|^2 of the dense engine's step-1 maps,
        contracted here with <beta_j| and <gamma_k|, and the batch's maps are those maps.  The
        dense map has a unit column per basis target, the stator Tr(S^dag S) = 1, hence sqrt(2)."""
        params, axis = [PovmParams.from_free(*f) for f in free], PauliAxis.unit(*direction)
        kets = np.array([p._kets() for p in params])
        dense = _dense_step1(axis) / math.sqrt(2)
        maps, probs = _branch_maps(kets, _channel_map(axis)), outcome_probabilities(kets, axis)
        assert maps.shape == (len(params), 4, 4, 2) and probs.shape == (len(params), 4)
        for i, p in enumerate(params):
            for n, (j, k) in enumerate(((1, 1), (1, 2), (2, 1), (2, 2))):
                b = np.einsum("b,c,abcot->aot", kets[i, j - 1].conj(), kets[i, k + 1].conj(), dense).reshape(4, 2)
                np.testing.assert_allclose(maps[i, n], b, rtol=0, atol=1e-12)
                assert probs[i, n] == pytest.approx(np.sum(np.abs(b) ** 2), abs=1e-12)
                assert outcome_probability(p, j, k, axis) == probs[i, n]

    def test_channel_stator_equals_a_fresh_build(self):
        """An uncached _channel_map is the normalized step-1 stator's matrix, whose
        squared entries sum to Tr(S^dag S) = 1."""
        axis = PauliAxis.unit(1.0, 2.0, 3.0)
        _channel_map.cache_clear()
        w = _channel_map(axis)
        fresh = step1_stator(1, [axis]).normalize()
        np.testing.assert_array_equal(w, fresh.as_matrix().reshape(2, 2, 2, 2, 2))
        assert np.sum(np.abs(w) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_channel_map_cached_read_only(self):
        axis = PauliAxis.unit(3.0, -1.0, 2.0)
        w = _channel_map(axis)
        assert _channel_map(PauliAxis.unit(3.0, -1.0, 2.0)) is w
        assert not w.flags.writeable
        fresh = step1_stator(1, [axis]).normalize().as_matrix()
        np.testing.assert_array_equal(w, fresh.reshape(2, 2, 2, 2, 2))

    def test_dense_step1_cached_read_only(self):
        axis = PauliAxis.unit(-2.0, 1.0, 0.5)
        w = _dense_step1(axis)
        assert _dense_step1(PauliAxis.unit(-2.0, 1.0, 0.5)) is w
        assert not w.flags.writeable
        fresh = _dense_step1.__wrapped__(axis)
        np.testing.assert_array_equal(w, fresh)

    def test_four_outcomes_sum_to_one(self):
        rng = np.random.default_rng(102)
        p = PovmParams.random_valid(rng)
        total = sum(outcome_probability(p, j, k) for j in (1, 2) for k in (1, 2))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_trace_formula_oracle(self):
        # (1/8) Tr[I + sin(2 theta_j) sin(2 lambda_k) cos(phi_j) cos(omega_k) sigma]:
        # the cross term carries Tr(sigma_n) = 0, so the value is exactly 1/4
        rng = np.random.default_rng(103)
        p = PovmParams.random_valid(rng)
        axis = random_axis(rng)
        sigma = pauli_axis_matrix(axis)
        cross = math.sin(2 * p.theta1) * math.sin(2 * p.lambda1) * math.cos(p.phi1) * math.cos(p.omega1)
        oracle = (np.trace(IDENTITY_2) + cross * np.trace(sigma)).real / 8
        assert oracle == pytest.approx(0.25, abs=1e-12)
        assert outcome_probability(p, 1, 1, axis) == pytest.approx(oracle, abs=1e-10)

    def test_simulated_probabilities_follow_conditional_law(self):
        # conditioned on a specific target, the branch probability is
        # (1/4)(1 + sin2theta sin2lambda cosphi cosomega <sigma>); the
        # trace value 1/4 is the unknown-target average
        rng = np.random.default_rng(104)
        for _ in range(10):
            p = PovmParams.random_valid(rng)
            axis = random_axis(rng)
            psi = random_qubit(rng)
            sigma_exp = (psi.conj() @ pauli_axis_matrix(axis) @ psi).real
            probs = _simulated_probabilities(p, axis, psi)
            assert probs.sum() == pytest.approx(1.0, abs=1e-10)
            for (j, k), got in zip(((1, 1), (1, 2), (2, 1), (2, 2)), probs):
                th = p.theta1 if j == 1 else p.theta2
                ph = p.phi1 if j == 1 else p.phi2
                lm = p.lambda1 if k == 1 else p.lambda2
                om = p.omega1 if k == 1 else p.omega2
                law = 0.25 * (1 + math.sin(2 * th) * math.sin(2 * lm) * math.cos(ph) * math.cos(om) * sigma_exp)
                assert got == pytest.approx(law, abs=1e-10)

    def test_simulated_probabilities_flat_inside_realizable_families(self):
        rng = np.random.default_rng(119)
        for lam1 in (0.6, PI / 4):
            p = PovmParams(PI / 4, PI / 4, 0.0, PI, lam1, PI / 2 - lam1, PI / 2, 3 * PI / 2)
            probs = _simulated_probabilities(p, random_axis(rng), random_qubit(rng))
            np.testing.assert_allclose(probs, 0.25, atol=1e-10)

    def test_stator_probability_is_dense_average_over_basis_targets(self):
        # stator source and dense engine meet in the one branch-map contraction:
        # the target-averaged p(j,k) is the mean over |0> and |1>
        rng = np.random.default_rng(120)
        for _ in range(20):
            p = PovmParams.random_valid(rng)
            axis = random_axis(rng)
            dense = np.mean([_simulated_probabilities(p, axis, e) for e in np.eye(2)], axis=0)
            stator = [outcome_probability(p, j, k, axis) for j in (1, 2) for k in (1, 2)]
            np.testing.assert_allclose(stator, dense, rtol=0, atol=1e-12)

    def test_outcome_pair_out_of_range_rejected(self):
        p = PovmParams.random_valid(np.random.default_rng(121))
        for j, k in ((3, 1), (1, 0), (0, 3)):
            with pytest.raises(ValueError):
                outcome_probability(p, j, k)
            with pytest.raises(ValueError):
                simulate_branch(p, j, k, X_AXIS, np.array([1.0, 0.0]))

    def test_monte_carlo_frequency(self):
        # fresh Haar target per shot: the marginal is the a-priori flat 1/4
        rng = np.random.default_rng(105)
        p = PovmParams.random_valid(rng)
        counts = sample_outcomes(p, 100_000, seed=777, axis=random_axis(rng))
        assert counts.sum() == 100_000
        np.testing.assert_allclose(counts / 100_000, 0.25, atol=0.005)

    def test_pinned_target_sampling_follows_conditional_law(self):
        rng = np.random.default_rng(118)
        p = PovmParams.random_valid(rng)
        axis = random_axis(rng)
        psi = random_qubit(rng)
        law = _simulated_probabilities(p, axis, psi)
        counts = sample_outcomes(p, 100_000, seed=5, axis=axis, target_vec=psi)
        np.testing.assert_allclose(counts / 100_000, law, atol=0.006)


class TestBranchCoefficients:
    def test_double_zero_projectors(self):
        p = PovmParams.from_free(0.0, 0.0, 0.0, 0.0)
        c = branch_coefficients(p, 1, 1)
        assert c.as_tuple() == pytest.approx((1, 0, 0, 0))

    def test_quarter_angle_values(self):
        p = PovmParams(PI / 4, PI / 4, 0.0, PI, PI / 4, PI / 4, PI / 2, 3 * PI / 2)
        c = branch_coefficients(p, 1, 1)
        assert c.c00 == pytest.approx(0.5, abs=1e-12)
        assert c.c01 == pytest.approx(-0.5j, abs=1e-12)
        assert c.c10 == pytest.approx(0.5, abs=1e-12)
        assert c.c11 == pytest.approx(-0.5j, abs=1e-12)

    def test_normalization_identity(self):
        rng = np.random.default_rng(106)
        for _ in range(50):
            p = PovmParams.random_valid(rng)
            c = branch_coefficients(p, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            total = sum(abs(v) ** 2 for v in c.as_tuple())
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_matches_simulation_extraction(self):
        rng = np.random.default_rng(107)
        p = PovmParams.random_valid(rng)
        axis = random_axis(rng)
        for j, k in ((1, 1), (2, 1), (1, 2), (2, 2)):
            c = branch_coefficients(p, j, k)
            # measured stator: (1/2)[ |+>(c00 I + c11 s) + |->(c10 I + c01 s) ]
            # in the computational basis of the controller qubit, rows bit, columns word
            inv = 1 / (2 * math.sqrt(2))
            coeffs = inv * np.array([[c.c00 + c.c10, c.c11 + c.c01], [c.c00 - c.c10, c.c11 - c.c01]])
            # the dense branch map takes the target to the unnormalized (a1, O3) state
            expected = Stator(("a1",), (axis,), coeffs).as_matrix()
            np.testing.assert_allclose(_dense_maps(p, axis)[_pair_index(j, k)], expected, rtol=0, atol=1e-10)


class TestSeparability:
    def test_endpoint_family_angle_sets(self):
        rows = enumerate_case1(0.3, 1.1, "lambda1_zero")
        by_pair = {r.pair: r for r in rows}
        assert angle_sets_equal(by_pair[(1, 1)].alphas, (0.0, PI))
        assert angle_sets_equal(by_pair[(1, 2)].alphas, (PI / 2, 3 * PI / 2))
        assert angle_sets_equal(by_pair[(2, 1)].alphas, (0.0, PI))
        assert angle_sets_equal(by_pair[(2, 2)].alphas, (PI / 2, 3 * PI / 2))

    def test_quarter_pi_interior_row(self):
        rows = {r.pair: r for r in enumerate_case2(PI / 4)}
        r = rows[(1, 1)]
        assert r.coefficients.c10 == pytest.approx(0.5, abs=1e-12)
        assert r.coefficients.c01 == pytest.approx(-0.5j, abs=1e-12)
        assert angle_sets_equal(r.alphas, (3 * PI / 4, 7 * PI / 4))

    def test_bell_like_pattern_factorizes_without_rotation(self):
        # c01 = c10 = 0 with both c00, c11 nonzero: the controller qubit
        # separates but the residual I + sigma is not a rotation
        c = BranchCoefficients(1.0, 0.0, 0.0, 1.0)
        op = separability_check(c)
        assert op.realizable
        assert op.alphas == ()
        # Schmidt oracle on the explicit 2x8 matrix of |+>(c00 I + c11 s)|beta gamma>
        axis = X_AXIS
        sigma = pauli_axis_matrix(axis)
        plus = np.array([1, 1]) / math.sqrt(2)
        beta_gamma = np.kron(np.array([1, 0]), np.array([1, 0]))
        psi = np.array([0.6, 0.8])
        residual = (c.c00 * IDENTITY_2 + c.c11 * sigma) @ psi
        vec = np.kron(plus, np.kron(beta_gamma, residual))
        svals = np.linalg.svd(vec.reshape(2, 8), compute_uv=False)
        assert svals[1] <= 1e-12

    def test_cross_ratio_matches_schmidt_oracle(self):
        rng = np.random.default_rng(108)
        agree = 0
        trials = 0
        for _ in range(100):
            if rng.random() < 0.5:
                p = PovmParams.random_valid(rng)
            else:
                # inside the realizable family half the time
                p = PovmParams(PI / 4, PI / 4, 0.0, PI, 0.4, PI / 2 - 0.4, PI / 2, 3 * PI / 2)
            axis = random_axis(rng)
            j, k = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            flag = separability_check(branch_coefficients(p, j, k)).realizable
            sim = simulate_branch(p, j, k, axis, random_qubit(rng))
            trials += 1
            agree += int(flag == (sim.schmidt_ratio <= 1e-10))
        assert agree == trials

    def test_case2_rows_confirmed_by_simulation(self):
        rng = np.random.default_rng(109)
        axis = random_axis(rng)
        for lam1 in (0.6, PI / 4):
            for row in enumerate_case2(lam1):
                psi = random_qubit(rng)
                sim = simulate_branch(row.params, *row.pair, axis, psi)
                assert sim.probability == pytest.approx(0.25, abs=1e-10)
                assert sim.schmidt_ratio <= 1e-10
                matches = [
                    abs(abs(np.vdot(rotation(axis, a) @ psi, sim.target_factor)) - 1) < 1e-9
                    for a in row.alphas
                ]
                assert all(matches)


class TestCaseFamilies:
    def test_endpoint_block_coefficient_formulas(self):
        rng = np.random.default_rng(110)
        for _ in range(10):  # ten sampled points per free parameter
            theta1 = rng.uniform(0, PI / 2)
            phi1 = rng.uniform(0, 2 * PI)
            om1, om2 = rng.uniform(0, 2 * PI, 2)
            rows = {r.pair: r for r in enumerate_case1(theta1, phi1, "lambda1_zero", om1, om2)}
            theta2, phi2 = PI / 2 - theta1, (phi1 + PI) % (2 * PI)
            c = rows[(1, 1)].coefficients
            assert c.c00 == pytest.approx(math.cos(theta1), abs=1e-10)
            assert c.c10 == pytest.approx(np.exp(-1j * phi1) * math.sin(theta1), abs=1e-10)
            assert abs(c.c01) <= 1e-12 and abs(c.c11) <= 1e-12
            c = rows[(1, 2)].coefficients
            assert c.c01 == pytest.approx(np.exp(-1j * om2) * math.cos(theta1), abs=1e-10)
            assert c.c11 == pytest.approx(np.exp(-1j * (om2 + phi1)) * math.sin(theta1), abs=1e-10)
            assert angle_sets_equal(rows[(1, 2)].alphas, (PI / 2, 3 * PI / 2))
            c = rows[(2, 1)].coefficients
            assert c.c00 == pytest.approx(math.cos(theta2), abs=1e-10)
            assert c.c10 == pytest.approx(np.exp(-1j * phi2) * math.sin(theta2), abs=1e-10)
            c = rows[(2, 2)].coefficients
            assert c.c01 == pytest.approx(np.exp(-1j * om2) * math.cos(theta2), abs=1e-10)
            assert c.c11 == pytest.approx(np.exp(-1j * (om2 + phi2)) * math.sin(theta2), abs=1e-10)

    def test_endpoint_swapped_block(self):
        rows = {r.pair: r for r in enumerate_case1(0.3, 0.2, "lambda1_half_pi", 0.5, 1.5)}
        assert angle_sets_equal(rows[(1, 1)].alphas, (PI / 2, 3 * PI / 2))
        assert angle_sets_equal(rows[(1, 2)].alphas, (0.0, PI))
        assert angle_sets_equal(rows[(2, 2)].alphas, (0.0, PI))

    def test_endpoint_degenerate_theta(self):
        rows = {r.pair: r for r in enumerate_case1(0.0, 0.0, "lambda1_zero")}
        c = rows[(1, 1)].coefficients
        assert c.as_tuple() == pytest.approx((1, 0, 0, 0), abs=1e-12)
        assert angle_sets_equal(rows[(1, 1)].alphas, (0.0, PI))

    def test_interior_generic_angle_sets(self):
        rng = np.random.default_rng(111)
        for _ in range(10):
            lam1 = rng.uniform(0.05, PI / 2 - 0.05)
            if abs(lam1 - PI / 4) < 1e-3:
                continue
            rows = {r.pair: r for r in enumerate_case2(lam1)}
            lam2 = PI / 2 - lam1
            inv = math.sqrt(2) / 2
            c = rows[(1, 1)].coefficients
            assert c.c01 == pytest.approx(-1j * inv * math.sin(lam1), abs=1e-10)
            assert c.c10 == pytest.approx(inv * math.cos(lam1), abs=1e-10)
            assert rows[(1, 1)].K == pytest.approx(1.0, abs=1e-10)
            assert rows[(2, 1)].K == pytest.approx(-1.0, abs=1e-10)
            assert angle_sets_equal(rows[(1, 1)].alphas, (PI - lam1, 2 * PI - lam1))
            assert angle_sets_equal(rows[(1, 2)].alphas, (3 * PI / 2 - lam1, PI / 2 - lam1))
            assert angle_sets_equal(rows[(2, 1)].alphas, (lam1, lam1 + PI))
            assert angle_sets_equal(rows[(2, 2)].alphas, (lam1 + 3 * PI / 2, lam1 + PI / 2))
            c2 = rows[(2, 2)].coefficients
            assert c2.c01 == pytest.approx(1j * inv * math.sin(lam2), abs=1e-10)
            assert c2.c10 == pytest.approx(-inv * math.cos(lam2), abs=1e-10)

    def test_interior_endpoints_rejected(self):
        with pytest.raises(ValueError):
            enumerate_case2(0.0)
        with pytest.raises(ValueError):
            enumerate_case2(PI / 2)

    def test_lambda1_inverse_map(self):
        assert case2_lambda1_for_alpha(0.3) == pytest.approx(0.3)
        assert case2_lambda1_for_alpha(PI / 2 + 0.4) == pytest.approx(PI - (PI / 2 + 0.4))
        assert case2_lambda1_for_alpha(PI + 0.2) == pytest.approx(3 * PI / 2 - (PI + 0.2))
        assert case2_lambda1_for_alpha(3 * PI / 2 + 0.3) == pytest.approx(0.3)
        with pytest.raises(ValueError):
            case2_lambda1_for_alpha(PI / 2)

    @pytest.mark.parametrize("alpha", [PI / 2 - 1e-13, PI / 2 + 1e-13, 2 * PI - 1e-13, 1e-13, -1e-13, PI - 1e-13])
    def test_lambda1_map_refuses_both_sides_of_a_half_pi_multiple(self, alpha):
        with pytest.raises(ValueError, match="endpoint family"):
            case2_lambda1_for_alpha(alpha)

    def test_realizable_family_is_forced(self):
        """Random interior parameters admit a rotation-realizing branch only
        inside the theta=pi/4, phi in {0,pi}, omega in {pi/2,3pi/2} family.

        Vectorized counterexample search over 10^5 completeness-respecting
        draws with lambda_k strictly interior: none may realize a rotation
        outside the family (within 1e-8).
        """
        rng = np.random.default_rng(112)
        n = 100_000
        th1 = rng.uniform(1e-3, PI / 2 - 1e-3, n)
        ph1 = rng.uniform(0, 2 * PI, n)
        lm1 = rng.uniform(1e-3, PI / 2 - 1e-3, n)
        om1 = rng.uniform(0, 2 * PI, n)
        th = {1: th1, 2: PI / 2 - th1}
        ph = {1: ph1, 2: (ph1 + PI) % (2 * PI)}
        lm = {1: lm1, 2: PI / 2 - lm1}
        om = {1: om1, 2: (om1 + PI) % (2 * PI)}
        in_family = (
            (np.abs(th1 - PI / 4) < 1e-8)
            & (np.minimum(ph1 % PI, PI - ph1 % PI) < 1e-8)
            & (np.minimum(np.abs(om1 - PI / 2), np.abs(om1 - 3 * PI / 2)) < 1e-8)
        )
        for j in (1, 2):
            for k in (1, 2):
                c00 = np.cos(th[j]) * np.cos(lm[k])
                c01 = np.exp(-1j * om[k]) * np.cos(th[j]) * np.sin(lm[k])
                c10 = np.exp(-1j * ph[j]) * np.sin(th[j]) * np.cos(lm[k])
                c11 = np.exp(-1j * (om[k] + ph[j])) * np.sin(th[j]) * np.sin(lm[k])
                cross_ratio = np.abs(c00 * c01 - c11 * c10) <= 1e-8
                t = -1j * c01 / c10  # c10 never vanishes on the interior
                rotation_like = np.abs(t.imag) <= 1e-8 * np.maximum(1.0, np.abs(t))
                realizes = cross_ratio & rotation_like
                assert not np.any(realizes & ~in_family)

    def test_realizable_family_object_api_agrees(self):
        rng = np.random.default_rng(114)
        for _ in range(2000):
            p = PovmParams.random_valid(rng)
            if not (1e-3 < p.lambda1 < PI / 2 - 1e-3) or not (1e-3 < p.theta1 < PI / 2 - 1e-3):
                continue
            for j, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
                op = separability_check(branch_coefficients(p, j, k))
                if op.realizable and op.alphas:
                    assert abs(p.theta1 - PI / 4) < 1e-8
                    assert min(p.phi1 % PI, PI - p.phi1 % PI) < 1e-8
                    assert min(abs(p.omega1 - PI / 2), abs(p.omega1 - 3 * PI / 2)) < 1e-8


_FREE = st.floats(0, 2 * PI)
_OFF = 1e-3  # how far off-strata points stay from both strata


def _off(centres):
    """An angle in [0, 2pi) at least _OFF from every centre (taken mod 2pi)."""
    return _FREE.filter(lambda a: not angle_in_set(a, centres, _OFF))


@st.composite
def _povm_points(draw):
    """(kind, params): a point on the Z or X stratum, on the X stratum with no
    rotation, or at least _OFF off both strata."""
    kind = draw(st.sampled_from(["z", "x", "x_no_rotation", "off_theta", "off_phi"]))
    theta1, phi1 = draw(st.floats(0, PI / 2)), draw(_FREE)
    lambda1, omega1, omega2 = draw(st.floats(0, PI / 2)), draw(_FREE), draw(_FREE)
    interior = st.floats(_OFF, PI / 2 - _OFF)
    if kind == "z":
        lambda1 = draw(st.sampled_from([0.0, PI / 2]))  # omega2 stays free: gamma_2 is |0> or |1>
    elif kind in ("x", "x_no_rotation"):
        theta1, phi1 = PI / 4, draw(st.sampled_from([0.0, PI]))
        if kind == "x":
            omega1 = draw(st.sampled_from([PI / 2, 3 * PI / 2]))
        else:
            lambda1, omega1 = draw(interior), draw(_off((PI / 2, 3 * PI / 2)))
    else:
        lambda1 = draw(interior)
        if kind == "off_theta":
            theta1 = draw(st.floats(0, PI / 2).filter(lambda t: abs(t - PI / 4) >= _OFF))
        else:
            theta1, phi1 = PI / 4, draw(_off((0.0, PI)))
    if kind != "z":
        omega2 = (omega1 + PI) % (2 * PI)
    return kind, PovmParams(theta1, PI / 2 - theta1, phi1 % (2 * PI), (phi1 + PI) % (2 * PI),
                            lambda1, PI / 2 - lambda1, omega1, omega2)


class TestClassification:
    @settings(max_examples=200, deadline=None)
    @given(point=_povm_points())
    def test_separability_check_agrees_with_the_classification(self, point):
        kind, params = point
        predicted = classify_branches(params)
        ops = [separability_check(branch_coefficients(params, j, k)) for j in (1, 2) for k in (1, 2)]
        assert all(op.realizable == (kind not in ("off_theta", "off_phi")) for op in ops)
        for op, alphas in zip(ops, predicted):
            assert op.realizable == (alphas is not None)
            assert not op.realizable or angle_sets_equal(op.alphas, alphas)
        assert any(op.alphas for op in ops) == (kind in ("z", "x"))
        for alpha in {a for op in ops for a in op.alphas}:
            shared = sum(angle_in_set(alpha, op.alphas) for op in ops)
            assert shared <= MAX_SHARED_BRANCHES
            assert shared == 1 or angle_in_set(alpha, [m * PI / 4 for m in range(8)])


def _rebuilt_report(alpha: float) -> dict:
    """control_power_report's scan with every witness family built anew, the fourth only when reached."""
    families = [
        ("endpoint_lambda1_zero", lambda: enumerate_case1(PI / 4, 0.0, "lambda1_zero")),
        ("endpoint_lambda1_half_pi", lambda: enumerate_case1(PI / 4, 0.0, "lambda1_half_pi")),
        ("interior_lambda1_quarter_pi", lambda: enumerate_case2(PI / 4)),
        (None, lambda: enumerate_case2(case2_lambda1_for_alpha(alpha))),
    ]
    best = None
    for name, build in families:
        rows = build()
        name = name or f"interior_lambda1={rows[0].params.lambda1:.12g}"
        favorable = [list(row.pair) for row in rows if angle_in_set(alpha, row.alphas)]
        if best is None or len(favorable) > len(best[2]):
            best = (name, rows[0].params, favorable)
        if len(favorable) == MAX_SHARED_BRANCHES:
            break
    name, params, favorable = best
    return {"target_alpha": alpha % (2 * PI), "success_rate": len(favorable) / 4.0,
            "witness_params": {"family": name, **asdict(params)}, "favorable_branches": favorable}


class TestSuccessRate:
    def test_half_on_all_quarter_pi_multiples(self):
        for m in range(8):
            assert success_rate(m * PI / 4) == 0.5

    def test_quarter_on_generic_angles(self):
        rng = np.random.default_rng(113)
        for _ in range(20):
            alpha = rng.uniform(0, 2 * PI)
            if min(alpha % (PI / 4), PI / 4 - alpha % (PI / 4)) < 1e-6:
                continue
            assert success_rate(alpha) == 0.25

    def test_named_examples(self):
        assert success_rate(3 * PI / 4) == 0.5
        assert success_rate(0.7) == 0.25
        assert success_rate(0.0) == 0.5

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_rejected_by_name(self, alpha):
        with pytest.raises(ValueError, match="target_alpha must be finite"):
            success_rate(alpha)
        with pytest.raises(ValueError, match="target_alpha must be finite"):
            control_power_report(alpha)

    def test_report_equals_a_scan_that_rebuilds_every_family(self):
        """With the angle-free families built once, the report is the one a scan that builds
        all four witness families anew for each angle gives, on 4,096 sweep angles."""
        for m in range(4096):
            alpha = 2 * PI * m / 4096
            assert control_power_report(alpha) == _rebuilt_report(alpha)

    @pytest.mark.parametrize("alpha", [0.0, PI / 2, 3 * PI / 4, 0.7])
    def test_mutating_a_report_leaves_the_next_unchanged(self, alpha):
        first = control_power_report(alpha)
        expected = copy.deepcopy(first)
        first["witness_params"]["lambda1"] = -1.0
        first["witness_params"]["family"] = "mutated"
        first["favorable_branches"][0][0] = 9
        first["favorable_branches"].append([9, 9])
        assert control_power_report(alpha) == expected

    def test_report_carries_witness(self):
        rep = control_power_report(0.7)
        assert rep["success_rate"] == 0.25
        assert rep["witness_params"] is not None
        assert rep["favorable_branches"]


class TestGuessProbability:
    def test_endpoint_and_quarter_values(self):
        assert guess_probability(0.0) == pytest.approx(0.25)
        assert guess_probability(PI / 2) == pytest.approx(0.25)
        assert guess_probability(PI / 4) == pytest.approx(0.25)

    def test_generic_value(self):
        assert guess_probability(0.3) == pytest.approx(0.125)

    def test_duplicate_counting_oracle(self):
        # independent dedupe of the eight-candidate set
        for lam in (0.0, 0.3, PI / 4, 1.1, PI / 2):
            cands = [
                PI - lam, 2 * PI - lam, 3 * PI / 2 - lam, PI / 2 - lam,
                lam, lam + PI, lam + 3 * PI / 2, lam + PI / 2,
            ]
            distinct = set()
            for a in cands:
                a = round((a % (2 * PI)) / 1e-9) * 1e-9
                distinct.add(round(a % (2 * PI), 8))
            assert guess_probability(lam) == pytest.approx(1 / len(distinct))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            guess_probability(-0.1)
        with pytest.raises(ValueError):
            guess_probability(math.nan)

    def test_just_past_the_endpoints_clamps(self):
        assert guess_probability(PI / 2 + 1e-12) == 0.25
        assert guess_probability(-1e-12) == 0.25
