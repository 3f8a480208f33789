"""Control-power analysis: what the two operators can do without the controller.

Both non-controller parties of the tripartite channel apply two-outcome
rank-1 POVMs {|beta_j><beta_j|} and {|gamma_k><gamma_k|} to their channel
qubits, trying to cut the controller's qubit free.  Every outcome pair
occurs with probability 1/4; a branch implements a remote rotation only
when its four coefficients satisfy the cross-ratio condition and the
residual target operator is proportional to exp(i*alpha*sigma_n).
classify_branches says in closed form where both hold, which bounds what
the witness families of control_power_report can reach.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, lru_cache
import numpy as np

from .graphstate import CrioTopology, crio_channel_state
from .qcore import (
    PauliAxis,
    X_AXIS,
    apply_controlled_op,
    checked_int,
    is_real,
    pauli_axis_matrix,
    product_state,
    tensor,
)
from .protocol import step1_stator

TWO_PI = 2 * math.pi
ANGLE_TOL = 1e-9
COEFF_TOL = 1e-10  # relative size below which a branch coefficient counts as zero
FREE_BOUNDS = (math.pi / 2, TWO_PI, math.pi / 2, TWO_PI)  # upper ends of from_free's uniform draws


def _party_angles(angle, phase):
    """One party's (angle_1, angle_2, phase_1, phase_2) from its outcome-1 angle and
    phase: angle_2 = pi/2 - angle_1 and phase_2 = phase_1 + pi (mod 2pi), so the two
    kets resolve the identity.  Floats give floats and arrays arrays."""
    return angle, math.pi / 2 - angle, phase % TWO_PI, (phase + math.pi) % TWO_PI


def _ket(theta: float, phase: float) -> tuple:
    """cos(theta)|0> + e^{i phase} sin(theta)|1> as two Python complex numbers."""
    return complex(math.cos(theta)), cmath.exp(1j * phase) * math.sin(theta)


@dataclass(frozen=True)
class PovmParams:
    """Eight angles for the two rank-1 POVM pairs.

    First party: |beta_j> = cos(theta_j)|0> + e^{i phi_j} sin(theta_j)|1>,
    second party likewise with (lambda_k, omega_k).  Completeness forces
    theta2 = pi/2 - theta1 with phi2 = phi1 +/- pi (mod 2pi), and the same
    for the lambdas/omegas, except that the phase is free at the theta
    endpoints where sin or cos vanishes.
    """

    theta1: float
    theta2: float
    phi1: float
    phi2: float
    lambda1: float
    lambda2: float
    omega1: float
    omega2: float

    def __post_init__(self) -> None:
        for name, v in vars(self).items():  # the eight angles
            if not is_real(v):  # a NaN or inf angle is refused below, as a ValueError
                raise TypeError(f"{name} must be a number, got {v!r}")
        for name in ("theta1", "theta2", "lambda1", "lambda2"):
            v = getattr(self, name)
            if not -1e-12 <= v <= math.pi / 2 + 1e-12:  # a NaN angle fails this too
                raise ValueError(f"{name} must lie in [0, pi/2]")
        b1, b2, g1, g2 = self._kets()
        for m, (u0, u1), (v0, v1) in (("beta", b1, b2), ("gamma", g1, g2)):
            # the three distinct entries of |k1><k1| + |k2><k2| - I (the fourth is the third's conjugate)
            entries = (u0 * u0.conjugate() + v0 * v0.conjugate() - 1, u1 * u1.conjugate() + v1 * v1.conjugate() - 1,
                       u0 * u1.conjugate() + v0 * v1.conjugate())
            if not all(abs(e) <= 1e-10 for e in entries):  # so does a NaN phase
                raise ValueError(f"{m} kets do not satisfy POVM completeness within 1e-10")

    def _kets(self) -> tuple:
        """beta_1, beta_2, gamma_1 and gamma_2, each as two Python complex numbers."""
        return (_ket(self.theta1, self.phi1), _ket(self.theta2, self.phi2),
                _ket(self.lambda1, self.omega1), _ket(self.lambda2, self.omega2))

    @staticmethod
    def from_free(theta1: float, phi1: float, lambda1: float, omega1: float) -> "PovmParams":
        """Fill the complementary outcomes so completeness holds exactly."""
        return PovmParams(*_party_angles(theta1, phi1), *_party_angles(lambda1, omega1))

    @staticmethod
    def random_valid(rng: np.random.Generator) -> "PovmParams":
        theta, phi, lam, omega = FREE_BOUNDS  # four scalar draws beat one vector draw here
        return PovmParams.from_free(rng.uniform(0, theta), rng.uniform(0, phi), rng.uniform(0, lam),
                                    rng.uniform(0, omega))


def _ket_array(angles: np.ndarray) -> np.ndarray:
    """The kets of P POVMs from their (P, 8) angles in PovmParams field order, computed
    as _kets computes them: a (P, 4, 2) array of beta_1, beta_2, gamma_1, gamma_2."""
    theta, phase = np.moveaxis(angles.reshape(-1, 2, 2, 2), 2, 0).reshape(2, -1, 4)
    kets = np.empty(theta.shape + (2,), dtype=complex)
    with np.errstate(invalid="ignore"):  # an infinite angle gives a NaN entry, which _accepted refuses
        sin = np.sin(theta)
        kets[..., 0] = np.cos(theta)
        kets[..., 1].real = np.cos(phase) * sin
        kets[..., 1].imag = np.sin(phase) * sin
    return kets


def _accepted(angles: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Which of P POVMs, given by their angles and _ket_array kets, PovmParams accepts: each
    theta and lambda in [0, pi/2] and |k1><k1| + |k2><k2| within 1e-10 of I entrywise."""
    theta = angles[:, [0, 1, 4, 5]]
    in_range = np.all((theta >= -1e-12) & (theta <= math.pi / 2 + 1e-12), axis=1)
    pairs = kets.reshape(-1, 2, 2, 2)  # POVM, party, outcome, component
    gap = np.einsum("pmoa,pmob->pmab", pairs, pairs.conj()) - np.eye(2)
    return in_range & np.all(np.abs(gap) <= 1e-10, axis=(1, 2, 3))


def random_valid_kets(rng: np.random.Generator, count: int) -> np.ndarray:
    """The kets of `count` POVMs drawn as that many PovmParams.random_valid calls draw
    them, as one (count, 4, 2) array: the same doubles from one uniform call, which
    leaves `rng` in the same state, and from_free's angles, so each row equals that
    draw's _kets() bit for bit.  Every row passes the completeness check."""
    free = rng.uniform(0, FREE_BOUNDS, size=(count, 4))
    theta, phi, lam, omega = free.T
    angles = np.stack([*_party_angles(theta, phi), *_party_angles(lam, omega)], axis=1)
    kets = _ket_array(angles)
    refused = np.flatnonzero(~_accepted(angles, kets))
    if refused.size:
        raise ValueError(f"draw {refused[0]} does not satisfy POVM completeness within 1e-10")
    return kets


@dataclass(frozen=True)
class BranchCoefficients:
    """c_{s,t} = <beta_j|s><gamma_k|t>, the four amplitudes of the measured stator."""

    c00: complex
    c01: complex
    c10: complex
    c11: complex

    def as_tuple(self):
        return (self.c00, self.c01, self.c10, self.c11)


def _coefficients(kets: tuple, j: int, k: int) -> BranchCoefficients:  # kets as PovmParams._kets() gives them
    b0, b1 = (v.conjugate() for v in kets[j - 1])
    g0, g1 = (v.conjugate() for v in kets[k + 1])
    return BranchCoefficients(b0 * g0, b0 * g1, b1 * g0, b1 * g1)


def branch_coefficients(params: PovmParams, j: int, k: int) -> BranchCoefficients:
    _pair_index(j, k)  # refuses an outcome other than 1 or 2
    return _coefficients(params._kets(), j, k)


@dataclass(frozen=True)
class RealizedOperation:
    """Whether a branch frees the controller qubit and which rotations it enacts.

    realizable means the post-measurement state factorizes across the
    controller cut.  alphas lists every rotation angle in [0, 2pi) whose
    exp(i*alpha*sigma_n) is proportional to the residual target operator;
    the pair (alpha, alpha+pi) is always present together since the two
    differ by a global sign.  alphas is empty when the residual operator
    is not proportional to any rotation.
    """

    realizable: bool
    K: complex | None
    alphas: tuple


def angle_in_set(alpha: float, alphas, tol: float = ANGLE_TOL) -> bool:
    a = alpha % TWO_PI
    return any(min(abs(a - b), TWO_PI - abs(a - b)) <= tol for b in alphas)


def _rotation_angles(r0: complex, r1: complex) -> tuple:
    """Angles alpha with (r0, r1) proportional to (cos a, i sin a)."""
    m0, m1 = abs(r0), abs(r1)
    if m1 <= COEFF_TOL * max(1.0, m0):
        return (0.0, math.pi)
    if m0 <= COEFF_TOL * max(1.0, m1):
        return (math.pi / 2, 3 * math.pi / 2)
    t = -1j * r1 / r0
    if abs(t.imag) > 1e-9 * max(1.0, abs(t)):
        return ()
    a = math.atan(t.real) % TWO_PI
    return tuple(sorted((a, (a + math.pi) % TWO_PI)))


def separability_check(c: BranchCoefficients) -> RealizedOperation:
    """Cross-ratio test c00*c01 == c11*c10, then the realized rotation angles."""
    scale = max(abs(v) for v in c.as_tuple())
    if scale <= COEFF_TOL:
        return RealizedOperation(False, None, ())
    realizable = abs(c.c00 * c.c01 - c.c11 * c.c10) <= COEFF_TOL * max(1.0, scale * scale)
    if not realizable:
        return RealizedOperation(False, None, ())
    if abs(c.c10) > COEFF_TOL * scale:
        K = c.c00 / c.c10
    elif abs(c.c01) > COEFF_TOL * scale:
        K = c.c11 / c.c01
    else:
        K = None
    if max(abs(c.c10), abs(c.c01)) > COEFF_TOL * scale:
        r0, r1 = c.c10, c.c01
    else:
        r0, r1 = c.c00, c.c11
    return RealizedOperation(True, K, _rotation_angles(r0, r1))


MAX_SHARED_BRANCHES = 2  # most branches of one POVM enacting one angle (classify_branches)


def classify_branches(params: PovmParams) -> tuple:
    """What each branch enacts, from the closed-form classification of the
    realizable POVM pairs, ordered (1,1), (1,2), (2,1), (2,2): None where
    the branch is not realizable, else its rotation angles in [0, 2pi),
    empty when it enacts none.

    Derivation.  With |beta> = (b0, b1) and |gamma> = (g0, g1) the branch
    coefficients are c_st = conj(b_s) conj(g_t), so the cross ratio is

        c00 c01 - c11 c10 = conj(g0 g1) (conj(b0)^2 - conj(b1)^2).

    g0 g1 = cos(lambda) sin(lambda) e^{i omega} vanishes exactly when
    lambda is 0 or pi/2, and b0^2 - b1^2 = cos^2(theta) - e^{2i phi} sin^2(theta)
    exactly when theta = pi/4 and phi is 0 or pi.  Completeness
    (lambda2 = pi/2 - lambda1, theta2 = pi/2 - theta1, phi2 = phi1 + pi)
    carries each condition from one outcome to the other, so either all
    four branches are realizable or none is, and they are exactly when
    the POVMs lie on one of two strata:

    Z stratum, lambda1 in {0, pi/2}: the second party measures Z.  A
      branch with lambda_k = 0 keeps only (c00, c10) and enacts {0, pi};
      one with lambda_k = pi/2 keeps (c01, c11) and enacts {pi/2, 3pi/2}.
      Two branches enact each pair.
    X stratum, theta1 = pi/4 with phi1 in {0, pi}: the first party
      measures X.  With s_j = e^{i phi_j} = +-1, the branch enacts
      exp(i alpha sigma_n) when tan(alpha) = -i c01 / c10
      = -i s_j e^{-i omega_k} tan(lambda_k) is real.  Off the Z stratum that
      holds exactly when omega1 is pi/2 or 3pi/2; otherwise the branch
      factorizes but enacts no rotation.  Writing e^{-i omega_k} = -i w_k
      with w_k = sin(omega_k) = +-1, branch (j, k) enacts
      alpha = -s_j w_k lambda_k, that is +-lambda_k mod pi.

    So no angle is enacted on more than two branches.  On the X stratum the
    four pairs +-lambda1, +-lambda2 mod pi are distinct unless lambda1 is
    0, pi/4 or pi/2, where they coincide two by two on multiples of pi/4; on
    the Z stratum the two pairs are multiples of pi/2.  Hence no angle off
    the pi/4 multiples is enacted on more than one branch, and as every
    branch occurs with probability 1/4, a rotation succeeds without the
    controller with probability at most 1/2 on multiples of pi/4 and 1/4
    elsewhere.
    """
    on_z = angle_in_set(params.lambda1, (0.0, math.pi / 2))
    on_x = abs(params.theta1 - math.pi / 4) <= ANGLE_TOL and angle_in_set(params.phi1, (0.0, math.pi))
    if not (on_z or on_x):
        return (None,) * 4
    rotates_x = on_x and angle_in_set(params.omega1, (math.pi / 2, 3 * math.pi / 2))
    if not (on_z or rotates_x):
        return ((),) * 4
    # branch (j, k) has sign -s_j w_k, and completeness gives s_2 = -s_1, w_2 = -w_1;
    # on the Z stratum alone the sign is moot, as +-lambda_k agree mod pi there
    sign = -round(math.cos(params.phi1) * math.sin(params.omega1)) if rotates_x else 1
    branches = []
    for j in (1, 2):
        for k, lam in ((1, params.lambda1), (2, params.lambda2)):
            a = (sign * (-1) ** (j + k) * lam) % math.pi
            branches.append((a, a + math.pi))
    return tuple(branches)


# ----------------------------------------------------------------------
# outcome probabilities

@lru_cache(maxsize=64)
def _channel_map(axis: PauliAxis) -> np.ndarray:
    """The step-1 stator of the tripartite channel, scaled to Tr(S^dag S) = 1, as
    the map _branch_maps takes, axes (a1, a2, a3, O3, target).  Cached per axis,
    since outcome_probability asks for it on every call; the shared array is
    read-only."""
    w = step1_stator(1, [axis]).normalize().as_matrix().reshape(2, 2, 2, 2, 2)
    w.flags.writeable = False
    return w


def _branch_maps(kets: np.ndarray, step1: np.ndarray) -> np.ndarray:
    """The 4x2 branch maps B_jk of P POVMs, (P, 4, 4, 2), ordered (1,1), (1,2), (2,1), (2,2).

    `kets` holds each POVM's beta_1, beta_2, gamma_1 and gamma_2 as a (P, 4, 2)
    array, `step1` is a step-1 channel written as a linear map of the target, with
    axes (a1, a2, a3, O3, target).  Contracting a2 with <beta_j| and a3 with
    <gamma_k| leaves B_jk, which takes a target ket to the unnormalized
    (a1, O3) branch state; |B_jk psi|^2 is that branch's probability.  The
    contraction runs pairwise in a fixed order, beta first, which beats one
    three-operand einsum and needs no path search.
    """
    bra = kets.conj()
    half = np.einsum("pjb,abcot->pjaoct", bra[:, :2], step1)
    return np.einsum("pkc,pjaoct->pjkaot", bra[:, 2:], half).reshape(-1, 4, 4, 2)


def _pair_index(j: int, k: int) -> int:
    """Position of outcome pair (j, k) in the branch-map order."""
    if j not in (1, 2) or k not in (1, 2):
        raise ValueError("j and k must be 1 or 2")
    return 2 * (j - 1) + (k - 1)


def outcome_probability(params: PovmParams, j: int, k: int, axis: PauliAxis = X_AXIS) -> float:
    """p(j,k) = Tr[ W^dag (I (x) M_j (x) N_k) W ]; equals 1/4 for any valid POVM.

    This is the a-priori probability for an unknown target state (the
    trace averages the target); sigma_n being traceless kills the cross
    term.  Conditioned on a specific target the branch probability is
    (1/4)(1 + sin(2 theta_j) sin(2 lambda_k) cos(phi_j) cos(omega_k) <sigma_n>),
    which is flat for every target exactly inside the realizable families.
    With rank-1 effects the trace is |B_jk|^2 on the stator's W.
    """
    return float(outcome_probabilities(np.array([params._kets()]), axis)[0, _pair_index(j, k)])


def outcome_probabilities(kets: np.ndarray, axis: PauliAxis = X_AXIS) -> np.ndarray:
    """outcome_probability of every outcome pair of P POVMs given by their (P, 4, 2)
    kets (random_valid_kets, or stacked PovmParams._kets()), a (P, 4) array ordered
    (1,1), (1,2), (2,1), (2,2) per POVM, from one contraction."""
    b = _branch_maps(kets, _channel_map(axis)).reshape(-1, 4, 8)
    return np.einsum("pjs,pjs->pj", b.conj(), b).real


@lru_cache(maxsize=64)
def _dense_step1(axis: PauliAxis) -> np.ndarray:
    """The step-1 channel from the dense engine, axes (a1, a2, a3, O3, target):
    the tripartite channel state with each basis target attached, after the
    controlled sigma_n from a3 onto O3.  Cached per axis like _channel_map; the
    shared array is read-only."""
    channel = crio_channel_state(CrioTopology(1))
    columns = []
    for basis_target in np.eye(2, dtype=complex):
        state = tensor(channel, product_state(["O3"], [basis_target]))
        columns.append(apply_controlled_op(state, "a3", "O3", pauli_axis_matrix(axis)).tensor_view())
    w = np.stack(columns, axis=-1)
    w.flags.writeable = False
    return w


def _dense_maps(params: PovmParams, axis: PauliAxis) -> np.ndarray:
    """The (4, 4, 2) branch maps of one POVM on the dense engine's step-1 channel."""
    return _branch_maps(np.array([params._kets()]), _dense_step1(axis))[0]


@dataclass
class PovmBranchSim:
    probability: float
    schmidt_ratio: float       # second/first singular value across the controller cut
    target_factor: np.ndarray | None


def simulate_branch(params: PovmParams, j: int, k: int, axis: PauliAxis, target_vec) -> PovmBranchSim:
    """Project the prepared state onto (|beta_j>, |gamma_k>) and analyze the cut."""
    psi = product_state(["O3"], [target_vec]).amplitudes
    branch = _dense_maps(params, axis)[_pair_index(j, k)] @ psi
    p = float(np.vdot(branch, branch).real)
    if p < 1e-15:
        return PovmBranchSim(0.0, 0.0, None)
    _, s, vh = np.linalg.svd(branch.reshape(2, 2) / math.sqrt(p))  # rows a1, columns O3
    ratio = float(s[1] / s[0]) if s[0] > 0 else 0.0
    return PovmBranchSim(
        probability=p,
        schmidt_ratio=ratio,
        target_factor=vh[0] if ratio <= 1e-10 else None,
    )


def sample_outcomes(
    params: PovmParams,
    n_samples: int,
    seed: int,
    axis: PauliAxis = X_AXIS,
    target_vec=None,
) -> np.ndarray:
    """Monte-Carlo outcome counts over the four (j,k) pairs.

    With no pinned target a fresh Haar-random target is drawn for every
    shot, matching the unknown-state setting in which the a-priori outcome
    distribution is flat at 1/4.  A pinned target samples its conditional
    distribution instead.
    """
    n_samples = checked_int(n_samples, "n_samples", low=0)
    rng = np.random.default_rng(checked_int(seed, "seed", low=0))
    maps = _dense_maps(params, axis)
    if target_vec is not None:
        probs = np.sum(np.abs(maps @ product_state(["O3"], [target_vec]).amplitudes) ** 2, axis=1)
        return rng.multinomial(n_samples, probs / probs.sum())
    psi = rng.normal(size=(2, n_samples)) + 1j * rng.normal(size=(2, n_samples))
    psi /= np.linalg.norm(psi, axis=0)
    probs = np.sum(np.abs(maps @ psi) ** 2, axis=1)  # (4, n)
    probs /= probs.sum(axis=0)
    draws = rng.random(n_samples)
    outcome_index = (draws >= np.cumsum(probs, axis=0)).sum(axis=0)
    return np.bincount(outcome_index, minlength=4)


# ----------------------------------------------------------------------
# the two solution families

@dataclass(frozen=True)
class PovmTableRow:
    pair: tuple                      # (j, k)
    params: PovmParams
    K: complex | None
    coefficients: BranchCoefficients
    alphas: tuple


def _family_rows(params: PovmParams) -> list:
    """One table row per outcome pair (j, k) of a POVM family."""
    kets, rows = params._kets(), []
    for j, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
        c = _coefficients(kets, j, k)
        op = separability_check(c)
        rows.append(PovmTableRow((j, k), params, op.K, c, op.alphas))
    return rows


def enumerate_case1(
    theta1: float,
    phi1: float,
    charlie_choice: str = "lambda1_zero",
    omega1: float = 0.0,
    omega2: float = 0.0,
):
    """The endpoint family: one POVM is the computational-basis measurement.

    charlie_choice 'lambda1_zero' puts (lambda1, lambda2) = (0, pi/2);
    'lambda1_half_pi' swaps them.  Realizable rotations are the multiples
    of pi/2, each pair of branches giving {0, pi} or {pi/2, 3pi/2}.
    """
    if charlie_choice == "lambda1_zero":
        lam1, lam2 = 0.0, math.pi / 2
    elif charlie_choice == "lambda1_half_pi":
        lam1, lam2 = math.pi / 2, 0.0
    else:
        raise ValueError("charlie_choice must be 'lambda1_zero' or 'lambda1_half_pi'")
    return _family_rows(PovmParams(*_party_angles(theta1, phi1), lam1, lam2, omega1 % TWO_PI, omega2 % TWO_PI))


def enumerate_case2(lambda1: float):
    """The interior family: theta = pi/4, phases (0, pi) and (pi/2, 3pi/2).

    Requires lambda1 strictly inside (0, pi/2); the endpoints belong to
    the endpoint family.  Branch (j, k) realizes the pair
    (-1)^(j+k+1) lambda_k mod pi (classify_branches).
    """
    if not (1e-12 < lambda1 < math.pi / 2 - 1e-12):
        raise ValueError("lambda1 must lie strictly inside (0, pi/2)")
    return _family_rows(PovmParams.from_free(math.pi / 4, 0.0, lambda1, math.pi / 2))


def case2_lambda1_for_alpha(alpha: float) -> float:
    """Which lambda1 the second party must request to reach a generic alpha."""
    a = alpha % TWO_PI
    r = a % (math.pi / 2)
    if min(r, math.pi / 2 - r) < 1e-12:
        raise ValueError("multiples of pi/2 are covered by the endpoint family")
    if 0 < a < math.pi / 2:
        return a
    if math.pi / 2 < a < math.pi:
        return math.pi - a
    if math.pi < a < 3 * math.pi / 2:
        return 3 * math.pi / 2 - a
    return a - 3 * math.pi / 2


@cache
def _fixed_families() -> tuple:
    """The witness families that do not depend on the angle, built once per process."""
    return (("endpoint_lambda1_zero", tuple(enumerate_case1(math.pi / 4, 0.0, "lambda1_zero"))),
            ("endpoint_lambda1_half_pi", tuple(enumerate_case1(math.pi / 4, 0.0, "lambda1_half_pi"))),
            ("interior_lambda1_quarter_pi", tuple(enumerate_case2(math.pi / 4))))


def _witness_families(target_alpha: float):
    """(name, rows) of the families control_power_report scans, in order.

    The Z-stratum families enact every multiple of pi/2 on two branches, the
    interior family at pi/4 every odd multiple of pi/4 on two, and the one at
    case2_lambda1_for_alpha any other angle on one.  The last is built for
    each angle, and only off the multiples of pi/2, where that map is defined.
    """
    yield from _fixed_families()
    lam1 = case2_lambda1_for_alpha(target_alpha)
    yield f"interior_lambda1={lam1:.12g}", enumerate_case2(lam1)


def success_rate(target_alpha: float) -> float:
    """Best achievable probability of enacting exp(i*alpha*sigma_n) controller-free.

    The most branches enacting alpha in one realizable POVM, over 4 (each
    branch occurs with probability 1/4).  classify_branches proves the
    bound: 1/2 on multiples of pi/4 and 1/4 elsewhere, and the witness
    families of control_power_report reach it.
    """
    return control_power_report(target_alpha)["success_rate"]


def guess_probability(lambda1: float) -> float:
    """Second party's chance of guessing the rotation angle from its POVM choice.

    One over the number of distinct angles that the rows of the interior
    family with this lambda1 enact: four at lambda1 in {0, pi/4, pi/2},
    eight otherwise.
    """
    if not -1e-12 <= lambda1 <= math.pi / 2 + 1e-12:
        raise ValueError("lambda1 must lie in [0, pi/2]")
    distinct: list = []
    lam1 = min(max(float(lambda1), 0.0), math.pi / 2)
    for row in _family_rows(PovmParams.from_free(math.pi / 4, 0.0, lam1, math.pi / 2)):
        distinct += [a for a in row.alphas if not angle_in_set(a, distinct)]
    return 1.0 / len(distinct)


def control_power_report(target_alpha: float) -> dict:
    """Machine-readable summary for one target rotation angle.

    The witness is the first family of _witness_families with the most
    branches enacting the angle, read from each row's computed alphas; the
    scan stops at the proven maximum of MAX_SHARED_BRANCHES.
    """
    if not is_real(target_alpha):  # a bool too: True would run as 1.0
        raise TypeError(f"target_alpha must be a number, got {target_alpha!r}")
    if not math.isfinite(target_alpha):
        raise ValueError(f"target_alpha must be finite, got {target_alpha!r}")
    best = None
    for name, rows in _witness_families(target_alpha):
        favorable = [list(row.pair) for row in rows if angle_in_set(target_alpha, row.alphas)]
        if best is None or len(favorable) > len(best[2]):
            best = (name, rows[0].params, favorable)
        if len(favorable) == MAX_SHARED_BRANCHES:
            break
    name, p, favorable = best
    return {
        "target_alpha": target_alpha % TWO_PI,
        "success_rate": len(favorable) / 4.0,
        "witness_params": {"family": name, **vars(p)},  # the eight angle fields; asdict deep-copies them
        "favorable_branches": favorable,
    }
