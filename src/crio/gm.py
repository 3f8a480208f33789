"""Geometric measure of entanglement via closest-product-state search.

Lambda^2 is the maximal squared overlap with a pure product state and
G = -log2(Lambda^2).  For non-negative states the closest product state
can itself be chosen non-negative, so the search runs over per-qubit
angles theta in [0, pi/2] only; general mode adds a relative phase per
qubit.  The ascent updates one qubit at a time in closed form: the phase
aligns with its environment and theta = atan2(|env_1|, |env_0|), the
alternating higher-order power method (De Lathauwer, De Moor & Vandewalle,
SIAM J. Matrix Anal. Appl. 21, 2000), from random starts drawn in one call
and swept as rows of one array, whose qubit vectors carry over from one
sweep to the next instead of being rebuilt.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graphstate import CrioTopology, crio_channel_state, phi_state
from .qcore import HADAMARD, QuantumState, apply_1q, checked_int

OBJECTIVE_TOL = 1e-8  # a restart stops when a sweep gains under a tenth of it
MAX_SWEEPS = 300      # per restart
BLOCK_AMPLITUDES = 1 << 16  # restarts swept together hold about this many amplitudes
MAX_RESTARTS = 100_000  # refused above: the (R, 1 or 2, n) start array and R best values all stay in memory


@dataclass
class ProductAnsatz:
    """Per-qubit product state cos(theta)|0> + e^{i phi} sin(theta)|1>."""

    thetas: np.ndarray
    phis: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.thetas = np.asarray(self.thetas, dtype=float).reshape(-1)
        if self.phis is not None:
            self.phis = np.asarray(self.phis, dtype=float).reshape(-1)
            if self.phis.shape != self.thetas.shape:
                raise ValueError("phis must match thetas in length")
        elif np.any(self.thetas < -1e-12) or np.any(self.thetas > math.pi / 2 + 1e-12):
            raise ValueError("non-negative mode keeps every theta in [0, pi/2]")
        if not (np.isfinite(self.thetas).all() and (self.phis is None or np.isfinite(self.phis).all())):
            raise ValueError("thetas and phis must be finite")  # NaN passes the range check above

    @property
    def num_qubits(self) -> int:
        return len(self.thetas)

    def qubit_vectors(self) -> list:
        angles = np.stack([self.thetas] if self.phis is None else [self.thetas, self.phis])
        return list(_bra(angles[None])[0].conj().astype(complex))


@dataclass
class GMResult:
    lambda_sq: float
    G: float
    argmax: ProductAnsatz
    restarts_used: int
    converged: bool
    history: list = field(default_factory=list)  # best objective per sweep of the winner

    def to_json_dict(self) -> dict:
        return {
            "lambda_sq": self.lambda_sq,
            "G": self.G,
            "argmax_thetas": [float(t) for t in self.argmax.thetas],
            "argmax_phis": [float(p) for p in self.argmax.phis] if self.argmax.phis is not None else None,
            "restarts": self.restarts_used,
            "converged": self.converged,
        }


def overlap(state: QuantumState, ansatz: ProductAnsatz) -> complex:
    """<product(ansatz)|state>."""
    if ansatz.num_qubits != state.num_qubits:
        raise ValueError("ansatz arity must match the qubit count")
    t = state.tensor_view()
    for v in reversed(ansatz.qubit_vectors()):
        t = np.tensordot(t, v.conj(), axes=([t.ndim - 1], [0]))
    return complex(t)


def hadamard_reduce(state: QuantumState, qubits: Sequence[str]) -> QuantumState:
    """Apply H on each listed qubit (a local-unitary move, GM-preserving)."""
    for q in qubits:
        state = apply_1q(state, HADAMARD, q)
    return state


def nonneg_reduction_qubits(n_systems: int) -> list:
    """Qubits whose Hadamards turn the channel state non-negative: the controller's colour class."""
    return [f"a{v}" for v in CrioTopology(n_systems).colour_class]


def reduce_channel_state(n_systems: int) -> QuantumState:
    return hadamard_reduce(crio_channel_state(CrioTopology(n_systems)), nonneg_reduction_qubits(n_systems))


# ----------------------------------------------------------------------
# optimizer

def _bra(angles: np.ndarray) -> np.ndarray:
    """(cos theta, e^{-i phi} sin theta) on a new last axis, for rows (b, 1 or 2, ...) of thetas[, phis]."""
    sin = np.sin(angles[:, 0]) if angles.shape[1] == 1 else np.sin(angles[:, 0]) * np.exp(-1j * angles[:, 1])
    return np.stack([np.cos(angles[:, 0]), sin], axis=-1)  # real without phases


def _ascend(psi: np.ndarray, angles: np.ndarray) -> tuple:
    """Sweep restarts, rows of `angles` (b, 1 or 2, n), in place until each gains
    under OBJECTIVE_TOL/10 in a sweep; return their best values and histories.
    A sweep builds the right products of the conjugated vectors from the last
    qubit back, then walks a left partial forward from the state: qubit j's
    environment is its contraction with right[j], and it then absorbs the new
    vector, so after the last qubit it is the sweep's overlap.  Qubit 0 reads
    the state itself, shared by every row.  The vectors `bra` are built once,
    from the start points, and each update rewrites a qubit's column, so the
    next sweep starts from them; a row that stops leaves `bra`, the working
    angles `ang` and `active` together, and every sweep writes `ang` back
    into `angles`."""
    general, n = angles.shape[1] == 2, angles.shape[2]
    psi = psi if n else np.broadcast_to(psi, (len(angles), 1))  # no qubit: every row's overlap is psi[0]
    active, ang, bra = np.arange(len(angles)), angles.copy(), _bra(angles)
    # set by the start points' overlap at j == 0 (a zero-qubit state has none; its first sweep sets them)
    best, histories = np.full(len(angles), -np.inf), [[] for _ in angles]
    for sweep in range(MAX_SWEEPS):
        right = [np.ones((len(bra), 1))]
        for j in range(n - 1, 0, -1):
            right.insert(0, (bra[:, j, :, None] * right[0][:, None]).reshape(len(bra), -1))
        amp = psi
        for j in range(n):
            left, rows = (amp.reshape(len(amp), 2, -1), "bak") if j else (psi.reshape(2, -1), "ak")
            env = np.einsum(f"{rows},bk->ba", left, right[j])
            if sweep == 0 and j == 0:
                best = np.abs(np.einsum("ba,ba->b", bra[:, 0], env)) ** 2
                histories = [[v] for v in best.tolist()]
            mag = np.abs(env)
            # (m0 cos + m1 sin)^2 peaks where (cos, sin) is parallel to (m0, m1)
            ang[:, 0, j] = theta = np.arctan2(mag[:, 1], mag[:, 0])
            bra[:, j, 0], sin = np.cos(theta), np.sin(theta)
            if general:  # the phase of env_1 over env_0, kept where either vanishes
                phase, ok = np.arctan2(env.imag, env.real), np.minimum(mag[:, 0], mag[:, 1]) > 1e-300
                np.copyto(ang[:, 1, j], (phase[:, 1] - phase[:, 0]) % (2 * math.pi), where=ok)
                sin = sin * np.exp(-1j * ang[:, 1, j])
            bra[:, j, 1] = sin  # _bra of qubit j's new angles, written in place
            amp = np.einsum(f"ba,{rows}->bk", bra[:, j], left)
        value, prev = np.abs(amp[:, 0]) ** 2, best[active]
        if np.any(value < prev - 1e-9):
            raise RuntimeError("coordinate ascent decreased the objective")
        for r, v in zip(active.tolist(), value.tolist()):
            histories[r].append(v)
        best[active], angles[active] = np.maximum(prev, value), ang
        active, ang, bra = active[keep := value - prev >= OBJECTIVE_TOL / 10], ang[keep], bra[keep]
        if not active.size:
            break
    return best, histories


def gm_optimize(state: QuantumState, mode: str = "nonneg", restarts: int = 64, seed: int = 0) -> GMResult:
    """Multi-start coordinate ascent maximizing |<product|state>|^2.  Restarts
    sweep in blocks of max(1, BLOCK_AMPLITUDES >> n) rows; no row depends on its block."""
    if mode not in ("nonneg", "general"):
        raise ValueError("mode must be 'nonneg' or 'general'")
    restarts = checked_int(restarts, "restarts", 1, MAX_RESTARTS)  # an int: the report writes it as a JSON number
    seed = checked_int(seed, "seed", low=0)
    amps = state.amplitudes
    if mode == "nonneg" and (np.max(np.abs(amps.imag)) > 1e-12 or np.min(amps.real) < -1e-12):
        raise ValueError("non-negative mode needs a non-negative state; reduce it first")
    n = state.num_qubits
    rng = np.random.default_rng(seed)
    highs = (math.pi / 2, 2 * math.pi) if mode == "general" else (math.pi / 2,)
    # one draw in C order: each restart's angles, then its phases, so a seed keeps its start points
    starts = rng.uniform(0.0, np.array(highs)[:, None], size=(restarts, len(highs), n))
    block = max(1, BLOCK_AMPLITUDES >> n)
    best, leader = np.empty(restarts), None  # leader: the key of the running winner, row `win`
    for lo in range(0, restarts, block):
        values, histories = _ascend(amps.real if mode == "nonneg" else amps, starts[lo : lo + block])
        best[lo : lo + len(values)] = values
        key = list(zip((-values).tolist(), np.round(starts[lo : lo + block, 0], 12).tolist()))
        lead = min(range(len(key)), key=key.__getitem__)  # ties go to the smaller final angles, then the earlier row
        if leader is None or key[lead] < leader:
            leader, win, history = key[lead], lo + lead, histories[lead]
    converged = bool(restarts > 1 and best[win] - np.partition(best, -2)[-2] <= OBJECTIVE_TOL)  # the runner-up's value
    lam_sq = min(float(best[win]), 1.0 + 1e-12)
    argmax = ProductAnsatz(starts[win, 0], starts[win, 1] if mode == "general" else None)
    return GMResult(lam_sq, -math.log2(lam_sq) if lam_sq > 0 else math.inf, argmax, restarts, converged, history)


# ----------------------------------------------------------------------
# closed form for the reduced channel state

def closed_form_overlap(n_systems: int, thetas: Sequence[float]) -> float:
    """Product-state overlap with the non-negative reduced channel state.

    (1/sqrt(2^{N+1})) [cos(t1) prod_{t=2..N+1} cos(t_t - t_{t+N})
                       + sin(t1) prod_{s=2..N+1} sin(t_s + t_{s+N})]
    with the whole bracket under the prefactor; cross-checked against the
    exact inner product in the tests.
    """
    n_systems = checked_int(n_systems, "n_systems", low=1)
    t = np.asarray(thetas, dtype=float).reshape(-1)
    if t.shape != (2 * n_systems + 1,):
        raise ValueError(f"need {2 * n_systems + 1} angles")
    if np.any(t < -1e-12) or np.any(t > math.pi / 2 + 1e-12):
        raise ValueError("angles must lie in [0, pi/2]")
    q = np.concatenate(([0.0], t))  # 1-based
    cos_prod = np.prod([math.cos(q[i] - q[i + n_systems]) for i in range(2, n_systems + 2)])
    sin_prod = np.prod([math.sin(q[i] + q[i + n_systems]) for i in range(2, n_systems + 2)])
    return (math.cos(q[1]) * cos_prod + math.sin(q[1]) * sin_prod) / math.sqrt(2 ** (n_systems + 1))


def gm_channel_family(n_systems: int, restarts: int = 64, seed: int = 0) -> GMResult:
    """GM of the (2N+1)-qubit channel state, via its non-negative reduction."""
    return gm_optimize(reduce_channel_state(n_systems), mode="nonneg", restarts=restarts, seed=seed)


def gm_phi(n_systems: int, restarts: int = 64, seed: int = 0) -> GMResult:
    """GM of the controller-free 2N-qubit resource state (already non-negative)."""
    return gm_optimize(phi_state(n_systems), mode="nonneg", restarts=restarts, seed=seed)


def gm_report_dict(state_id: str, n_systems: int, result: GMResult) -> dict:
    return {"state_id": state_id, "N": n_systems, **result.to_json_dict()}


def entanglement_table_rows(n_max: int, restarts: int = 48, seed: int = 0):
    """Rows (N, channel state id, GM, reference state id, GM) for both families."""
    return [(n, f"h{2 * n + 1}", gm_channel_family(n, restarts=restarts, seed=seed).G,
             f"phi{2 * n}", gm_phi(n, restarts=restarts, seed=seed).G) for n in range(1, n_max + 1)]
