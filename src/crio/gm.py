"""Geometric measure of entanglement via closest-product-state search.

Lambda^2 is the maximal squared overlap with a pure product state and
G = -log2(Lambda^2).  For non-negative states the closest product state
can itself be chosen non-negative, so the search runs over per-qubit
angles theta in [0, pi/2] only; general mode adds a relative phase per
qubit.  The ascent updates one qubit at a time in closed form: the phase
aligns with its environment and theta = atan2(|env_1|, |env_0|), the
higher-order power-method step (De Lathauwer, De Moor & Vandewalle,
SIAM J. Matrix Anal. Appl. 21, 2000), restarted from random points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graphstate import CrioTopology, crio_channel_state, phi_state
from .qcore import HADAMARD, QuantumState, apply_1q

OBJECTIVE_TOL = 1e-8  # a restart stops when a sweep gains under a tenth of it
MAX_SWEEPS = 300      # per restart


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
        else:
            if np.any(self.thetas < -1e-12) or np.any(self.thetas > math.pi / 2 + 1e-12):
                raise ValueError("non-negative mode keeps every theta in [0, pi/2]")

    @property
    def num_qubits(self) -> int:
        return len(self.thetas)

    def qubit_vectors(self) -> list:
        phases = np.exp(1j * self.phis) if self.phis is not None else np.ones(self.num_qubits)
        return [
            np.array([math.cos(t), p * math.sin(t)], dtype=complex)
            for t, p in zip(self.thetas, phases)
        ]


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
    """Qubits whose Hadamards turn the channel state non-negative: a1, a3..a_{N+1}."""
    return ["a1"] + [f"a{k}" for k in range(3, n_systems + 2)]


def reduce_channel_state(n_systems: int) -> QuantumState:
    return hadamard_reduce(crio_channel_state(CrioTopology(n_systems)), nonneg_reduction_qubits(n_systems))


# ----------------------------------------------------------------------
# optimizer

def _environment(tensor_amp: np.ndarray, vectors: list, j: int) -> np.ndarray:
    """Contract every qubit except j with the conjugated ansatz vectors."""
    t = tensor_amp
    n = t.ndim
    for i in sorted(set(range(n)) - {j}, reverse=True):
        t = np.tensordot(t, vectors[i].conj(), axes=([i], [0]))
    return t  # shape (2,)


def gm_optimize(
    state: QuantumState,
    mode: str = "nonneg",
    restarts: int = 64,
    seed: int = 0,
) -> GMResult:
    """Multi-start coordinate ascent maximizing |<product|state>|^2."""
    if mode not in ("nonneg", "general"):
        raise ValueError("mode must be 'nonneg' or 'general'")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if mode == "nonneg":
        amps = state.amplitudes
        if np.max(np.abs(amps.imag)) > 1e-12 or np.min(amps.real) < -1e-12:
            raise ValueError("non-negative mode needs a non-negative state; reduce it first")
    n = state.num_qubits
    tensor_amp = state.tensor_view()
    rng = np.random.default_rng(seed)

    results = []
    for _ in range(restarts):
        thetas = rng.uniform(0.0, math.pi / 2, size=n)
        phis = rng.uniform(0.0, 2 * math.pi, size=n) if mode == "general" else None
        vectors = ProductAnsatz(thetas, phis).qubit_vectors()
        best = abs(overlap(state, ProductAnsatz(thetas, phis))) ** 2
        history = [best]
        for _sweep in range(MAX_SWEEPS):
            for j in range(n):
                env = _environment(tensor_amp, vectors, j)
                m0, m1 = abs(env[0]), abs(env[1])
                if mode == "general" and m1 > 1e-300 and m0 > 1e-300:
                    phis[j] = float(np.angle(env[1]) - np.angle(env[0])) % (2 * math.pi)
                # (m0 cos + m1 sin)^2 peaks where (cos, sin) is parallel to (m0, m1)
                thetas[j] = math.atan2(m1, m0)
                vectors[j] = ProductAnsatz(thetas[j : j + 1], None if phis is None else phis[j : j + 1]).qubit_vectors()[0]
            value = abs(overlap(state, ProductAnsatz(thetas, phis))) ** 2
            history.append(value)
            if value < best - 1e-9:
                raise RuntimeError("coordinate ascent decreased the objective")
            if value - best < OBJECTIVE_TOL / 10:
                best = max(best, value)
                break
            best = value
        results.append((best, thetas.copy(), None if phis is None else phis.copy(), history))

    results.sort(key=lambda r: (-r[0], tuple(np.round(r[1], 12))))
    best_val, best_thetas, best_phis, best_history = results[0]
    converged = len(results) >= 2 and abs(results[0][0] - results[1][0]) <= OBJECTIVE_TOL
    lam_sq = min(best_val, 1.0 + 1e-12)
    return GMResult(
        lambda_sq=lam_sq,
        G=-math.log2(lam_sq) if lam_sq > 0 else math.inf,
        argmax=ProductAnsatz(best_thetas, best_phis),
        restarts_used=restarts,
        converged=converged,
        history=best_history,
    )


# ----------------------------------------------------------------------
# closed form for the reduced channel state

def closed_form_overlap(n_systems: int, thetas: Sequence[float]) -> float:
    """Product-state overlap with the non-negative reduced channel state.

    (1/sqrt(2^{N+1})) [cos(t1) prod_{t=2..N+1} cos(t_t - t_{t+N})
                       + sin(t1) prod_{s=2..N+1} sin(t_s + t_{s+N})]
    with the whole bracket under the prefactor; cross-checked against the
    exact inner product in the tests.
    """
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
    out = {"state_id": state_id, "N": n_systems}
    out.update(result.to_json_dict())
    return out


def entanglement_table_rows(n_max: int, restarts: int = 48, seed: int = 0):
    """Rows (N, channel state id, GM, reference state id, GM) for both families."""
    rows = []
    for n in range(1, n_max + 1):
        g_h = gm_channel_family(n, restarts=restarts, seed=seed)
        g_p = gm_phi(n, restarts=restarts, seed=seed)
        rows.append((n, f"h{2 * n + 1}", g_h.G, f"phi{2 * n}", g_p.G))
    return rows
