"""Hybrid state-operators: weighted sums of (control ket) x (target operator word).

A term (bits, word) -> coeff stands for coeff * |bits> (x) W(word) where
W(word) = (x)_j sigma_{n_j}^{w_j} over the target systems, w_j in {0, 1}
and exponent 0 meaning the identity.  Viewed as a matrix, a stator maps
the target space into control (x) target space.
"""
from __future__ import annotations

import math
from itertools import product
from typing import Sequence

import numpy as np

from .qcore import (
    IDENTITY_2,
    PauliAxis,
    QuantumState,
    X_AXIS,
    pauli_axis_matrix,
    rotation,
)

PRUNE_TOL = 1e-12
FIT_TOL = 1e-10  # relative least-squares residual of a stator fit

_BASIS_BRAS = {
    ("Z", 0): np.array([1, 0], dtype=complex),
    ("Z", 1): np.array([0, 1], dtype=complex),
    ("X", 0): np.array([1, 1], dtype=complex) / math.sqrt(2),
    ("X", 1): np.array([1, -1], dtype=complex) / math.sqrt(2),
}


def word_matrix(word: Sequence[int], axes: Sequence[PauliAxis]) -> np.ndarray:
    """Kronecker product of sigma_n^w over the targets; empty word gives [[1]]."""
    m = np.array([[1.0 + 0j]])
    for w, axis in zip(word, axes):
        m = np.kron(m, pauli_axis_matrix(axis) if w else IDENTITY_2)
    return m


class Stator:
    __slots__ = ("control_labels", "target_axes", "terms")

    def __init__(self, control_labels, target_axes, terms):
        self.control_labels = tuple(str(l) for l in control_labels)
        self.target_axes = tuple(target_axes)
        n_c, n_t = len(self.control_labels), len(self.target_axes)
        merged: dict = {}
        items = terms.items() if isinstance(terms, dict) else ((b, w, c) for b, w, c in terms)
        for entry in items:
            if isinstance(terms, dict):
                (bits, word), coeff = entry
            else:
                bits, word, coeff = entry
            bits = str(bits)
            word = tuple(int(w) for w in word)
            if len(bits) != n_c or any(c not in "01" for c in bits):
                raise ValueError(f"bad control bitstring {bits!r}")
            if len(word) != n_t or any(w not in (0, 1) for w in word):
                raise ValueError(f"bad operator word {word!r}")
            coeff = complex(coeff)
            if not (math.isfinite(coeff.real) and math.isfinite(coeff.imag)):
                raise ValueError("non-finite coefficient")
            merged[(bits, word)] = merged.get((bits, word), 0j) + coeff
        merged = {k: v for k, v in merged.items() if abs(v) > PRUNE_TOL}
        if not merged:
            raise ValueError("stator has no nonzero terms")
        self.terms = merged

    # -- shape ----------------------------------------------------------

    @property
    def n_controls(self) -> int:
        return len(self.control_labels)

    @property
    def n_targets(self) -> int:
        return len(self.target_axes)

    @property
    def control_dim(self) -> int:
        return 2 ** self.n_controls

    @property
    def target_dim(self) -> int:
        return 2 ** self.n_targets

    def coefficient(self, bits: str, word) -> complex:
        return self.terms.get((bits, tuple(int(w) for w in word)), 0j)

    def canonical_terms(self):
        """Terms sorted lexicographically by bitstring, then word."""
        return sorted((b, w, c) for (b, w), c in self.terms.items())

    # -- linear algebra ---------------------------------------------------

    def as_matrix(self) -> np.ndarray:
        """(control_dim * target_dim) x target_dim map from target space."""
        d_t = self.target_dim
        m = np.zeros((self.control_dim * d_t, d_t), dtype=complex)
        for (bits, word), coeff in self.terms.items():
            r0 = int(bits, 2) * d_t
            m[r0 : r0 + d_t, :] += coeff * word_matrix(word, self.target_axes)
        return m

    def apply(self, target_state: QuantumState | np.ndarray) -> np.ndarray:
        vec = target_state.amplitudes if isinstance(target_state, QuantumState) else np.asarray(target_state)
        return self.as_matrix() @ vec

    # -- transforms -------------------------------------------------------

    def _pos(self, qubit: str) -> int:
        try:
            return self.control_labels.index(qubit)
        except ValueError:
            raise KeyError(f"{qubit!r} is not a control qubit of this stator") from None

    def apply_control_unitary(self, qubit: str, matrix) -> "Stator":
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("control unitary must be 2x2")
        pos = self._pos(qubit)
        out = []
        for (bits, word), coeff in self.terms.items():
            b = int(bits[pos])
            for nb in (0, 1):
                amp = m[nb, b] * coeff
                if amp != 0:
                    out.append((bits[:pos] + str(nb) + bits[pos + 1 :], word, amp))
        return Stator(self.control_labels, self.target_axes, out)

    def project_control(self, qubit: str, basis: str, outcome: int) -> "Stator":
        """Project one control qubit onto a Z/X basis outcome and drop it."""
        bra = _BASIS_BRAS.get((basis.upper(), int(outcome)))
        if bra is None:
            raise ValueError("basis must be 'Z' or 'X' with outcome 0/1")
        pos = self._pos(qubit)
        out = []
        for (bits, word), coeff in self.terms.items():
            amp = np.conj(bra[int(bits[pos])]) * coeff
            if amp != 0:
                out.append((bits[:pos] + bits[pos + 1 :], word, amp))
        labels = self.control_labels[:pos] + self.control_labels[pos + 1 :]
        try:
            return Stator(labels, self.target_axes, out)
        except ValueError:
            raise ValueError("projection annihilates every stator term") from None

    def scaled(self, factor: complex) -> "Stator":
        return Stator(
            self.control_labels,
            self.target_axes,
            {k: v * factor for k, v in self.terms.items()},
        )

    def normalize(self) -> "Stator":
        """Scale so Tr(S^dag S) = 1; idempotent and scale-invariant."""
        m = self.as_matrix()
        t = float(np.trace(m.conj().T @ m).real)
        if t <= PRUNE_TOL:
            raise ValueError("cannot normalize a vanishing stator")
        return self.scaled(1.0 / math.sqrt(t))

    # -- checks -----------------------------------------------------------

    def eigenoperator_residual(self, alphas: Sequence[float]) -> float:
        """Max-entry norm of (x-rotations on controls) S - S (axis rotations on targets).

        Pairs the i-th control qubit with the i-th target system, so the
        stator must have equally many of each.
        """
        alphas = [float(a) for a in alphas]
        if len(alphas) != self.n_controls or self.n_controls != self.n_targets:
            raise ValueError("need one angle per control qubit, with controls matching targets")
        m = self.as_matrix()
        u_c = np.array([[1.0 + 0j]])
        for a in alphas:
            u_c = np.kron(u_c, rotation(X_AXIS, a))
        u_t = np.array([[1.0 + 0j]])
        for a, axis in zip(alphas, self.target_axes):
            u_t = np.kron(u_t, rotation(axis, a))
        left = np.kron(u_c, np.eye(self.target_dim)) @ m
        right = m @ u_t
        return float(np.max(np.abs(left - right)))

    def equal_terms(self, other: "Stator", tol: float = 1e-10, up_to_scale: bool = False) -> bool:
        """Same term set with matching coefficients (optionally up to one global factor)."""
        if self.control_labels != other.control_labels or self.n_targets != other.n_targets:
            return False
        scale = 1.0 + 0j
        if up_to_scale:
            key = max(self.terms, key=lambda k: abs(self.terms[k]))
            if key not in other.terms:
                return False
            scale = other.terms[key] / self.terms[key]
        keys = set(self.terms) | set(other.terms)
        return all(abs(other.terms.get(k, 0j) - scale * self.terms.get(k, 0j)) <= tol for k in keys)

    # -- presentation -------------------------------------------------------

    def pretty(self) -> str:
        parts = []
        for bits, word, coeff in self.canonical_terms():
            ops = "·".join("σ_n" if w else "I" for w in word) or "1"
            parts.append(f"({coeff.real:+.6g}{coeff.imag:+.6g}j)|{bits}⟩⊗{ops}")
        return " + ".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "controls": list(self.control_labels),
            "target_axes": [[ax.x, ax.y, ax.z] for ax in self.target_axes],
            "terms": [
                {"bits": b, "word": list(w), "re": c.real, "im": c.imag}
                for b, w, c in self.canonical_terms()
            ],
        }

    def __repr__(self) -> str:
        return f"Stator(controls={self.control_labels}, targets={self.n_targets}, terms={len(self.terms)})"


def diagonal_stator(control_labels: Sequence[str], axes: Sequence[PauliAxis]) -> Stator:
    """sum_q |q> (x) sigma^q: word exponents mirror the control bits."""
    labels = tuple(control_labels)
    if len(labels) != len(axes):
        raise ValueError("one axis per control qubit")
    n = len(labels)
    terms = []
    for q in range(2 ** n):
        bits = format(q, f"0{n}b")
        terms.append((bits, tuple(int(c) for c in bits), 1.0))
    return Stator(labels, axes, terms)


def stator_from_state(
    joint,
    controls: Sequence[str],
    targets: Sequence[str],
    axes: Sequence[PauliAxis],
    probes,
    joint_scales: Sequence[float] | None = None,
) -> Stator:
    """Recover the unique stator S with joint_p = S |probe_p> for every pair.

    `joint` is one QuantumState or a sequence of them; `probes` are the
    matching target-space states.  Coefficients are solved per control
    bitstring by stacked least squares; a residual above FIT_TOL means the
    state is not of stator form, and rank-deficient probe sets are
    rejected as non-identifying.  `joint_scales` restores pre-normalization
    weights when the joints came out of renormalizing projections whose
    probability depends on the probe.
    """
    joints = [joint] if isinstance(joint, QuantumState) else list(joint)
    probe_list = [probes] if isinstance(probes, QuantumState) else list(probes)
    if len(joints) != len(probe_list) or not joints:
        raise ValueError("need equally many joint states and probe states")
    scales = [1.0] * len(joints) if joint_scales is None else [float(s) for s in joint_scales]
    if len(scales) != len(joints):
        raise ValueError("one scale per joint state")
    controls = tuple(controls)
    targets = tuple(targets)
    axes = tuple(axes)
    if len(axes) != len(targets):
        raise ValueError("one axis per target system")
    d_c, d_t = 2 ** len(controls), 2 ** len(targets)
    words = [tuple(w) for w in product((0, 1), repeat=len(targets))]

    blocks, rhs = [], []
    for js, ps, scale in zip(joints, probe_list, scales):
        v = scale * js.reordered(controls + targets).amplitudes.reshape(d_c, d_t)
        psi = ps.reordered(targets).amplitudes
        blocks.append(np.column_stack([word_matrix(w, axes) @ psi for w in words]))
        rhs.append(v)
    a = np.vstack(blocks)
    svals = np.linalg.svd(a, compute_uv=False)
    if svals[-1] < 1e-8 * max(svals[0], 1.0):
        raise ValueError("probe states do not determine the stator (rank-deficient system)")

    b = np.vstack([r.T for r in rhs])  # rows: probe-stacked target comps, cols: control index
    coeffs, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.linalg.norm(a @ coeffs - b))
    total = float(np.linalg.norm(b))
    if residual > FIT_TOL * max(1.0, total):
        raise ValueError(f"state is not of stator form (residual {residual:.3e})")

    terms = []
    for bi in range(d_c):
        bits = format(bi, f"0{len(controls)}b")
        for wi, w in enumerate(words):
            c = coeffs[wi, bi]
            if abs(c) > PRUNE_TOL:
                terms.append((bits, w, c))
    return Stator(controls, axes, terms)
