"""Hybrid state-operators: weighted sums of (control ket) x (target operator word).

A stator on c control qubits and t target systems is one complex array of
shape (2,)*c + (2,)*t: entry [b_1..b_c, w_1..w_t] is the coefficient of
|b_1..b_c> (x) W(w), where W(w) = (x)_j sigma_{n_j}^{w_j} over the target
systems and exponent 0 means the identity.  Entries at or below PRUNE_TOL
are stored as zero; the nonzero entries are the stator's terms, keyed
(bits, word) and listed in C order, which is lexicographic in (bits, word).
Viewed as a matrix, a stator maps the target space into control (x) target
space.  The constructor takes the array; `Stator.from_terms` is the one
parser of hand-written (bits, word, coeff) lists.
"""
from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .qcore import (
    IDENTITY_2,
    PauliAxis,
    QuantumState,
    X_AXIS,
    _basis_kets,
    outcome_bit,
    pauli_axis_matrix,
    rotation,
)

PRUNE_TOL = 1e-12
FIT_TOL = 1e-10  # relative least-squares residual of a stator fit


def word_table(axes: Sequence[PauliAxis]) -> np.ndarray:
    """W(w) for every word w in C order, shape (2**t, 2**t, 2**t); no axes give [[[1]]]."""
    table = np.ones((1, 1, 1), dtype=complex)
    for axis in axes:
        pair = np.stack([IDENTITY_2, pauli_axis_matrix(axis)])
        n, d = 2 * table.shape[0], 2 * table.shape[1]
        table = np.einsum("aij,bkl->abikjl", table, pair).reshape(n, d, d)
    return table


class Stator:
    __slots__ = ("control_labels", "target_axes", "coeffs")

    def __init__(self, control_labels, target_axes, coeffs):
        self.control_labels = tuple(str(l) for l in control_labels)
        self.target_axes = tuple(target_axes)
        coeffs = np.asarray(coeffs, dtype=complex)
        shape = (2,) * (len(self.control_labels) + len(self.target_axes))
        if coeffs.shape != shape:
            raise ValueError(f"coefficient array has shape {coeffs.shape}, expected {shape}")
        if not np.isfinite(coeffs).all():
            raise ValueError("non-finite coefficient")
        kept = np.abs(coeffs) > PRUNE_TOL
        if not kept.any():
            raise ValueError("stator has no nonzero terms")
        self.coeffs = np.where(kept, coeffs, 0) + 0j  # + 0j turns -0.0 parts into 0.0
        self.coeffs.flags.writeable = False

    @classmethod
    def from_terms(cls, control_labels, target_axes, terms) -> "Stator":
        """Stator from (bits, word, coeff) triples; duplicate terms add up."""
        n_c, n_t = len(control_labels), len(target_axes)
        coeffs = np.zeros((2,) * (n_c + n_t), dtype=complex)
        for bits, word, coeff in terms:
            bits, word = str(bits), tuple(int(w) for w in word)
            if len(bits) != n_c or any(c not in "01" for c in bits):
                raise ValueError(f"bad control bitstring {bits!r}")
            if len(word) != n_t or any(w not in (0, 1) for w in word):
                raise ValueError(f"bad operator word {word!r}")
            coeffs[tuple(map(int, bits)) + word] += complex(coeff)
        return cls(control_labels, target_axes, coeffs)

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

    @property
    def terms(self) -> Mapping:
        """Read-only {(bits, word): coeff} of the nonzero entries, in C order."""
        index = np.nonzero(self.coeffs)
        n_c = self.n_controls
        return MappingProxyType({
            ("".join(map(str, pos[:n_c])), tuple(pos[n_c:])): coeff
            for pos, coeff in zip(np.transpose(index).tolist(), self.coeffs[index].tolist())
        })

    def coefficient(self, bits: str, word) -> complex:
        return self.terms.get((bits, tuple(int(w) for w in word)), 0j)

    # -- linear algebra ---------------------------------------------------

    def as_matrix(self) -> np.ndarray:
        """(control_dim * target_dim) x target_dim map from target space."""
        d_t = self.target_dim  # also the number of words
        table = word_table(self.target_axes).reshape(d_t, d_t * d_t)
        return (self.coeffs.reshape(self.control_dim, d_t) @ table).reshape(-1, d_t)

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
        out = np.moveaxis(np.tensordot(m, self.coeffs, axes=([1], [pos])), 0, pos)
        return Stator(self.control_labels, self.target_axes, out)

    def project_control(self, qubit: str, basis: str, outcome: int) -> "Stator":
        """Project one control qubit onto a Z/X basis outcome and drop it."""
        kets, outcome = _basis_kets(basis), outcome_bit(outcome)
        pos = self._pos(qubit)
        out = np.tensordot(kets[outcome].conj(), self.coeffs, axes=([0], [pos]))
        labels = self.control_labels[:pos] + self.control_labels[pos + 1 :]
        try:
            return Stator(labels, self.target_axes, out)
        except ValueError:
            raise ValueError("projection annihilates every stator term") from None

    def scaled(self, factor: complex) -> "Stator":
        return Stator(self.control_labels, self.target_axes, self.coeffs * factor)

    def normalize(self) -> "Stator":
        """Scale so Tr(S^dag S) = 1; idempotent and scale-invariant.

        Pauli words are trace-orthogonal with Tr(W^dag W) = target_dim, so
        Tr(S^dag S) = target_dim * sum |c|^2.
        """
        t = self.target_dim * float(np.vdot(self.coeffs, self.coeffs).real)
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
            key = np.unravel_index(np.argmax(np.abs(self.coeffs)), self.coeffs.shape)
            if other.coeffs[key] == 0:
                return False
            scale = other.coeffs[key] / self.coeffs[key]
        return bool(np.all(np.abs(other.coeffs - scale * self.coeffs) <= tol))

    def __repr__(self) -> str:
        return f"Stator(controls={self.control_labels}, targets={self.n_targets}, terms={len(self.terms)})"


def diagonal_stator(control_labels: Sequence[str], axes: Sequence[PauliAxis]) -> Stator:
    """sum_q |q> (x) sigma^q: word exponents mirror the control bits."""
    labels = tuple(control_labels)
    if len(labels) != len(axes):
        raise ValueError("one axis per control qubit")
    n = len(labels)
    return Stator(labels, axes, np.eye(2 ** n).reshape((2,) * (2 * n)))


def stator_from_state(
    joint,
    controls: Sequence[str],
    targets: Sequence[str],
    axes: Sequence[PauliAxis],
    probes,
) -> Stator:
    """Recover the unique stator S with joint_p = S |probe_p> for every pair.

    `joint` is one QuantumState or a sequence of them; `probes` are the
    matching target-space states.  Coefficients are solved per control
    bitstring by stacked least squares; a residual above FIT_TOL means the
    state is not of stator form, and rank-deficient probe sets are
    rejected as non-identifying.
    """
    joints = [joint] if isinstance(joint, QuantumState) else list(joint)
    probe_list = [probes] if isinstance(probes, QuantumState) else list(probes)
    if len(joints) != len(probe_list) or not joints:
        raise ValueError("need equally many joint states and probe states")
    controls = tuple(controls)
    targets = tuple(targets)
    axes = tuple(axes)
    if len(axes) != len(targets):
        raise ValueError("one axis per target system")
    d_c, d_t = 2 ** len(controls), 2 ** len(targets)
    table = word_table(axes)

    blocks, rhs = [], []
    for js, ps in zip(joints, probe_list):
        blocks.append((table @ ps.reordered(targets).amplitudes).T)  # column w: W(w) |probe>
        rhs.append(js.reordered(controls + targets).amplitudes.reshape(d_c, d_t))
    a = np.vstack(blocks)
    b = np.vstack([r.T for r in rhs])  # rows: probe-stacked target comps, cols: control index
    coeffs, _, _, svals = np.linalg.lstsq(a, b, rcond=None)
    if svals[-1] < 1e-8 * max(svals[0], 1.0):
        raise ValueError("probe states do not determine the stator (rank-deficient system)")
    residual = float(np.linalg.norm(a @ coeffs - b))
    total = float(np.linalg.norm(b))
    if residual > FIT_TOL * max(1.0, total):
        raise ValueError(f"state is not of stator form (residual {residual:.3e})")
    return Stator(controls, axes, coeffs.T.reshape((2,) * (len(controls) + len(axes))))
