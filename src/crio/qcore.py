"""Dense statevector engine for small registers of labeled qubits.

Index convention is big-endian: the label at position 0 is the most
significant bit of the amplitude index, so a printed bitstring reads in
label order.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

ATOL_ALGEBRA = 1e-12  # single algebraic identities
MAX_QUBITS = 25       # 2**25 complex amplitudes: 512 MiB per state vector

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


@dataclass(frozen=True)
class PauliAxis:
    """Unit axis vector n; induces the axis Pauli sigma_n = n . (sx, sy, sz)."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not abs(self.norm() - 1.0) <= ATOL_ALGEBRA:  # also refuses NaN and inf
            raise ValueError(f"axis vector must have unit norm, got {self.norm()}")

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    @staticmethod
    def unit(x: float, y: float, z: float) -> "PauliAxis":
        """Build an axis from any nonzero vector by normalizing it, first divided by its largest
        component if its squared norm leaves the normal float range."""
        squares = x * x + y * y + z * z
        scale = 1.0 if sys.float_info.min <= squares <= sys.float_info.max else max(abs(x), abs(y), abs(z))
        if scale == 0:
            raise ValueError("cannot normalize a zero axis vector")
        x, y, z = x / scale, y / scale, z / scale
        n = math.sqrt(x * x + y * y + z * z)
        return PauliAxis(x / n, y / n, z / n)


X_AXIS = PauliAxis(1.0, 0.0, 0.0)
Y_AXIS = PauliAxis(0.0, 1.0, 0.0)
Z_AXIS = PauliAxis(0.0, 0.0, 1.0)


def is_finite_number(value) -> bool:
    """A JSON number that converts to a finite float: no bool, NaN, inf or int beyond the float range."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def checked_int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """value as an int; a bool or non-integer is a TypeError, a value outside low..high a ValueError."""
    if not is_int(value):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}, got {value}")
    return int(value)


def outcome_bit(value) -> int:
    """A measurement outcome: the integer 0 or 1 (a numpy integer too, a bool not) or the string "0" or "1"."""
    if not (is_int(value) and value in (0, 1) or isinstance(value, str) and value in ("0", "1")):
        raise ValueError(f"outcome must be 0 or 1, got {value!r}")
    return int(value)


def is_real(value) -> bool:
    """An int or a float, numpy's included, of any value; no bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def random_axis(rng: np.random.Generator) -> PauliAxis:
    """Uniformly random unit axis."""
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > 1e-6:
            return PauliAxis(*(v / n))


def pauli_axis_matrix(axis: PauliAxis) -> np.ndarray:
    """sigma_n = x*sx + y*sy + z*sz; Hermitian, involutive, traceless.  Built from Python scalars: the
    same bits as the sum of the three scaled Paulis, but for the signs of zeros.  float() keeps a numpy
    component's value and spares numpy's slower scalar arithmetic."""
    x, y, z = float(axis.x), float(axis.y), float(axis.z)
    return np.array([[z, x - 1j * y], [x + 1j * y, -z]], dtype=complex)


def rotation(axis: PauliAxis, alpha: float) -> np.ndarray:
    """exp(i*alpha*sigma_n) = cos(alpha) I + i sin(alpha) sigma_n, from Python scalars as
    `pauli_axis_matrix` is: [[c + i*sz, sy + i*sx], [-sy + i*sx, c - i*sz]], with s = sin(alpha)."""
    c, s = math.cos(alpha), math.sin(alpha)
    sx, sy, sz = s * float(axis.x), s * float(axis.y), s * float(axis.z)
    return np.array([[c + 1j * sz, sy + 1j * sx], [-sy + 1j * sx, c - 1j * sz]], dtype=complex)


@dataclass(frozen=True)
class MeasurementRecord:
    qubit: str
    basis: str          # "Z" or "X"
    outcome: int        # 0 -> |0>/|+>, 1 -> |1>/|->
    probability: float  # of the realized outcome, before renormalization


class QuantumState:
    """Pure state on named qubits stored as a dense complex amplitude vector."""

    __slots__ = ("labels", "amplitudes")

    def __init__(self, labels: Iterable[str], amplitudes, copy: bool = True):
        labels = tuple(str(l) for l in labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate qubit labels")
        amps = np.array(amplitudes, dtype=complex) if copy else np.asarray(amplitudes, dtype=complex)
        amps = amps.reshape(-1)
        if amps.shape != (2 ** len(labels),):
            raise ValueError(
                f"expected {2 ** len(labels)} amplitudes for {len(labels)} qubits, got {amps.shape[0]}"
            )
        with np.errstate(over="ignore"):  # a norm beyond the float range reads inf and is refused below
            nrm = np.linalg.norm(amps)
        if not abs(nrm - 1.0) <= 1e-8:  # a NaN norm fails this too
            raise ValueError(f"state is not normalized: norm = {nrm}")
        self.labels = labels
        self.amplitudes = amps

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def axis_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown qubit label {label!r}") from None

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape([2] * self.num_qubits)

    def amplitude(self, bits) -> complex:
        bits = _bit_string(bits, self.num_qubits)
        return complex(self.amplitudes[int(bits, 2)])

    def reordered(self, new_labels: Sequence[str]) -> "QuantumState":
        """Permute qubits into the given label order (must be the same set)."""
        new_labels = tuple(new_labels)
        if set(new_labels) != set(self.labels) or len(new_labels) != len(self.labels):
            raise ValueError("reordering requires the same label set")
        perm = [self.axis_of(l) for l in new_labels]
        t = self.tensor_view().transpose(perm)
        return QuantumState(new_labels, t.reshape(-1), copy=True)

    @classmethod
    def _trusted(cls, labels: tuple, amplitudes: np.ndarray) -> "QuantumState":
        """A kernel's result, valid by construction: nothing is re-checked."""
        state = cls.__new__(cls)
        state.labels = labels
        state.amplitudes = amplitudes
        return state

    def __repr__(self) -> str:
        return f"QuantumState(labels={self.labels}, dim={len(self.amplitudes)})"


def _bit_string(bits, length: int) -> str:
    if isinstance(bits, str):
        s = bits
    else:
        s = "".join(str(int(b)) for b in bits)
    if len(s) != length or any(c not in "01" for c in s):
        raise ValueError(f"expected a bitstring of length {length}, got {bits!r}")
    return s


def check_register_size(num_qubits: int) -> None:
    """Refuse a register above MAX_QUBITS before its vector is allocated."""
    if num_qubits > MAX_QUBITS:
        raise ValueError(f"a {num_qubits}-qubit register exceeds the limit of {MAX_QUBITS} qubits")


def product_state(labels: Iterable[str], qubit_vectors: Sequence) -> QuantumState:
    """Tensor product of normalized single-qubit kets, one per label."""
    labels = tuple(labels)
    if len(qubit_vectors) != len(labels):
        raise ValueError("one qubit vector per label required")
    check_register_size(len(labels))
    amps = np.array([1.0], dtype=complex)
    for v in qubit_vectors:
        v = np.asarray(v, dtype=complex).reshape(-1)
        if v.shape != (2,):
            raise ValueError("qubit vectors must have length 2")
        amps = np.kron(amps, v)
    return QuantumState(labels, amps, copy=False)


def tensor(a: QuantumState, b: QuantumState) -> QuantumState:
    if set(a.labels) & set(b.labels):
        raise ValueError("tensor factors share qubit labels")
    check_register_size(a.num_qubits + b.num_qubits)
    return QuantumState._trusted(a.labels + b.labels, np.kron(a.amplitudes, b.amplitudes))  # of two unit vectors


def _check_unitary(matrix, dim: int) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix")
    if not np.max(np.abs(m @ m.conj().T - np.eye(dim))) <= 1e-10:  # a NaN entry fails too
        raise ValueError("matrix is not unitary within 1e-10")
    return m


# Kernels act on reshape views that isolate the touched qubits: qubit ax splits
# the vector as (2**ax, 2, rest).  The underscored forms trust their matrix.

def _pair_view(amps: np.ndarray, first: int, second: int) -> np.ndarray:
    """5-d view of a (..., 2**n) array: qubit `first` on axis 1, `second` on axis 3, rows folded into axis 0."""
    if first == second:
        raise ValueError("a two-qubit gate needs two distinct qubits")
    lo, hi = sorted((first, second))
    tail = amps.shape[-1] >> (hi + 1)  # also right for a float64 view, whose rows are twice as long
    v = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, tail)
    return v if first < second else v.transpose(0, 3, 2, 1, 4)


def _mix(m: np.ndarray, t0, t1, out0, out1) -> None:
    """out_i = m[i, 0] * t0 + m[i, 1] * t1, for the two halves of one qubit."""
    for i, out in ((0, out0), (1, out1)):
        np.multiply(t0, m[i, 0], out=out)
        out += m[i, 1] * t1


def _gate(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """m applied to axis -2 of a (..., 2, rest) view, as a new array of that shape."""
    out = np.empty(v.shape, dtype=v.dtype)
    _mix(m, v[..., 0, :], v[..., 1, :], out[..., 0, :], out[..., 1, :])
    return out


def _apply_controlled(amps: np.ndarray, ac: int, at: int, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|0><0| (x) I + |1><1| (x) m from qubit position ac onto at, on each row of a (..., 2**n) array, into `out`."""
    out = np.empty_like(amps) if out is None else out
    v, w = _pair_view(amps, ac, at), _pair_view(out, ac, at)
    w[:, 0] = v[:, 0]
    _mix(m, v[:, 1, :, 0], v[:, 1, :, 1], w[:, 1, :, 0], w[:, 1, :, 1])
    return out


def _cz_in_place(amps: np.ndarray, a1: int, a2: int) -> None:
    """Negate the amplitudes where qubits at positions a1 and a2 both read 1."""
    block = _pair_view(amps.view(np.float64), a1, a2)[:, 1, :, 1]  # (re, im) pairs
    np.negative(block, out=block)


def apply_1q(state: QuantumState, matrix, qubit: str) -> QuantumState:
    m = _check_unitary(matrix, 2)
    v = state.amplitudes.reshape(1 << state.axis_of(qubit), 2, -1)
    return QuantumState._trusted(state.labels, _gate(v, m).reshape(-1))


def apply_2q_cz(state: QuantumState, q1: str, q2: str) -> QuantumState:
    amps = state.amplitudes.copy()
    _cz_in_place(amps, state.axis_of(q1), state.axis_of(q2))
    return QuantumState._trusted(state.labels, amps)


def apply_controlled_op(state: QuantumState, control: str, target: str, matrix) -> QuantumState:
    """|0><0| (x) I + |1><1| (x) U between two labeled qubits."""
    m = _check_unitary(matrix, 2)
    out = _apply_controlled(state.amplitudes, state.axis_of(control), state.axis_of(target), m)
    return QuantumState._trusted(state.labels, out)


def _basis_kets(basis: str) -> np.ndarray:
    """Rows are the basis kets |0>, |1> or |+>, |->."""
    kets = {"Z": IDENTITY_2, "X": HADAMARD}.get(basis.upper())
    if kets is None:
        raise ValueError("basis must be 'Z' or 'X'")
    return kets


def _basis_components(v: np.ndarray, basis: str) -> np.ndarray:
    """A (..., 2, rest) view rewritten in `basis`: [..., i, :] is the unnormalized
    component along basis ket i (v itself for Z)."""
    if _basis_kets(basis) is IDENTITY_2:
        return v
    c = np.empty(v.shape, dtype=v.dtype)  # <+| and <-| are (<0| +- <1|) / sqrt(2)
    np.add(v[..., 0, :], v[..., 1, :], out=c[..., 0, :])
    np.subtract(v[..., 0, :], v[..., 1, :], out=c[..., 1, :])
    np.multiply(c.view(np.float64), 1 / math.sqrt(2), out=c.view(np.float64))  # a real scale
    return c


def _components(state: QuantumState, qubit: str, basis: str):
    """(2**ax, 2, rest) array whose [:, i] is the unnormalized rest-of-register
    component along basis ket i, and the two outcome probabilities."""
    v = _basis_components(state.amplitudes.reshape(1 << state.axis_of(qubit), 2, -1), basis)
    f = v.view(np.float64)
    p0, p1 = np.einsum("ijk,ijk->j", f, f)
    return v, (float(p0), float(p1))


def measurement_probabilities(state: QuantumState, qubit: str, basis: str):
    return _components(state, qubit, basis)[1]


def measure(
    state: QuantumState,
    qubit: str,
    basis: str,
    forced_outcome: int | None = None,
    rng: np.random.Generator | None = None,
    remove: bool = False,
):
    """Projective measurement of one qubit in the Z or X basis.

    Returns (MeasurementRecord, post_state). With remove=True the measured
    qubit is dropped from the register. When forced_outcome is None the
    outcome is drawn from rng, which must then be given: every draw comes
    from an explicitly seeded generator.
    """
    c, probs = _components(state, qubit, basis)
    if forced_outcome is not None:
        outcome = outcome_bit(forced_outcome)
        if probs[outcome] <= 1e-12:
            raise ValueError(
                f"forcing a zero-probability outcome ({qubit}, basis {basis}, outcome {outcome})"
            )
    else:
        if rng is None:
            raise ValueError("an unforced measurement needs an rng")
        outcome = 0 if rng.random() < probs[0] else 1
    comp = c[:, outcome] / math.sqrt(probs[outcome])
    record = MeasurementRecord(qubit, basis.upper(), outcome, probs[outcome])

    if remove:
        ax = state.axis_of(qubit)
        return record, QuantumState._trusted(state.labels[:ax] + state.labels[ax + 1 :], comp.reshape(-1))
    full = np.empty_like(c)
    for b, amp in enumerate(_basis_kets(basis)[outcome]):
        np.multiply(comp, amp, out=full[:, b])
    return record, QuantumState._trusted(state.labels, full.reshape(-1))


def fidelity_up_to_phase(s1: QuantumState, s2: QuantumState) -> float:
    """|<s1|s2>|; equals 1 iff the states agree up to a global phase."""
    if len(s1.amplitudes) != len(s2.amplitudes):
        raise ValueError("dimension mismatch")
    if s1.labels != s2.labels:
        s2 = s2.reordered(s1.labels)
    return float(abs(np.vdot(s1.amplitudes, s2.amplitudes)))


def reduced_density(state: QuantumState, keep_labels: Sequence[str]) -> np.ndarray:
    """Density matrix of the listed qubits with everything else traced out."""
    keep = [state.axis_of(l) for l in keep_labels]
    rest = [i for i in range(state.num_qubits) if i not in keep]
    t = state.tensor_view().transpose(keep + rest).reshape(2 ** len(keep), -1)
    return t @ t.conj().T


def purity(rho: np.ndarray) -> float:
    return float(np.trace(rho @ rho).real)
