"""Six-step LOCC orchestration of controlled remote rotations.

Participants A_1..A_{2N+1} share the (2N+1)-qubit channel state; each
group (A_k, A_{k+N}) with k in 2..N+1 implements exp(i*beta*sigma_n) on
the unknown state held by A_{k+N}, gated by controller A_1:

  step 1  A_j applies a controlled axis-Pauli from its channel qubit a_j
          onto its target O_j (j = N+2..2N+1)
  step 2  A_3..A_{N+1} apply H to their qubits
  step 3  A_1 measures a_1 in X and broadcasts the bit; on 1 each of
          A_2..A_{N+1} applies sigma_x to its own qubit
  step 4  A_{N+2}..A_{2N+1} measure in X; a 1 outcome triggers sigma_z
          on the partner qubit a_{j-N}
  step 5  A_2..A_{N+1} apply exp(i*beta*sigma_x) locally
  step 6  A_2..A_{N+1} measure in Z; a 1 outcome triggers i*sigma_n on
          the partner target

Under partial control an optional group k that is not wired to the
controller keeps only its edge (a_k, a_{k+N}), so that pair and its target
O_{k+N} are a product factor of the channel state that no step touches.
Runs therefore build and walk only the participating register: a1 and, for
each participating group k, a_k, a_{k+N} and O_{k+N}.  Their final states
and checkpoint states do not list the unwired groups' qubits.

The steps are written out once, as the step plan built by `_plan`; every
entry point checks its inputs once, in `_setup`, which builds it.  One block
engine, `_run`, runs a plan on blocks that `_register` derives from the channel
graph: a2 and a_{N+2} share their neighbours, so the register is two terms,
w = 0 and 1 (their parity), each a product of a hub block (a1, a2, a_{N+2},
O_{N+2}) and one block (a_k, a_{k+N}, O_{k+N}) per group, coupled by no step.
A measurement projects one block, weighing its terms' overlaps by the other
blocks' 2x2 Gram matrices, and asks an outcome rule which outcomes to keep:
both (enumeration, control-denial guesses), one drawn from a seeded generator
(sample mode) or one forced (checkpoints).  Every kept branch is carried at
once (deferred measurement), on broadcast branch axes: a measurement that
keeps both outcomes adds one axis, of size 2 on the arrays it or one of its
outcome-1 fixes touches and of size 1, which numpy broadcasts, on all others.
So a block holds a row only for each pattern of the bits that touch it; on a
permitted run these are the controller's bit and its own two, at most 8 rows
at any N, where a run has 2**(2N+1) branches.  Keeping one outcome adds no
axis.  Blocks are never normalised: the register carries one joint squared
norm, norm2, over the branch axes; as the register starts at unit norm, it ends
as each branch's probability.  An outcome of probability at most 1e-12 is
refused.  A rule that keeps one outcome reads each outcome probability, a ratio
to norm2, at its measurement; an enumeration reads norm2 once, after its last
measurement, and walks the plan again step by step if a branch is at most 2e-12.
No protocol run meets such an outcome, as each of its measurements is unbiased.
On a permitted run the controller's step-3 outcome zeroes one term on every
branch.  A run's branches are a `Branches` table of columns, rows in depth-first
order; a branch's corrections and messages follow from its outcome bits and the
measured steps' fixes and recipients, so no per-branch object is built.  The
symbolic checkpoints follow the same plan on stators.
"""
from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, reduce
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .graphstate import (
    CrioTopology,
    amplitude_oracle,
    basis_bits,
    qubit_labels,
    target_label,
)
from .qcore import (
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    PauliAxis,
    QuantumState,
    X_AXIS,
    _apply_controlled,
    _basis_components,
    check_register_size,
    checked_int,
    is_finite_number,
    is_int,
    is_real,
    outcome_bit,
    pauli_axis_matrix,
    purity,
    rotation,
)
from .report import _float_column, _nested, json_list, string_list
from .stator import Stator

FIDELITY_TOL = 1e-10


class LocalityError(ValueError):
    """A party attempted an operation on a qubit it does not own."""


@dataclass(frozen=True, eq=False)
class Branches:
    """The branches a run kept, as columns: row r of each array is branch r, in
    the order of a depth-first walk with outcome 0 first.

    A branch's corrections and messages follow from its bits row and the measured
    steps (on bit 1, each step's `on_one` fixes; on either bit, one message to each
    of its `messages_to`), so they are not stored.  The block factors keep the
    engine's broadcast branch axes (see `_Register`) and are not normalised:
    `_dense` gathers a branch's final state from each block's slice on its row."""

    steps: tuple               # the measured Steps, in the order of each row's bits
    bits: np.ndarray           # (B, m) uint8 outcome bits
    probabilities: np.ndarray  # (B,) each branch's squared norm of the factors' product
    fidelities: np.ndarray     # (B,) fidelity to the expected target
    labels: tuple              # the qubits of every final state, in dense order
    factors: tuple             # (block qubits, two-term block array on broadcast branch axes) pairs

    def __len__(self) -> int:
        return len(self.bits)

    def json_blocks(self):
        """The branch list as json.dumps(report, sort_keys=True, indent=2) writes it under a top-level key
        (`report.json_list`).  A branch's values are a row of whole-column object arrays of shared strings,
        so no Python code runs per branch."""
        quoted = np.full((len(self), self.bits.shape[1] + 3), ord('"'), dtype=np.uint8)  # '"bits"\n' per row
        quoted[:, 1:-2], quoted[:, -1] = self.bits + ord("0"), ord("\n")
        values = (_float_column(self.fidelities), np.array(quoted.tobytes().decode("ascii").split(), dtype=object),
                  _float_column(self.probabilities))  # in _BRANCH_FRAME's key order
        return json_list(_BRANCH_FRAME, len(self), np.stack(values, axis=1).__getitem__)


# a branch's JSON object two levels deep, split around its values, in sorted key order
_BRANCH_FRAME = _nested(dict.fromkeys(("fidelity", "outcomes", "probability"), ...), 2)
# a measured step's JSON object likewise, whose lists' strings are four levels deep
_STEP_FRAME = _nested(dict.fromkeys(("basis", "from", "on_one", "qubit", "step", "to"), ...), 2)


@dataclass(frozen=True, eq=False)
class MeasuredSteps:
    """A run's measured steps as the report lists them once, under "measurements": each branch's
    bit for a step is sent to every recipient in "to", and on 1 each correction of "on_one" is
    applied.  A streamed list (see `report.json_report`): each step's values are written into
    _STEP_FRAME, so json's Python encoder renders only the rest of the report."""

    steps: tuple

    def __len__(self) -> int:
        return len(self.steps)

    def json_blocks(self):
        """The list as json.dumps(report, sort_keys=True, indent=2) writes it under a top-level key."""
        q = encode_basestring_ascii
        values = np.array([(q(s.basis), q(s.actor), string_list([label for _, label in s.on_one], 4), q(s.qubit),
                            q(s.tag), string_list(s.messages_to, 4)) for s in self.steps], dtype=object)
        return json_list(_STEP_FRAME, len(self.steps), values.__getitem__)  # values in _STEP_FRAME's key order


@dataclass
class ProtocolResult:
    n_systems: int
    permitted: bool
    participating_systems: tuple  # target indices j in channel numbering
    expected_target: QuantumState
    branches: Branches
    mode: str
    seed: int | None = None

    @property
    def measurement_count(self) -> int:
        return len(self.branches.steps)

    def min_fidelity(self) -> float:
        return float(self.branches.fidelities.min())

    def total_probability(self) -> float:
        return sum(self.branches.probabilities.tolist())  # left to right: np.sum's pairwise order moves the last bit

    def summary_json(self) -> dict:
        """The JSON fields of the report other than its branch list; "measurements" is streamed."""
        return {
            "n_systems": self.n_systems,
            "permitted": self.permitted,
            "participating_systems": list(self.participating_systems),
            "mode": self.mode,
            "seed": self.seed,
            "measurement_count": self.measurement_count,
            "measurements": MeasuredSteps(self.branches.steps),
        }


# ----------------------------------------------------------------------
# engine

STEPS = ("step1", "step2", "step3", "step4", "step5", "step6")


@dataclass(eq=False, slots=True)
class Step:
    """One local operation of the plan: a 2x2 gate, or a one-qubit measurement.

    A gate acts on `qubit`, controlled by `control` when that is set; a
    measurement has a `basis`, sends its bit to `messages_to` and, on
    outcome 1, applies each (fix step, label) pair of `on_one`.  Slotted and
    not frozen, as a frozen dataclass builds each field by object.__setattr__:
    a run builds its plan anew and reads its steps on every step.  Nothing
    changes a step once the plan is built.
    """

    tag: str
    actor: str
    qubit: str
    matrix: np.ndarray | None = None
    control: str | None = None
    basis: str | None = None
    messages_to: tuple = ()
    on_one: tuple = ()


def check_system_count(n_systems: int) -> None:
    """Refuse a non-integer N, N < 1, or a channel plus targets (3N+1 qubits) above MAX_QUBITS."""
    check_register_size(3 * checked_int(n_systems, "n_systems", low=1) + 1)


def _check_axes(n_systems, axes) -> None:
    """Refuse a bad system count, or axes that are not one PauliAxis per system."""
    check_system_count(n_systems)
    if len(axes) != n_systems or not all(isinstance(axis, PauliAxis) for axis in axes):
        raise ValueError("axes must be one PauliAxis per remote system")


def _setup(n_systems, axes, betas, targets=None, controlled_groups=None, permitted=True):
    """Every input of a protocol entry point, checked once before anything is allocated.  Returns the shape's
    participating groups ks, their step plan, and the target kets, each divided by its norm (None without targets)."""
    _check_axes(n_systems, axes)
    if not isinstance(permitted, bool):
        raise TypeError(f"permitted must be True or False, got {permitted!r}")
    if len(betas) != n_systems or targets is not None and len(targets) != n_systems:
        raise ValueError("axes, betas and targets must each have one entry per system")
    if not all(map(is_real, betas)):
        raise TypeError(f"betas must be real numbers, got {list(betas)!r}")
    if not all(map(math.isfinite, betas)):
        raise ValueError("betas must be finite")
    target_vecs = None if targets is None else _unit_kets(targets)
    ks = CrioTopology(n_systems, controlled_groups).groups
    return ks, _plan(n_systems, axes, betas, ks, permitted), target_vecs


def _unit_kets(targets) -> list:
    """Each target ket (a QuantumState or a 2-vector) divided by its norm, so a register starts at unit
    norm; a target that is not one qubit, or not within 1e-8 of unit norm, is refused."""
    vecs = [t.amplitudes if isinstance(t, QuantumState) else np.asarray(t, dtype=complex).reshape(-1) for t in targets]
    with np.errstate(over="ignore"):  # a norm beyond the float range reads inf and is refused
        for i, v in enumerate(vecs):
            if v.shape != (2,):
                raise ValueError("target systems are single qubits")
            if not abs((norm := np.linalg.norm(v)) - 1.0) <= 1e-8:  # so is a NaN norm
                raise ValueError("target states must be normalized")
            vecs[i] = v / norm
    return vecs


def owner(qubit: str) -> str:
    """The party that holds `qubit`: A_j holds a_j and, for a holder j >= N+2, also its target O_j."""
    return "A" + qubit[1:]


def _plan(n_systems, axes, betas, ks, permitted=True) -> list:
    """The six steps for participating groups `ks`.  A step's actor is the owner of its qubit, and a
    measurement sends its bit to the owners of its fixes' qubits, in fix order; a controlled gate
    whose control has another owner raises LocalityError.  The inputs are trusted, as `_setup`
    checked them: each gate is unitary by construction."""
    def step(tag, qubit, matrix=None, control=None, basis=None, on_one=()):
        actor = owner(qubit)
        if control is not None and owner(control) != actor:
            raise LocalityError(f"party {actor} does not own qubit {control!r}")
        return Step(tag, actor, qubit, matrix, control, basis, tuple(owner(fix.qubit) for fix, _ in on_one), on_one)

    n, sigma = n_systems, {k: pauli_axis_matrix(axes[k - 2]) for k in ks}
    plan = [step("step1", target_label(k + n), sigma[k], control=f"a{k + n}") for k in ks]
    plan += [step("step2", f"a{k}", HADAMARD) for k in ks if k >= 3]
    if permitted:
        fixes = tuple((step("step3", f"a{k}", PAULI_X), f"sigma_x a{k}") for k in ks)
        plan.append(step("step3", "a1", basis="X", on_one=fixes))
    for k in ks:
        sigma_z = step("step4", f"a{k}", PAULI_Z)
        plan.append(step("step4", f"a{k + n}", basis="X", on_one=((sigma_z, f"sigma_z a{k}"),)))
    plan += [step("step5", f"a{k}", rotation(X_AXIS, betas[k - 2])) for k in ks]
    for k in ks:
        target = target_label(k + n)
        i_sigma_n = step("step6", target, 1j * sigma[k])
        plan.append(step("step6", f"a{k}", basis="Z", on_one=((i_sigma_n, f"i*sigma_n {target}"),)))
    return plan


def _keep_both(step: Step, p: np.ndarray) -> tuple:
    """The enumeration's outcome rule: both outcomes."""
    return (0, 1)


def _drawn(rng: np.random.Generator):
    """Sample mode's outcome rule: one outcome drawn from rng, as `qcore.measure` draws it."""
    return lambda step, p: (0 if rng.random() < p.flat[0] else 1,)


def _next_outcome(bits) -> int:
    """The next of an iterator of forced outcomes, each read by `qcore.outcome_bit`.  Running out is a ValueError."""
    for outcome in bits:
        return outcome_bit(outcome)
    raise ValueError("too few outcomes: the plan measures more qubits")


def _forced(outcomes):
    """The checkpoints' outcome rule: the next of `outcomes`."""
    bits = iter(outcomes)
    return lambda step, p: (_next_outcome(bits),)


class _Register(NamedTuple):
    """The participating register as two terms, w = 0 and 1, of block products (see the module
    docstring), unnormalised.  Block i holds qubits labels[i] as an (*axes, 2, 2**q) array whose
    [..., w, :] is term w's factor, and grams[i] holds its (*axes, 2, 2) Gram matrices
    [..., w, w'] = <g_w|g_w'>, which gates leave unchanged.  The leading axes are branch axes, one
    per measurement that kept both outcomes, the newest first; they align from the right, as numpy
    broadcasts them, and an array has size 2 on a measurement's axis only if that measurement or
    one of its outcome-1 fixes touched it.  norm2 is the register's squared norm over all the branch
    axes (1 before any measurement).  `order` lists the qubits as a dense state lists them."""

    order: tuple
    labels: list
    blocks: list
    grams: list
    norm2: np.ndarray


@cache
def _block_terms(q: int, edges: tuple, touching: tuple, hub: bool) -> np.ndarray:
    """A block's terms w = 0, 1 over its q channel qubits' basis, 2**(-q/2) (-1)^(e + w*t), e (t) the number of its
    `edges` (`touching` qubits, those next to the separator) whose ends all read 1; the hub's last two qubits, the
    separator, also carry [their xor = w].  Scaled last, so each zero is +0.0; read-only, as blocks share it."""
    x, w = np.arange(1 << q)[:, None] >> np.arange(q - 1, -1, -1) & 1, np.arange(2)[:, None]  # x[i, qubit]
    signs = 1 - 2 * (sum(x[:, i] & x[:, j] for i, j in edges) + w * x[:, list(touching)].sum(axis=1) & 1)
    (terms := signs * ((x[:, -2] ^ x[:, -1]) == w if hub else 1) * 2 ** (-q / 2)).flags.writeable = False
    return terms


def _register(n_systems, ks, target_vecs) -> _Register:
    """The participating register before step 1, read off the participating channel graph's edges in one pass
    (`CrioTopology(len(ks)).edges`, which `crio_graph` wraps): the separator {a2, a_{N+2}} must have one neighbour
    set, and without it a1 must stand alone and each group (a_k, a_{k+N}) be one pair, else a ValueError names
    the edges at fault.  Each part is a block of `_block_terms` (the hub: a1 and the separator) and its target."""
    m, js, labels, blocks = len(ks), [k + n_systems for k in ks], [], []
    name = dict(enumerate([f"a{v}" for v in [1, *ks, *js]], 1))  # the graph's vertices
    near, sep, parts = [set() for _ in range(2 * m + 2)], {2, m + 2}, [(1,), *((k, k + m) for k in range(3, m + 2))]
    for u, v in CrioTopology(m).edges:
        near[u].add(v), near[v].add(u)
    for what, odd in (("the channel graph's hub edges differ from the sign rule's",  # an edge one end of sep lacks
                       {tuple(sorted(sep if x in sep else {x, *sep - near[x]})) for x in near[2] ^ near[m + 2]}),
                      ("without a2 and a_{N+2}, besides a1 alone, the channel graph is not one pair per group",
                       {(v, x) for part in parts for v in part for x in near[v] - sep ^ set(part) - {v} if v < x})):
        if odd:
            raise ValueError(f"{what}: " + ", ".join(f"{name[u]}-{name[v]}" for u, v in sorted(odd)))
    for t, part in enumerate(parts):  # part t's last qubit, a_{N+2} or a group's a_{k+N}, holds target t
        qubits = (*part, 2, m + 2) if (hub := part == (1,)) else part
        edges = tuple((i, j) for j, v in enumerate(part) for i in range(j) if part[i] in near[v])
        terms = _block_terms(len(qubits), edges, tuple(i for i, v in enumerate(part) if v in near[2]), hub)
        labels.append((*map(name.get, qubits), target_label(js[t])))
        blocks.append((terms[:, :, None] * target_vecs[ks[t] - 2]).reshape(2, -1))
    order = (*name.values(), *map(target_label, js))
    return _Register(order, labels, blocks, [a.conj() @ a.T for a in blocks], np.ones(()))


def _apply(a: np.ndarray, labels: tuple, step: Step, out: np.ndarray | None = None) -> np.ndarray:
    """Gate `step` on the last axis of `a`, over qubits `labels`, for every leading index (both
    terms on every branch axis of a block), into `out` (a contiguous array of a's shape) or a new array."""
    at, m = labels.index(step.qubit), step.matrix
    if step.control is not None:
        rows = (-1, a.shape[-1])
        return _apply_controlled(a.reshape(rows), labels.index(step.control), at, m,
                                 None if out is None else out.reshape(rows)).reshape(a.shape)
    v = a.reshape(a.shape[:-1] + (1 << at, 2, -1))
    return np.einsum("ij,...hjl->...hil", m, v, out=None if out is None else out.reshape(v.shape)).reshape(a.shape)


def _padded(a: np.ndarray, axes: int) -> np.ndarray:
    """Block array `a` with size-1 branch axes in front, up to `axes` of them."""
    return a if a.ndim == axes + 2 else a.reshape((1,) * (axes + 2 - a.ndim) + a.shape)


def _run(reg: _Register, plan, rule):
    """The one executor of a plan: every branch that `rule` keeps, at once, on the block form.

    A measurement on block i weighs each outcome's component of block i by the other blocks' Gram
    matrices, num, and asks `rule(step, p)` which outcomes to keep, where p = num / norm2 holds
    outcome o's probability on every branch at p[o].  Keeping both puts a new branch axis in
    front, outcome 0 first: on block i (its components), on the joint arrays (num becomes norm2)
    and on each block an outcome-1 fix acts on ([b, fix(b)]).
    Every other array keeps size 1 there, and blocks stay unnormalised, so no block is copied per
    branch.  Keeping one outcome adds no axis.  A step that crosses blocks is refused.  `_keep_both`
    weighs only the last measurement, whose num, over the final Gram matrices, is the final norm2; a
    kept outcome of probability at most 1e-12 leaves a branch at most about that, so a final norm2
    not above 2e-12 walks the plan again, weighing each step.  Returns the register after the plan,
    whose norm2 is each branch's squared norm (its probability, from a register of unit norm), the
    branches' outcome bits, rows in the order of a depth-first walk with outcome 0 first, and the
    measured steps; `reg` itself is left as it was."""
    labels, blocks, grams, norm2 = list(reg.labels), list(reg.blocks), list(reg.grams), reg.norm2
    where = {q: i for i, block in enumerate(labels) for q in block}
    kept, measured, axes = [], [], 0  # axes counts the branch axes
    last = max((s for s, step in enumerate(plan) if step.basis is not None), default=None)
    for s, step in enumerate(plan):
        i = where.get(step.qubit)
        if i is None or step.control is not None and where.get(step.control) != i:
            raise ValueError(f"no block holds {step.qubit}" + (f" and {step.control}" if step.control else ""))
        if step.basis is None:
            blocks[i] = _apply(blocks[i], labels[i], step)
            continue
        at = labels[i].index(step.qubit)
        a = _padded(blocks[i], axes)
        c = _basis_components(a.reshape(a.shape[:-1] + (1 << at, 2, -1)), step.basis)  # [..., w, high, outcome, low]
        c = c.transpose((c.ndim - 2, *range(c.ndim - 2), c.ndim - 1)).reshape((2,) + a.shape[:-1] + (-1,))
        overlaps = np.einsum("...wi,...vi->...wv", c.conj(), c)  # c and overlaps lead with the outcome
        if rule is _keep_both and s != last:
            outcomes, num = (0, 1), None
        else:
            others = grams[:i] + grams[i + 1:]
            weight = reduce(np.multiply, others) if others else np.ones((2, 2))  # the other blocks' [..., w, w']
            num = np.einsum("...wv,...wv->...", overlaps, weight).real
            p = num / norm2
            outcomes = rule(step, p)
        both = len(outcomes) == 2
        keep = slice(None) if both else outcomes[0]
        if rule is not _keep_both and p[keep].min() <= 1e-12:
            outcome = next(o for o in outcomes if p[o].min() <= 1e-12)
            raise ValueError(f"cannot keep a zero-probability outcome ({step.qubit}, basis {step.basis}, "
                             f"outcome {outcome})")
        del where[step.qubit]
        labels[i] = labels[i][:at] + labels[i][at + 1:]
        blocks[i], grams[i], norm2 = c[keep], overlaps[keep], norm2 if num is None else num[keep]
        split = {i}  # the blocks with size 2 on this measurement's axis
        for fix, _ in step.on_one if outcomes[-1] == 1 else ():  # on the outcome-1 branches
            j = where[fix.qubit]
            if not both:
                blocks[j] = _apply(blocks[j], labels[j], fix)
                continue
            b = blocks[j] if j in split else _padded(blocks[j], axes + 1)
            blocks[j] = np.empty((2,) + b.shape[1:], dtype=b.dtype)
            blocks[j][0] = b[0]
            _apply(b[-1:], labels[j], fix, out=blocks[j][1:])  # a fix is unitary: grams[j] stays
            split.add(j)
        axes += both
        kept.append(outcomes)
        measured.append(step)
    if rule is _keep_both and not norm2.min() > 2e-12:  # a NaN too
        return _run(reg, plan, lambda step, p: (0, 1))
    out = _Register(tuple(q for q in reg.order if q in where), labels, blocks, grams, norm2)
    return out, _bits(kept), measured


def _bits(kept) -> np.ndarray:
    """The (B, m) outcome bits of a run whose m measurements kept the outcome tuples `kept`, rows in
    depth-first order: a kept-both measurement's bit is the row index's bit at its branch axis, whose
    place is the number of kept-both measurements after it; a kept-one measurement's is its outcome."""
    both, first = [len(t) - 1 for t in kept], [t[0] for t in kept]
    if not any(both):  # one branch
        return np.array([first], dtype=np.uint8)
    place, mask, first = np.array([list(accumulate(both[::-1], initial=0))[-2::-1], both, first], dtype=np.int32)
    return (np.arange(1 << sum(both), dtype=np.int32)[:, None] >> place & mask | first).astype(np.uint8)


def _gather(a: np.ndarray, rows: np.ndarray, axes: int) -> np.ndarray:
    """The (R, 2, d) slices of block array `a` on the given rows (depth-first order) of a run with
    `axes` branch axes: a row's bit k picks its index on the axis k places from the newest."""
    k = a.ndim - 2
    if not k:
        return a[None]  # the same on every row, as the rows broadcast it
    return a[(*((rows >> (axes - k + l)) & (a.shape[l] - 1) for l in range(k)),)]


def _terms(arrays) -> np.ndarray:
    """Term by term, the Kronecker product of (..., 2, d_i) block arrays over their broadcast
    leading axes: one (..., 2, prod d_i) array."""
    def kron(acc, a):
        t = acc[..., :, None] * a[..., None, :]
        return t.reshape(t.shape[:-2] + (t.shape[-2] * t.shape[-1],))

    return reduce(kron, arrays)


def _dense(factors, order: tuple, norm2: np.ndarray, rows=slice(None)) -> np.ndarray:
    """The (R, 2**n) normalised dense rows on qubits `order` of the given rows of (block qubits, block
    array) `factors`, whose rows have the squared norms `norm2` (one per row, depth-first order)."""
    labels = tuple(chain.from_iterable(block for block, _ in factors))
    index, axes = np.arange(len(norm2))[rows], len(norm2).bit_length() - 1  # 2**axes rows
    t = _terms([_gather(a, index, axes) for _, a in factors]).sum(axis=1) / np.sqrt(norm2[rows])[:, None]
    t = t.reshape((len(t),) + (2,) * len(labels)).transpose([0] + [1 + labels.index(q) for q in order])
    return t.reshape(len(t), 1 << len(order))


def _expected_kets(n_systems, axes, betas, target_vecs, ks) -> dict:
    """Each participating target O_{k+N} rotated by its exp(i*beta*sigma_n); `ks` ascend, so O order."""
    return {target_label(k + n_systems): rotation(axes[k - 2], betas[k - 2]) @ target_vecs[k - 2] for k in ks}


def _fidelities(factors, kets: dict, norm2: np.ndarray) -> np.ndarray:
    """|<expected| (x) I|row>| for each branch of the block `factors`, whose squared norm is
    `norm2`, normed over the qubits `kets` does not name (a1 on a denied run).  A block's target is
    its last qubit; each block is contracted with its target's expected ket before the blocks are
    multiplied out over their broadcast branch axes.  Rows in depth-first order."""
    contracted = [a.reshape(a.shape[:-1] + (-1, 2)) @ kets[labels[-1]].conj() if labels[-1] in kets else a
                  for labels, a in factors]
    return np.ravel((np.linalg.norm(_terms(contracted).sum(axis=-2), axis=-1) / np.sqrt(norm2)).T)


def _branches(reg: _Register, plan, kets: dict, rule) -> Branches:
    """The branches of `plan` that `rule` keeps, with their fidelity to the expected kets."""
    reg, bits, measured = _run(reg, plan, rule)
    factors = tuple(zip(reg.labels, reg.blocks))
    return Branches(tuple(measured), bits, np.ravel(reg.norm2.T), _fidelities(factors, kets, reg.norm2), reg.order,
                    factors)


def run_crio(
    n_systems: int,
    axes: Sequence[PauliAxis],
    betas: Sequence[float],
    targets: Sequence,
    mode: str = "enumerate",
    seed: int | None = None,
    permitted: bool = True,
    controlled_groups=None,
) -> ProtocolResult:
    """Run the full protocol, enumerating every branch or sampling one."""
    ks, plan, target_vecs = _setup(n_systems, axes, betas, targets, controlled_groups, permitted)
    n_systems = int(n_systems)  # a numpy integer count, and the systems it numbers, are reported as JSON numbers
    if mode not in ("enumerate", "sample"):
        raise ValueError("mode must be 'enumerate' or 'sample'")
    seed = None if seed is None else checked_int(seed, "seed", low=0)
    if mode == "sample" and seed is None:
        raise ValueError("sample mode needs a seed: without one its outcomes cannot be reproduced")
    kets = _expected_kets(n_systems, axes, betas, target_vecs, ks)
    rule = _drawn(np.random.default_rng(seed)) if mode == "sample" else _keep_both
    return ProtocolResult(
        n_systems=n_systems,
        permitted=permitted,
        participating_systems=tuple(k + n_systems for k in ks),
        expected_target=QuantumState._trusted(tuple(kets), reduce(np.multiply.outer, kets.values()).reshape(-1)),
        branches=_branches(_register(n_systems, ks, target_vecs), plan, kets, rule),
        mode=mode,
        seed=seed,
    )


# ----------------------------------------------------------------------
# control denial

@dataclass
class ControlDenialReport:
    n_systems: int
    purity_without_controller: float
    guess_branches: dict          # guess bit -> Branches
    best_guess: int
    best_guess_min_fidelity: float
    control_defeated: bool        # some guess reaches fidelity 1 on every branch


def control_denial_report(n_systems, axes, betas, targets) -> ControlDenialReport:
    """Controller declines: no step-3 measurement, no broadcast.

    Everyone else forges ahead, substituting a guessed bit for the unsent
    broadcast, and we enumerate what they can achieve.  The report also
    carries the purity of the non-controller reduced state after step 2.
    """
    ks, plan, target_vecs = _setup(n_systems, axes, betas, targets)
    lead = next(i for i, step in enumerate(plan) if step.basis is not None)  # the controller's step-3 measurement
    reg = _run(_register(n_systems, ks, target_vecs), plan[:lead], _keep_both)[0]
    # the register is pure, so a1's purity is that of the rest: a1 leads the hub block, whose two
    # terms' overlaps on its other qubits are weighted by the groups' Gram matrices
    hub = reg.blocks[0].reshape(2, 2, -1)  # [w, a1, rest]
    weight = reduce(np.multiply, reg.grams[1:], np.ones((2, 2)))  # [w', w] = <groups_w'|groups_w>
    pur = purity(np.einsum("wxs,vys,vw->xy", hub, hub.conj(), weight))
    kets = _expected_kets(n_systems, axes, betas, target_vecs, ks)

    fixes = [fix for fix, _ in plan[lead].on_one]
    guess_branches = {g: _branches(reg, fixes[:g * len(fixes)] + plan[lead + 1:], kets, _keep_both) for g in (0, 1)}

    worst = {g: float(brs.fidelities.min()) for g, brs in guess_branches.items()}
    best_guess = max(worst, key=lambda g: worst[g])
    return ControlDenialReport(
        n_systems=int(n_systems),
        purity_without_controller=pur,
        guess_branches=guess_branches,
        best_guess=best_guess,
        best_guess_min_fidelity=worst[best_guess],
        control_defeated=worst[best_guess] >= 1.0 - 1e-6,
    )


def denial_fidelity(axes, targets) -> float:
    """The fidelity of every branch of both guesses of `control_denial_report`, in O(N): sqrt((1 + z**2) / 2),
    with z = prod_k <psi_k|sigma_{n_k}|psi_k> over the unit target kets, real as each sigma_n is Hermitian.
    After the denied plan the w = 0 term holds the expected targets A and the w = 1 term B = (x)_k sigma_{n_k} A
    (sigma_n commutes with exp(i*beta*sigma_n)); tracing a1 leaves their equal mixture, so
    F**2 = (1 + <A|B>**2) / 2 with <A|B> = z.  So denial defeats control unless |z| = 1, which holds
    exactly when every target is an eigenstate of its sigma_n: then each rotation is only a phase.
    The targets are checked as `_setup` checks them; one per axis, and at least one."""
    if not len(axes) == len(targets) > 0:
        raise ValueError(f"one target per axis and at least one axis, got {len(axes)} axes and {len(targets)} targets")
    z = math.prod(np.vdot(t, pauli_axis_matrix(axis) @ t).real for axis, t in zip(axes, _unit_kets(targets)))
    return math.sqrt((1 + z * z) / 2)


# ----------------------------------------------------------------------
# step-by-step paths for cross-checking against the symbolic stator algebra

def run_checkpoints(
    n_systems,
    axes,
    betas,
    target_vecs,
    outcomes: Sequence[int],
    permitted: bool = True,
    controlled_groups=None,
):
    """Single forced-outcome path, recording the state after each step.

    The states hold the participating register only: under partial control
    they do not list the unwired groups' qubits."""
    ks, plan, target_vecs = _setup(n_systems, axes, betas, target_vecs, controlled_groups, permitted)
    reg, rule, checkpoints = _register(n_systems, ks, target_vecs), _forced(outcomes), []
    for tag in STEPS:
        if permitted or tag != "step3":
            reg = _run(reg, [step for step in plan if step.tag == tag], rule)[0]
            amps = _dense(tuple(zip(reg.labels, reg.blocks)), reg.order, reg.norm2.reshape(1))[0]
            checkpoints.append((tag, QuantumState._trusted(reg.order, amps)))
    return checkpoints


def step1_stator(n_systems: int, axes: Sequence[PauliAxis]) -> Stator:
    """Symbolic stator after step 1, read off the channel amplitude oracle."""
    _check_axes(n_systems, axes)
    n = 2 * n_systems + 1
    x = np.arange(2 ** n)
    coeffs = np.zeros((2 ** n, 2 ** n_systems), dtype=complex)
    # the word exponents are the bits of a_{N+2}..a_{2N+1}, the low N bits of x
    coeffs[x, x % 2 ** n_systems] = amplitude_oracle(n_systems, basis_bits(n))
    return Stator(qubit_labels(n_systems), axes, coeffs.reshape((2,) * (n + n_systems)))


def symbolic_checkpoints(n_systems, axes, betas, outcomes: Sequence[int]):
    """Stator transforms mirroring run_checkpoints on a permitted full run; it
    reads the first 1+N outcomes, those of steps 3 and 4."""
    _, plan, _ = _setup(n_systems, axes, betas)
    s, bits = step1_stator(n_systems, axes), iter(outcomes)
    checkpoints = [("step1", s)]
    for tag in STEPS[1:5]:
        for step in (step for step in plan if step.tag == tag):
            if step.basis is None:
                s = s.apply_control_unitary(step.qubit, step.matrix)
                continue
            outcome = _next_outcome(bits)
            s = s.project_control(step.qubit, step.basis, outcome)
            for fix, _ in step.on_one if outcome == 1 else ():
                s = s.apply_control_unitary(fix.qubit, fix.matrix)
        checkpoints.append((tag, s))
    return checkpoints


# ----------------------------------------------------------------------
# run-configuration files

_CONFIG_KEYS = ("n_systems", "axes", "betas", "targets", "mode", "seed", "permitted", "controlled_groups")


def run_config_to_dict(n_systems, axes, betas, targets, mode, seed, permitted, controlled_groups) -> dict:
    return {
        "n_systems": n_systems,
        "axes": [[ax.x, ax.y, ax.z] for ax in axes],
        "betas": [float(b) for b in betas],
        "targets": [[[complex(v[0]).real, complex(v[0]).imag], [complex(v[1]).real, complex(v[1]).imag]] for v in targets],
        "mode": mode,
        "seed": seed,
        "permitted": permitted,
        "controlled_groups": sorted(controlled_groups) if controlled_groups is not None else None,
    }


def _is_numbers(value, count: int | None = None) -> bool:
    """A list of finite JSON numbers, `count` of them when given."""
    return isinstance(value, list) and (count is None or len(value) == count) and all(map(is_finite_number, value))


def run_config_from_dict(data: dict) -> dict:
    """run_crio keyword arguments from a parsed configuration; a missing key
    or a value of the wrong shape raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("run configuration must be a JSON object")
    missing = [key for key in ("n_systems", "axes", "betas", "targets") if key not in data]
    if missing:
        raise ValueError(f"run configuration is missing {', '.join(missing)}")
    if unknown := sorted(data.keys() - set(_CONFIG_KEYS)):
        raise ValueError(f"run configuration: {unknown[0]} is not a key; the keys are {', '.join(_CONFIG_KEYS)}")
    axes, targets = data["axes"], data["targets"]
    seed, permitted = data.get("seed"), data.get("permitted", True)
    groups = data.get("controlled_groups")
    checks = (
        ("n_systems", is_int(data["n_systems"]), "an integer"),
        ("axes", isinstance(axes, list) and all(_is_numbers(xyz, 3) for xyz in axes),
         "a list of [x, y, z] axes"),
        ("betas", _is_numbers(data["betas"]), "a list of numbers"),
        ("targets", isinstance(targets, list) and all(
            isinstance(vec, list) and len(vec) == 2 and all(_is_numbers(c, 2) for c in vec) for vec in targets),
         "a list of targets, each two [re, im] pairs"),
        ("seed", seed is None or is_int(seed) and seed >= 0, "a non-negative integer or null"),
        ("permitted", isinstance(permitted, bool), "true or false"),
        ("controlled_groups", groups is None or (isinstance(groups, list) and all(map(is_int, groups))),
         "a list of integers or null"),
    )
    for key, ok, shape in checks:
        if not ok:
            raise ValueError(f"run configuration: {key} must be {shape}, got {data.get(key)!r}")
    return {
        "n_systems": data["n_systems"],
        "axes": [PauliAxis(*xyz) for xyz in axes],
        "betas": [float(b) for b in data["betas"]],
        "targets": [np.array([complex(re, im) for re, im in vec]) for vec in targets],
        "mode": data.get("mode", "enumerate"),
        "seed": seed,
        "permitted": permitted,
        "controlled_groups": frozenset(groups) if groups is not None else None,
    }


def load_run_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return run_config_from_dict(json.load(fh))
