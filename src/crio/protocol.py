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
entry point checks its inputs once, in `_setup`, which builds it.
`_initial_state` builds steps 1-2 into the register as one product; one
executor, `_walk`, runs the rest of a plan over dense states: one array row
per live branch (deferred measurement), with the exact probability of each.
At a measurement it asks an outcome rule which outcomes every row keeps: both
for enumeration and the control-denial guesses, one drawn from a seeded
generator for sample mode, or one forced outcome per measurement for the
checkpoints.  It refuses to keep an outcome of probability at most 1e-12 on
any row; no protocol run meets one, as each of its measurements is unbiased.
A run's branches are the walk's own arrays, a `Branches` table; each branch's
corrections and messages follow from its outcome bits.  The symbolic
checkpoints follow the same plan on stators.
"""
from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import getitem

import numpy as np

from .graphstate import (
    CrioTopology,
    amplitude_oracle,
    basis_bits,
    build_graph_state,
    crio_graph,
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
    _basis_components,
    _gate,
    check_register_size,
    is_finite_number,
    pauli_axis_matrix,
    product_state,
    purity,
    reduced_density,
    rotation,
)
from .stator import Stator

FIDELITY_TOL = 1e-10
BLOCK_ROWS = 256  # branches per string of Branches.json_blocks: a lower peak RSS than one string per report
_HOLE = "\0"  # a placeholder string no report value contains


class LocalityError(ValueError):
    """A party attempted an operation on a qubit it does not own."""


@dataclass(frozen=True)
class Party:
    id: str
    owned_qubits: frozenset
    knows_angle: float | None = None
    knows_axis: PauliAxis | None = None


@dataclass(frozen=True)
class ClassicalMessage:
    sender: str
    recipient: str
    step: str
    payload: int  # a single outcome bit; never angles or axes


@dataclass
class BranchRecord:
    outcomes: str
    probability: float
    corrections: tuple
    final_state: QuantumState
    fidelity: float
    transcript: tuple


@dataclass(frozen=True, eq=False)
class Branches(Sequence):
    """The branches a walk kept, as columns: row r of each array is branch r, in
    the order of a depth-first walk with outcome 0 first.

    A branch's corrections and messages follow from its outcome bits and the
    measured steps (`outcome_records`), so they are not stored: `branches[r]`,
    slices and iteration pick each branch's records by its bits row."""

    steps: tuple               # the measured Steps, in the order of each row's bits
    bits: np.ndarray           # (B, m) uint8 outcome bits
    probabilities: np.ndarray  # (B,)
    fidelities: np.ndarray     # (B,) fidelity to the expected target
    labels: tuple              # the qubits of every final state
    rows: np.ndarray           # (B, 2**len(labels)) final states

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, r):
        if isinstance(r, slice):
            return list(self._records(r))
        r = range(len(self))[r]  # IndexError past either end, as for a list
        return next(self._records(slice(r, r + 1)))

    def __iter__(self):
        return self._records(slice(None))

    def _records(self, rows: slice):
        records = [outcome_records(step) for step in self.steps]
        for row, amps, p, fidelity in zip(self.bits[rows].tolist(), self.rows[rows],
                                          self.probabilities[rows].tolist(), self.fidelities[rows].tolist()):
            picked = list(map(getitem, records, row))
            yield BranchRecord("".join(map(str, row)), p, tuple(chain.from_iterable(c for c, _ in picked)),
                               QuantumState._trusted(self.labels, amps), fidelity,
                               tuple(chain.from_iterable(m for _, m in picked)))

    def json_blocks(self):
        """The branch list as json.dumps(report, sort_keys=True, indent=2) writes it under a
        top-level key, in strings of at most BLOCK_ROWS branches.  A branch is a fixed sequence
        of columns, each an object array of shared strings picked from a small piece table by
        the rows' bits, so no Python code runs per branch; a block joins its rows of the table."""
        if not len(self):
            yield "[]"
            return
        bits, records = self.bits, [outcome_records(step) for step in self.steps]
        quoted = np.pad(bits + ord("0"), ((0, 0), (1, 1)), constant_values=ord('"'))
        messages = [[[{"from": m.sender, "to": m.recipient, "step": m.step, "payload": m.payload} for m in msgs]
                     for _, msgs in pair] for pair in records]
        values = {  # the columns of each key of a branch's JSON object, in sorted key order
            "corrections": _list_columns([[fixes for fixes, _ in pair] for pair in records], bits),
            "fidelity": [_float_column(self.fidelities)],
            "outcomes": [quoted.view(f"S{quoted.shape[1]}")[:, 0].astype(str).astype(object)],
            "probability": [_float_column(self.probabilities)],
            "transcript": _list_columns(messages, bits),
        }
        frame = _nested(dict.fromkeys(values, _HOLE), 2).split(json.dumps(_HOLE))
        columns = [",\n" + frame[0]]
        for column, piece in zip(values.values(), frame[1:]):
            columns += [*column, piece]
        table = np.hstack([np.full((len(bits), 1), c, dtype=object) if isinstance(c, str) else c.reshape(len(bits), -1)
                           for c in columns])
        table[0, 0] = "[\n" + frame[0]
        for start in range(0, len(table), BLOCK_ROWS):
            yield "".join(table[start:start + BLOCK_ROWS].ravel().tolist())
        yield "\n  ]"


def _nested(value, depth: int) -> str:
    """json.dumps(value, sort_keys=True, indent=2) as it reads `depth` levels deep."""
    return "  " * depth + json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)


def _pick(pieces: list, index: np.ndarray) -> np.ndarray:
    """The column pieces[index[r]] of shared strings."""
    return np.array(pieces, dtype=object)[index]


def _float_column(values: np.ndarray) -> np.ndarray:
    """float.__repr__ of each value, as the json encoder writes a finite float,
    rendered once per bit pattern, so -0.0 and NaN keep their own text."""
    patterns, index = np.unique(values.view(np.uint64), return_inverse=True)
    return _pick([float.__repr__(v) for v in patterns.view(np.float64).tolist()], index)


def _list_columns(items: list, bits: np.ndarray) -> list:
    """The columns of a JSON list three levels deep to which measurement i adds items[i][b] on bit
    b: an opener, a (B, k) block of pieces for the k measurements that add any item, a closer.  A
    piece leads with the item separator unless the row's items start there; no items read []."""
    texts = [[",\n".join(_nested(item, 4) for item in added) for added in pair] for pair in items]
    adding = [i for i, pair in enumerate(texts) if any(pair)]  # the measurements that add any item
    bit = np.ascontiguousarray(bits[:, adding])  # C order, so the column table and its row blocks are too
    added = np.array([[bool(t) for t in texts[i]] for i in adding], dtype=bool).reshape(-1, 2)[range(len(adding)), bit]
    pieces = [t and sep + t for i in adding for sep in ("", ",\n") for t in texts[i]]
    block = _pick(pieces, 4 * np.arange(len(adding)) + 2 * (added.cumsum(axis=1) > added) + bit)
    nonempty = added.any(axis=1).view(np.uint8)
    return [_pick(["[]", "[\n"], nonempty), block, _pick(["", "\n      ]"], nonempty)]


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
    def measurements(self) -> tuple:
        """The measurement Steps, in the order of each branch's outcome bits."""
        return self.branches.steps

    @property
    def measurement_count(self) -> int:
        return len(self.measurements)

    def min_fidelity(self) -> float:
        return float(self.branches.fidelities.min())

    def total_probability(self) -> float:
        return sum(self.branches.probabilities.tolist())  # left to right: np.sum's pairwise order moves the last bit

    def summary_json(self) -> dict:
        """The JSON fields of the report other than its branch list."""
        return {
            "n_systems": self.n_systems,
            "permitted": self.permitted,
            "participating_systems": list(self.participating_systems),
            "mode": self.mode,
            "seed": self.seed,
            "measurement_count": self.measurement_count,
        }

    def to_json_dict(self) -> dict:
        return {**self.summary_json(), "branches": json.loads("".join(self.branches.json_blocks()))}


def build_parties(
    n_systems: int,
    axes: Sequence[PauliAxis],
    betas: Sequence[float],
) -> dict:
    """Ownership partition plus who knows which secret."""
    parties = {"A1": Party("A1", frozenset({"a1"}))}
    for k in range(2, n_systems + 2):
        parties[f"A{k}"] = Party(f"A{k}", frozenset({f"a{k}"}), knows_angle=float(betas[k - 2]))
    for j in range(n_systems + 2, 2 * n_systems + 2):
        parties[f"A{j}"] = Party(
            f"A{j}",
            frozenset({f"a{j}", target_label(j)}),
            knows_axis=axes[j - (n_systems + 2)],
        )
    return parties


def assert_local(parties: dict, actor: str, labels: Sequence[str]) -> None:
    owned = parties[actor].owned_qubits
    for lab in labels:
        if lab not in owned:
            raise LocalityError(f"party {actor} does not own qubit {lab!r}")


# ----------------------------------------------------------------------
# engine

STEPS = ("step1", "step2", "step3", "step4", "step5", "step6")


@dataclass(frozen=True, eq=False)
class Step:
    """One local operation of the plan: a 2x2 gate, or a one-qubit measurement.

    A gate acts on `qubit`, controlled by `control` when that is set; a
    measurement has a `basis`, sends its bit to `messages_to` and, on
    outcome 1, applies each (fix step, label) pair of `on_one`.
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
    """Refuse N < 1, or a channel plus targets (3N+1 qubits) above MAX_QUBITS."""
    if n_systems < 1:
        raise ValueError("need at least one remote system")
    check_register_size(3 * n_systems + 1)


def _check_axes(n_systems, axes) -> None:
    """Refuse a bad system count, or axes that are not one PauliAxis per system."""
    check_system_count(n_systems)
    if len(axes) != n_systems or not all(isinstance(axis, PauliAxis) for axis in axes):
        raise ValueError("axes must be one PauliAxis per remote system")


def _setup(n_systems, axes, betas, targets=None, controlled_groups=None, permitted=True):
    """Every input of a protocol entry point, checked once before anything is allocated.
    Returns the participating groups ks (2 and the controlled optional groups,
    ascending), their step plan, and the target kets (None without targets)."""
    _check_axes(n_systems, axes)
    if len(betas) != n_systems or targets is not None and len(targets) != n_systems:
        raise ValueError("axes, betas and targets must each have one entry per system")
    if not all(map(math.isfinite, betas)):
        raise ValueError("betas must be finite")
    target_vecs = None if targets is None else [
        t.amplitudes if isinstance(t, QuantumState) else np.asarray(t, dtype=complex).reshape(-1) for t in targets]
    for v in target_vecs or ():
        if v.shape != (2,):
            raise ValueError("target systems are single qubits")
        with np.errstate(over="ignore"):  # a norm beyond the float range reads inf and is refused
            if not abs(np.linalg.norm(v) - 1.0) <= 1e-8:  # so is a NaN norm
                raise ValueError("target states must be normalized")
    ks = [2] + sorted(CrioTopology(n_systems, controlled_groups).controlled_groups)
    return ks, _plan(n_systems, axes, betas, ks, permitted), target_vecs


def _initial_state(n_systems, ks, target_vecs, lead=()) -> QuantumState:
    """The participating register after `lead`, a run of the plan's leading gates (none: before
    step 1): the channel graph state on a1, each participating group's a_k and then each a_{k+N},
    tensor their targets O_{k+N}, in the same order.  An unwired group's edge (a_k, a_{k+N}) joins
    no participating vertex, so these carry the full-control channel graph of len(ks) systems.
    Uncontrolled gates (step 2's H) act on the small channel vector alone.  A step-1 gate sigma_n
    from a_j onto O_j makes O_j's ket the table (psi_j, sigma_n psi_j), picked by the bit of a_j;
    the a_j are the channel's last qubits, in target order, so amplitude (c, x, t) of the register
    is channel[c, x] * T[x, t], T the Kronecker product of the tables.  Other leads are refused."""
    js = [k + n_systems for k in ks]
    heads, controls, targets = [f"a{v}" for v in [1] + ks], [f"a{j}" for j in js], [target_label(j) for j in js]
    channel = build_graph_state(crio_graph(CrioTopology(len(ks))), heads + controls)
    amps, tables = channel.amplitudes, [target_vecs[k - 2][None] for k in ks]
    for step in lead:
        if step.basis is not None or step.control is None and step.qubit not in heads:
            kind = "measurement" if step.basis else "gate"
            raise ValueError(f"cannot build a {kind} on {step.qubit} into the register")
        if step.control is None:
            amps = _gate(amps.reshape(1 << channel.labels.index(step.qubit), 2, -1), step.matrix).reshape(-1)
            continue
        if dict(zip(controls, targets)).get(step.control) != step.qubit:
            raise ValueError(f"a controlled gate {step.control} -> {step.qubit} is not a step-1 gate a_j -> O_j")
        i = controls.index(step.control)
        tables[i] = np.stack([tables[i][0], step.matrix @ tables[i][-1]])
    if len({len(table) for table in tables}) > 1:
        raise ValueError("step-1 gates on only some groups")
    table = reduce(np.kron, tables)
    register = amps.reshape(-1, len(table))[:, :, None] * table[None]
    return QuantumState._trusted(channel.labels + tuple(targets), register.reshape(-1))


def _plan(n_systems, axes, betas, ks, permitted=True) -> list:
    """The six steps for participating groups `ks`, each owned by its actor.  The inputs
    are trusted, as `_setup` checked them: each gate is unitary by construction."""
    parties = build_parties(n_systems, axes, betas)

    def step(tag, actor, qubit, matrix=None, control=None, basis=None, messages_to=(), on_one=()):
        assert_local(parties, actor, (qubit,) if control is None else (control, qubit))
        return Step(tag, actor, qubit, matrix, control, basis, messages_to, on_one)

    n = n_systems
    plan = [
        step("step1", f"A{k + n}", target_label(k + n), pauli_axis_matrix(axes[k - 2]), control=f"a{k + n}")
        for k in ks
    ]
    plan += [step("step2", f"A{k}", f"a{k}", HADAMARD) for k in ks if k >= 3]
    if permitted:
        fixes = tuple((step("step3", f"A{k}", f"a{k}", PAULI_X), f"sigma_x a{k}") for k in ks)
        recipients = tuple(f"A{k}" for k in ks)
        plan.append(step("step3", "A1", "a1", basis="X", messages_to=recipients, on_one=fixes))
    for k in ks:
        sigma_z = step("step4", f"A{k}", f"a{k}", PAULI_Z)
        plan.append(step("step4", f"A{k + n}", f"a{k + n}", basis="X", messages_to=(f"A{k}",),
                         on_one=((sigma_z, f"sigma_z a{k}"),)))
    plan += [step("step5", f"A{k}", f"a{k}", rotation(X_AXIS, betas[k - 2])) for k in ks]
    for k in ks:
        target = target_label(k + n)
        i_sigma_n = step("step6", f"A{k + n}", target, 1j * pauli_axis_matrix(axes[k - 2]))
        plan.append(step("step6", f"A{k}", f"a{k}", basis="Z", messages_to=(f"A{k + n}",),
                         on_one=((i_sigma_n, f"i*sigma_n {target}"),)))
    return plan


def _keep_both(step: Step, p: np.ndarray) -> tuple:
    """The enumeration's outcome rule: both outcomes."""
    return (0, 1)


def _drawn(rng: np.random.Generator):
    """Sample mode's outcome rule: one outcome drawn from rng, as `qcore.measure` draws it."""
    return lambda step, p: (0 if rng.random() < p[0, 0] else 1,)


def _next_outcome(bits) -> int:
    """The next of an iterator of forced outcomes; running out, or one not 0 or 1, is a ValueError."""
    for outcome in map(int, bits):
        if outcome not in (0, 1):
            raise ValueError("outcome must be 0 or 1")
        return outcome
    raise ValueError("too few outcomes: the plan measures more qubits")


def _forced(outcomes):
    """The checkpoints' outcome rule: the next of `outcomes`."""
    bits = iter(outcomes)
    return lambda step, p: (_next_outcome(bits),)


def _project(rows: np.ndarray, ax: int, step: Step, rule):
    """Each row of a (B, 2**n) array measured by `step` on qubit position `ax`: the outcomes `rule`
    keeps on every row, (B, kept) probabilities and the (B, kept, ...) normalized components.  An
    outcome kept at probability at most 1e-12 on any row is refused."""
    c = _basis_components(rows.reshape(len(rows), 1 << ax, 2, -1), step.basis)
    f = c.view(np.float64)
    p = np.einsum("bijk,bijk->bj", f, f)
    outcomes = rule(step, p)
    for outcome in outcomes:
        if (p[:, outcome] <= 1e-12).any():
            raise ValueError(f"cannot keep a zero-probability outcome ({step.qubit}, basis {step.basis}, "
                             f"outcome {outcome})")
    span = slice(outcomes[0], outcomes[-1] + 1)
    post = np.empty((len(rows), len(outcomes)) + c.shape[1:2] + c.shape[3:], dtype=complex)
    np.divide(c[:, :, span].transpose(0, 2, 1, 3), np.sqrt(p[:, span])[:, :, None, None], out=post)
    return outcomes, p[:, span], post


def _walk(state: QuantumState, plan, rule):
    """The one dense executor of a plan: every branch that `rule` keeps, at once.

    Row r of `rows` is the normalized state of the r-th live branch, of probability probs[r]
    and outcome bits bits[r].  A measurement splits every row into the outcomes `rule` keeps,
    outcome 0 first, so rows stay in the order of a depth-first walk; outcome-1 rows get the
    step's corrections.  Returns the final labels, rows, probs and bits, and the measured steps.
    """
    labels, rows = state.labels, state.amplitudes.reshape(1, -1)
    del state  # so the first kernel frees a state passed as a temporary: a lower heap peak on large registers
    probs, kept, measured = np.ones(1), [], []
    for step in plan:
        if step.control is not None:
            raise ValueError(f"the walk applies no controlled gate ({step.control} -> {step.qubit})")
        ax = labels.index(step.qubit)
        if step.basis is None:
            rows = _gate(rows.reshape(len(rows) << ax, 2, -1), step.matrix).reshape(len(rows), -1)
            continue
        outcomes, p, rows = _project(rows, ax, step, rule)  # rebinding rows frees the measured ones
        labels = labels[:ax] + labels[ax + 1:]
        for fix, _ in step.on_one if outcomes[-1] == 1 else ():  # on the outcome-1 half of every row
            half = rows[:, -1].reshape(len(p), 1 << labels.index(fix.qubit), 2, -1)
            half[...] = _gate(half, fix.matrix)
        rows, probs = rows.reshape(p.size, -1), (probs[:, None] * p).reshape(-1)
        kept.append(np.array(outcomes, dtype=np.uint8))
        measured.append(step)
    # every branch's bits, the product of the kept outcomes in the rows' order
    bits = np.array(np.meshgrid(*kept, indexing="ij"), dtype=np.uint8).reshape(len(kept), len(rows)).T.copy()
    return labels, rows, probs, bits, measured


def _expected_state(n_systems, axes, betas, target_vecs, ks) -> QuantumState:
    """Each participating target O_{k+N} rotated by its exp(i*beta*sigma_n); `ks` ascend, so O order."""
    return product_state([target_label(k + n_systems) for k in ks],
                         [rotation(axes[k - 2], betas[k - 2]) @ target_vecs[k - 2] for k in ks])


def _fidelities(rows: np.ndarray, labels: tuple, expected: QuantumState) -> np.ndarray:
    """|<expected|row>| for each row of a (B, 2**n) array on `labels`; when the
    rows hold more qubits than `expected`, sqrt(<expected|rho|expected>) of each
    row's reduced state."""
    e = expected.amplitudes.conj()
    if labels == expected.labels:
        return np.abs(rows @ e)
    keep = [labels.index(lab) for lab in expected.labels]
    rest = [i for i in range(len(labels)) if i not in keep]
    t = rows.reshape((len(rows),) + (2,) * len(labels)).transpose([0] + [1 + i for i in keep + rest])
    w = np.einsum("k,bkr->br", e, t.reshape(len(rows), len(e), -1))  # <expected| (x) I on each row
    return np.sqrt(np.clip(np.einsum("br,br->b", w, w.conj()).real, 0.0, 1.0))


def outcome_records(step: Step) -> tuple:
    """What outcomes 0 and 1 of measurement `step` append to a branch: a
    (corrections, messages) pair for each."""
    labels = tuple(label for _, label in step.on_one)
    return tuple((labels if bit else (), tuple(ClassicalMessage(step.actor, r, step.tag, bit) for r in step.messages_to))
                 for bit in (0, 1))


def _branches(state: QuantumState, plan, expected: QuantumState, rule) -> Branches:
    """The branches of `plan` that `rule` keeps, with their fidelity to `expected`."""
    labels, rows, probs, bits, measured = _walk(state, plan, rule)
    return Branches(tuple(measured), bits, probs, _fidelities(rows, labels, expected), labels, rows)


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
    if mode not in ("enumerate", "sample"):
        raise ValueError("mode must be 'enumerate' or 'sample'")
    expected = _expected_state(n_systems, axes, betas, target_vecs, ks)
    lead = next(i for i, step in enumerate(plan) if step.basis is not None)
    rule = _drawn(np.random.default_rng(seed)) if mode == "sample" else _keep_both
    # the register goes in as a temporary, so the walk's first measurement frees it
    branches = _branches(_initial_state(n_systems, ks, target_vecs, plan[:lead]), plan[lead:], expected, rule)
    return ProtocolResult(
        n_systems=n_systems,
        permitted=permitted,
        participating_systems=tuple(k + n_systems for k in ks),
        expected_target=expected,
        branches=branches,
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
    state = _initial_state(n_systems, ks, target_vecs, plan[:lead])
    pur = purity(reduced_density(state, ["a1"]))  # the register is pure: a1's purity is that of the rest
    expected = _expected_state(n_systems, axes, betas, target_vecs, ks)

    fixes = [fix for fix, _ in plan[lead].on_one]
    guess_branches = {g: _branches(state, fixes[:g * len(fixes)] + plan[lead + 1:], expected, _keep_both)
                      for g in (0, 1)}

    worst = {g: float(brs.fidelities.min()) for g, brs in guess_branches.items()}
    best_guess = max(worst, key=lambda g: worst[g])
    return ControlDenialReport(
        n_systems=n_systems,
        purity_without_controller=pur,
        guess_branches=guess_branches,
        best_guess=best_guess,
        best_guess_min_fidelity=worst[best_guess],
        control_defeated=worst[best_guess] >= 1.0 - 1e-6,
    )


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
    checkpoints = [(tag, _initial_state(n_systems, ks, target_vecs, [s for s in plan if s.tag in STEPS[:i]]))
                   for i, tag in enumerate(STEPS[:2], 1)]  # steps 1-2, the gates before the first measurement
    state, rule = checkpoints[-1][1], _forced(outcomes)
    for tag in STEPS[2:]:
        if permitted or tag != "step3":
            labels, rows, *_ = _walk(state, [step for step in plan if step.tag == tag], rule)
            state = QuantumState._trusted(labels, rows.reshape(-1))
            checkpoints.append((tag, state))
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
    axes, targets = data["axes"], data["targets"]
    seed, permitted = data.get("seed"), data.get("permitted", True)
    groups = data.get("controlled_groups")
    checks = (
        ("n_systems", _is_int(data["n_systems"]), "an integer"),
        ("axes", isinstance(axes, list) and all(_is_numbers(xyz, 3) for xyz in axes),
         "a list of [x, y, z] axes"),
        ("betas", _is_numbers(data["betas"]), "a list of numbers"),
        ("targets", isinstance(targets, list) and all(
            isinstance(vec, list) and len(vec) == 2 and all(_is_numbers(c, 2) for c in vec) for vec in targets),
         "a list of targets, each two [re, im] pairs"),
        ("seed", seed is None or _is_int(seed) and seed >= 0, "a non-negative integer or null"),
        ("permitted", isinstance(permitted, bool), "true or false"),
        ("controlled_groups", groups is None or (isinstance(groups, list) and all(map(_is_int, groups))),
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
