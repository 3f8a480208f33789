"""The dense executor of a step plan, kept as an oracle for the block engine in `crio.protocol`.

The register is one dense vector; a run holds a (B, 2**n) array with one row per live branch
(deferred measurement).  Each gate is one `qcore` view-kernel pass over all rows, and each
measurement asks the same outcome rules (`protocol._keep_both`, `_drawn`, `_forced`) which
outcomes every row keeps, splits every row into them (outcome 0 first) and corrects the
outcome-1 rows.  `initial_state` builds the register after a lead of step-1 and step-2 gates as
one product of the channel graph state and a table of target kets.  `records` reads a branch
table's rows as `Branch` tuples, the form the per-node reference walk of the tests builds.
"""
from functools import reduce
from typing import NamedTuple

import numpy as np

from crio import protocol
from crio.graphstate import CrioTopology, build_graph_state, crio_graph, target_label
from crio.qcore import QuantumState, _basis_components, _gate, product_state


def initial_state(n_systems, ks, target_vecs, lead=()) -> QuantumState:
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


def expected_state(n_systems, axes, betas, target_vecs, ks) -> QuantumState:
    """Each participating target rotated by its exp(i*beta*sigma_n), as one product state."""
    kets = protocol._expected_kets(n_systems, axes, betas, target_vecs, ks)
    return product_state(list(kets), list(kets.values()))


def project(rows: np.ndarray, ax: int, step, rule):
    """Each row of a (B, 2**n) array measured by `step` on qubit position `ax`: the outcomes `rule`
    keeps on every row, (B, kept) probabilities and the (B, kept, ...) normalized components.  An
    outcome kept at probability at most 1e-12 on any row is refused."""
    c = _basis_components(rows.reshape(len(rows), 1 << ax, 2, -1), step.basis)
    f = c.view(np.float64)
    p = np.einsum("bijk,bijk->bj", f, f)
    outcomes = rule(step, p.T)  # [outcome, row], as the engine passes p
    for outcome in outcomes:
        if (p[:, outcome] <= 1e-12).any():
            raise ValueError(f"cannot keep a zero-probability outcome ({step.qubit}, basis {step.basis}, "
                             f"outcome {outcome})")
    span = slice(outcomes[0], outcomes[-1] + 1)
    post = np.empty((len(rows), len(outcomes)) + c.shape[1:2] + c.shape[3:], dtype=complex)
    np.divide(c[:, :, span].transpose(0, 2, 1, 3), np.sqrt(p[:, span])[:, :, None, None], out=post)
    return outcomes, p[:, span], post


def walk(state: QuantumState, plan, rule):
    """Every branch of `plan` that `rule` keeps, at once, over dense rows.

    Row r of `rows` is the normalized state of the r-th live branch, of probability probs[r]
    and outcome bits bits[r].  A measurement splits every row into the outcomes `rule` keeps,
    outcome 0 first, so rows stay in the order of a depth-first walk; outcome-1 rows get the
    step's corrections.  Returns the final labels, rows, probs and bits, and the measured steps.
    """
    labels, rows = state.labels, state.amplitudes.reshape(1, -1)
    probs, kept, measured = np.ones(1), [], []
    for step in plan:
        if step.control is not None:
            raise ValueError(f"the walk applies no controlled gate ({step.control} -> {step.qubit})")
        ax = labels.index(step.qubit)
        if step.basis is None:
            rows = _gate(rows.reshape(len(rows) << ax, 2, -1), step.matrix).reshape(len(rows), -1)
            continue
        outcomes, p, rows = project(rows, ax, step, rule)
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


def fidelities(rows: np.ndarray, labels: tuple, expected: QuantumState) -> np.ndarray:
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


def one_block(state: QuantumState):
    """`state` as a register of the block engine: one block of all its qubits, whose second term is 0."""
    block = np.stack([state.amplitudes, np.zeros_like(state.amplitudes)])
    return protocol._Register(state.labels, [state.labels], [block], [block.conj() @ block.T], np.ones(()))


def branches(state: QuantumState, plan, expected: QuantumState, rule) -> protocol.Branches:
    """The branches of `plan` that `rule` keeps, walked densely, as the engine's branch table:
    the final rows, each scaled to the square root of its probability as the engine leaves it, are one
    block whose second term is 0, with one branch axis per bit of the row index, the lowest bit first
    (the engine's newest measurement first)."""
    labels, rows, probs, bits, measured = walk(state, plan, rule)
    axes = len(rows).bit_length() - 1  # 2**axes rows
    scaled = rows * np.sqrt(probs)[:, None]
    block = np.stack([scaled, np.zeros_like(scaled)], axis=1).reshape((2,) * axes + (2, -1))
    factors = ((labels, block.transpose([*range(axes)][::-1] + [axes, axes + 1])),)
    return protocol.Branches(tuple(measured), bits, probs, fidelities(rows, labels, expected), labels, factors)


class Message(NamedTuple):
    """One broadcast bit: a measured step's actor sends its outcome to one recipient."""
    sender: str
    recipient: str
    step: str
    payload: int  # a single outcome bit; never angles or axes


class Branch(NamedTuple):
    """One branch of a run: its outcome string, probability, corrections, dense final state,
    fidelity and transcript of messages, in measurement order."""
    outcomes: str
    probability: float
    corrections: tuple
    final_state: QuantumState
    fidelity: float
    transcript: tuple


def records(branches: protocol.Branches, rows=slice(None)) -> list:
    """The given rows (a slice or row indices) of a branch table as `Branch` tuples: each row's
    corrections and messages rebuilt from its bits and the measured steps (outcome 1 applies a
    step's `on_one` fixes; either outcome is sent to each of its `messages_to`), and its final state
    from the block factors by `protocol._dense`."""
    finals = protocol._dense(branches.factors, branches.labels, branches.probabilities, rows)
    out = []
    for row, p, f, amps in zip(branches.bits[rows].tolist(), branches.probabilities[rows].tolist(),
                               branches.fidelities[rows].tolist(), finals):
        picked = list(zip(branches.steps, row))
        corrections = tuple(label for step, bit in picked if bit for _, label in step.on_one)
        transcript = tuple(Message(step.actor, r, step.tag, bit) for step, bit in picked for r in step.messages_to)
        out.append(Branch("".join(map(str, row)), p, corrections, QuantumState._trusted(branches.labels, amps), f,
                          transcript))
    return out
