"""The four crio workloads: seeded inputs, items and per-item correctness checks.

Each workload is a sequence of cycles of items.  A cycle's structure
(which command, register size, control pattern) is fixed; the seed only
draws its numbers (axes, angles, targets, local unitaries, optimizer
seeds), so every seed and every cycle asks for about the same amount of
work.  Item counts are chosen so that the median and the 90th percentile of
item times fall where many items take about the same time: inside a group
of like items, or where the times of two groups overlap, rather than in a
gap between two groups.

An item's `run` is what gets timed; its `check` reads the outputs afterwards
and returns an `Outcome`.  Items reach crio only through module attributes
(``cli.main``, ``gs.crio_channel_state``...), looked up at call time, so the
tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

PIPELINE_TOL = 1e-10
GM_TOL = 1e-6
PROBES = (
    np.array([1, 0], dtype=complex),
    np.array([1, 1], dtype=complex) / math.sqrt(2),
    np.array([1, 1j], dtype=complex) / math.sqrt(2),
)


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    report_bytes: int = 0          # size of the CLI report, 0 for API items
    digest: str = ""               # sha256 of the CLI report
    branches: int | None = None    # branches listed in a run-protocol report
    restarts: int | None = None    # restarts listed in a gm report


@dataclass
class Item:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    qubits: int                    # largest register the item touches


@dataclass
class Pool:
    cycles: list                   # lists of items, one per cycle, each with fresh draws
    inputs_digest: str             # sha256 of the first cycle's inputs

    @property
    def max_qubits(self) -> int:
        return max(item.qubits for item in self.cycles[0])


# ----------------------------------------------------------------------
# seeded input generation (independent of crio)

def _unit_vector(rng) -> list:
    while True:
        v = rng.normal(size=3)
        n = float(np.linalg.norm(v))
        if n > 1e-6:
            return [float(x) for x in v / n]


def _qubit(rng) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def _random_unitary(rng) -> np.ndarray:
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / abs(d))


def _protocol_config(rng, n: int, groups: int | None, permitted: bool, mode: str) -> dict:
    """A run-protocol --config file; `groups` optional groups stay controlled (None: all)."""
    chosen = None
    if groups is not None:
        chosen = sorted(int(g) for g in rng.choice(np.arange(3, n + 2), size=groups, replace=False))
    targets = [_qubit(rng) for _ in range(n)]
    return {
        "n_systems": n,
        "axes": [_unit_vector(rng) for _ in range(n)],
        "betas": [float(b) for b in rng.uniform(0, 2 * math.pi, n)],
        "targets": [[[float(v[0].real), float(v[0].imag)], [float(v[1].real), float(v[1].imag)]] for v in targets],
        "mode": mode,
        "seed": int(rng.integers(2**31)),
        "permitted": permitted,
        "controlled_groups": chosen,
    }


def channel_sign_exponent(n: int, bits: np.ndarray) -> np.ndarray:
    """f(x) of the full-control channel state, amplitude (-1)^f / (2^N sqrt 2).

    `bits` has one row per qubit a1..a(2N+1) (row 0 is a1)."""
    q = np.vstack([np.zeros_like(bits[:1]), bits])  # 1-based rows
    f = (q[1] & q[2]) ^ (q[1] & q[n + 2])
    for k in range(3, n + 2):
        f ^= (q[2] & q[k]) ^ (q[k] & q[n + 2]) ^ (q[k] & q[k + n])
    return f


def _channel_amplitudes(n: int) -> np.ndarray:
    nq = 2 * n + 1
    idx = np.arange(2**nq)
    bits = np.array([(idx >> (nq - 1 - i)) & 1 for i in range(nq)])
    return (1 - 2 * channel_sign_exponent(n, bits)) / (2**n * math.sqrt(2))


def _rotated_channel_state(rng, n: int) -> dict:
    """Channel state under seeded local unitaries: same GM (= N), complex amplitudes."""
    nq = 2 * n + 1
    t = _channel_amplitudes(n).astype(complex).reshape([2] * nq)
    for ax in range(nq):
        t = np.moveaxis(np.tensordot(_random_unitary(rng), np.moveaxis(t, ax, 0), axes=(1, 0)), 0, ax)
    amps = t.reshape(-1)
    return {"labels": [f"a{i}" for i in range(1, nq + 1)],
            "amplitudes": [[float(a.real), float(a.imag)] for a in amps]}


# ----------------------------------------------------------------------
# running and checking

def _cli_runner(cli, argv: list) -> Callable[[], int]:
    def run() -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)
    return run


def _cli_check(out_path: Path, verify: Callable[[bytes], Outcome]) -> Callable[[object], Outcome]:
    def check(rc) -> Outcome:
        if isinstance(rc, BaseException):
            return Outcome(False, f"raised {rc!r}")
        if rc != 0:
            return Outcome(False, f"exit code {rc}")
        data = out_path.read_bytes()
        result = verify(data)
        result.report_bytes = len(data)
        result.digest = hashlib.sha256(data).hexdigest()
        return result
    return check


def _api_check(verify: Callable[[object], Outcome]) -> Callable[[object], Outcome]:
    def check(value) -> Outcome:
        if isinstance(value, BaseException):
            return Outcome(False, f"raised {value!r}")
        return verify(value)
    return check


def _protocol_verify(expected_branches: int, permitted: bool, enumerate_mode: bool):
    def verify(data: bytes) -> Outcome:
        report = json.loads(data)
        branches = report["branches"]
        total = sum(b["probability"] for b in branches)
        min_fid = min(b["fidelity"] for b in branches)
        if len(branches) != expected_branches:
            return Outcome(False, f"{len(branches)} branches, expected {expected_branches}")
        if enumerate_mode and abs(total - 1.0) > PIPELINE_TOL:
            return Outcome(False, f"branch probabilities sum to {total!r}")
        if not enumerate_mode and not 0.0 < total <= 1.0 + PIPELINE_TOL:
            return Outcome(False, f"sampled branch probability {total!r}")
        if permitted and min_fid < 1 - PIPELINE_TOL:
            return Outcome(False, f"min branch fidelity {min_fid!r}")
        return Outcome(True, branches=len(branches))
    return verify


def _gm_verify(expected_g: float):
    def verify(data: bytes) -> Outcome:
        report = json.loads(data)
        if abs(report["G"] - expected_g) > GM_TOL:
            return Outcome(False, f"G = {report['G']!r}, expected {expected_g}")
        return Outcome(True, restarts=int(report["restarts"]))
    return verify


# ----------------------------------------------------------------------
# workloads

class _Builder:
    def __init__(self, crio, workdir: Path, seed: int, salt: int):
        self.crio = crio
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, salt])
        self.items: list = []
        self.cycle = 0
        self.digest = hashlib.sha256()

    # `workdir` is relative to the checkout root, the working directory, so
    # that argv, and the reports that echo it, do not depend on where the
    # checkout lives.
    def write(self, name: str, payload: dict) -> Path:
        path = self.workdir / f"c{self.cycle}-{name}"
        data = json.dumps(payload, sort_keys=True).encode()
        path.write_bytes(data)
        self.digest.update(name.encode() + b"\0" + data)
        return path

    def cli(self, kind: str, argv: list, qubits: int, verify: Callable[[bytes], Outcome]) -> None:
        out = self.workdir / f"out-{len(self.items)}"  # reused by every cycle
        argv = argv + ["--out", str(out)]
        self.digest.update(" ".join(argv).encode() + b"\0")
        self.items.append(Item(kind, _cli_runner(self.crio.cli, argv), _cli_check(out, verify), qubits))

    def api(self, kind: str, run: Callable[[], object], qubits: int, verify: Callable[[object], Outcome],
            description: str) -> None:
        self.digest.update(description.encode() + b"\0")
        self.items.append(Item(kind, run, _api_check(verify), qubits))

    def next_cycle(self) -> list:
        items, self.items = self.items, []
        return items


# (n, optional groups kept under control or None for all, permitted, count); 20 items,
# the median inside the eight 128-branch N=5 runs, p90 inside the full N=5 runs.
ENUMERATE_MIX = (
    (4, 1, True, 3),        # 32 branches
    (4, None, False, 1),    # 256 branches, controller declines
    (4, 2, True, 1),        # 128 branches
    (5, 2, True, 8),        # 128 branches
    (4, None, True, 2),     # 512 branches
    (5, 3, True, 1),        # 512 branches
    (5, None, False, 1),    # 1024 branches, controller declines
    (5, None, True, 3),     # 2048 branches
)


def _protocol_items(b: _Builder, mix, mode: str) -> None:
    for n, groups, permitted, count in mix:
        for _ in range(count):
            cfg = _protocol_config(b.rng, n, groups, permitted, mode)
            path = b.write(f"config-{len(b.items)}.json", cfg)
            n_groups = 1 + (n - 1 if groups is None else groups)
            measurements = (1 if permitted else 0) + 2 * n_groups
            expected = 2**measurements if mode == "enumerate" else 1
            b.cli(f"run-protocol n={n} {mode}", ["run-protocol", "--config", str(path)], 3 * n + 1,
                  _protocol_verify(expected, permitted, mode == "enumerate"))


def build_enumerate(b: _Builder) -> None:
    _protocol_items(b, ENUMERATE_MIX, "enumerate")


def build_large_register(b: _Builder) -> None:
    gs = b.crio.graphstate

    def prep(n: int) -> None:
        nq = 2 * n + 1
        sample = b.rng.integers(0, 2**nq, size=1024)

        def verify(state) -> Outcome:
            amps = state.amplitudes
            if state.labels != tuple(f"a{i}" for i in range(1, nq + 1)):
                return Outcome(False, f"labels {state.labels}")
            norm = float(np.linalg.norm(amps))
            if abs(norm - 1) > PIPELINE_TOL:
                return Outcome(False, f"norm {norm!r}")
            bits = np.array([(sample >> (nq - 1 - i)) & 1 for i in range(nq)])
            expected = (1 - 2 * channel_sign_exponent(n, bits)) / (2**n * math.sqrt(2))
            err = float(np.max(np.abs(amps[sample] - expected)))
            if err > 1e-12:
                return Outcome(False, f"sampled amplitudes differ from the sign oracle by {err!r}")
            return Outcome(True)

        b.api(f"crio_channel_state n={n}", lambda: gs.crio_channel_state(gs.CrioTopology(n)), nq,
              verify, f"prep {n} {sample.tolist()}")

    # 6 x 19-qubit preparation (median), 2 x sample N=6, 2 x 21-qubit preparation (p90)
    for _ in range(6):
        prep(9)
    _protocol_items(b, ((6, None, True, 2),), "sample")
    for _ in range(2):
        prep(10)


def build_gm(b: _Builder) -> None:
    def family(name: str, n: int, count: int) -> None:
        for _ in range(count):
            seed = int(b.rng.integers(2**31))
            b.cli(f"gm {name} n={n}",
                  ["gm", "--family", name, "--n", str(n), "--restarts", "16", "--seed", str(seed)],
                  2 * n + 1, _gm_verify(float(n)))

    def general(n: int, count: int) -> None:
        for _ in range(count):
            path = b.write(f"state-h{2 * n + 1}-{len(b.items)}.json", _rotated_channel_state(b.rng, n))
            seed = int(b.rng.integers(2**31))
            b.cli(f"gm general h{2 * n + 1}",
                  ["gm", "--state", str(path), "--mode", "general", "--restarts", "16", "--seed", str(seed)],
                  2 * n + 1, _gm_verify(float(n)))

    # 50 items.  A solve's time depends on its seed through the sweeps each
    # restart needs, with a long tail on the two slowest kinds (channel N=4,
    # general h7).  Keeping those to 6 items puts p90 inside them and the
    # median where the phi and general h5 times overlap; simulated from measured per-item times,
    # this mix halves the spread of p90 across workload seeds against equal
    # counts of each kind.
    family("phi", 4, 24)
    general(2, 12)
    family("h2n1", 3, 8)
    family("h2n1", 4, 4)
    general(3, 2)


def build_control(b: _Builder) -> None:
    crio = b.crio
    povm, proto, stator, qcore = crio.povm, crio.protocol, crio.stator, crio.qcore

    def rate_verify(expected: float):
        def verify(data: bytes) -> Outcome:
            rate = json.loads(data)["success_rate"]
            return Outcome(rate == expected, f"success rate {rate}, expected {expected}")
        return verify

    def sweep_verify(data: bytes) -> Outcome:
        rates = [r["success_rate"] for r in json.loads(data)["sweep"]]
        expected = [0.5 if m % 8 == 0 else 0.25 for m in range(64)]
        return Outcome(rates == expected, "sweep success rates off the 1/2 vs 1/4 dichotomy")

    def table_verify(which: str):
        def verify(data: bytes) -> Outcome:
            lines = data.decode().splitlines()
            rows = [line.split(",") for line in lines[2:]]
            if not lines[0].startswith("# artifact_version=") or len(rows) != 8:
                return Outcome(False, f"table {which}: {len(rows)} rows")
            if which == "III" and [r[9] for r in rows] != ["0.5"] * 4 + ["0.25"] * 4:
                return Outcome(False, "table III success-rate column")
            return Outcome(True)
        return verify

    def verify_all_verify(data: bytes) -> Outcome:
        report = json.loads(data)
        ok = report["failures"] == 0 and all(c["passed"] for c in report["checks"])
        return Outcome(ok, "verify-all reported a failing check")

    def alpha(multiple_of_quarter_pi: bool) -> None:
        if multiple_of_quarter_pi:
            m = int(b.rng.integers(0, 8))
            text, expected = f"{m}pi/4", 0.5
        else:
            while True:
                value = float(b.rng.uniform(0, 2 * math.pi))
                if abs(value / (math.pi / 4) - round(value / (math.pi / 4))) > 1e-6:
                    break
            text, expected = repr(value), 0.25
        b.cli("control-power --alpha", ["control-power", "--alpha", text], 3, rate_verify(expected))

    def outcome_probabilities() -> None:
        params = [povm.PovmParams.random_valid(b.rng) for _ in range(4)]

        def run():
            return [povm.outcome_probability(p, j, k) for p in params for j in (1, 2) for k in (1, 2)]

        def verify(probs) -> Outcome:
            worst = max(abs(p - 0.25) for p in probs)
            return Outcome(worst <= PIPELINE_TOL, f"outcome probability off 1/4 by {worst!r}")

        b.api("outcome_probability x16", run, 3, verify, f"povm {params!r}")

    def stator_cross_check(n: int) -> None:
        axes = [qcore.PauliAxis(*_unit_vector(b.rng)) for _ in range(n)]
        betas = [float(x) for x in b.rng.uniform(0, 2 * math.pi, n)]
        outcomes = [int(x) for x in b.rng.integers(0, 2, size=1 + 2 * n)]
        t_labels = [f"O{j}" for j in range(n + 2, 2 * n + 2)]

        def run():
            sym = dict(proto.symbolic_checkpoints(n, axes, betas, outcomes))
            runs = [dict(proto.run_checkpoints(n, axes, betas, [v] * n, outcomes)) for v in PROBES]
            probes = [qcore.product_state(t_labels, [v] * n) for v in PROBES]
            return [
                stator.stator_from_state([r[tag] for r in runs], sym[tag].control_labels, t_labels, axes, probes)
                .equal_terms(sym[tag], up_to_scale=True, tol=PIPELINE_TOL)
                for tag in ("step1", "step2", "step3", "step4", "step5")
            ]

        def verify(agreements) -> Outcome:
            return Outcome(all(agreements), f"dense and symbolic stators disagree: {agreements}")

        b.api(f"stator cross-check n={n}", run, 3 * n + 1, verify, f"stator {n} {axes} {betas} {outcomes}")

    # 20 items: the median inside the eight outcome-probability batches, p90 inside verify-all
    for i in range(4):
        alpha(multiple_of_quarter_pi=i % 2 == 0)
    b.cli("reproduce-tables II", ["reproduce-tables", "II"], 3, table_verify("II"))
    b.cli("reproduce-tables III", ["reproduce-tables", "III"], 3, table_verify("III"))
    stator_cross_check(2)
    for _ in range(8):
        outcome_probabilities()
    stator_cross_check(3)
    b.cli("control-power --sweep 64", ["control-power", "--sweep", "64"], 3, sweep_verify)
    for _ in range(3):
        b.cli("verify-all", ["verify-all", "--seed", str(int(b.rng.integers(2**31)))], 7, verify_all_verify)


# name: (builder, seed salt, cycles generated).  A run goes through the cycles in
# order and wraps around; enough are generated to cover one run on a 2-core
# box, so that seed-dependent work (GM sweep counts) is averaged over many
# draws instead of repeating a few.
WORKLOADS = {
    "enumerate": (build_enumerate, 1, 8),
    "large-register": (build_large_register, 2, 12),
    "gm": (build_gm, 3, 12),
    "control": (build_control, 4, 40),
}


def build(name: str, crio, workdir: Path, seed: int) -> Pool:
    """Write the seeded inputs of one workload under `workdir` and return its cycles."""
    builder_fn, salt, n_cycles = WORKLOADS[name]
    b = _Builder(crio, workdir, seed, salt)
    cycles, first_digest = [], None
    for b.cycle in range(n_cycles):
        builder_fn(b)
        cycles.append(b.next_cycle())
        first_digest = first_digest or b.digest.hexdigest()
    return Pool(cycles, first_digest)
