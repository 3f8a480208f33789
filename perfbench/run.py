"""crio benchmark: one closed-loop caller driving `crio.cli.main(argv)` in process.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 25 --trace 0

Workloads: enumerate, large-register, gm, control (see workloads.py), or
`all`, which runs the four, each in its own process, and prints one table.
The workload seed is an argument; crio only sees the generated config,
state and angle inputs, written under .perfbench/ in the checkout.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the workload's
first cycle of items untraced and traced, in alternating pairs, and reports
per-layer counts and self times from the traced passes plus the tracing
overhead; the spans of the first traced pass go to
.perfbench/spans-<workload>-seed<n>.jsonl.  Times are rescaled to a fixed
reference machine speed (speed.py); raw wall times are printed as wall.*.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 when the run
completed (even with failed items, which `correct` and `failed` report),
2 when crio's sources are missing or the arguments are wrong.
"""
from __future__ import annotations

import os
import sys

# Before numpy is imported: one BLAS thread (at most nproc).  No bytecode is
# written; main() also points the bytecode cache at an empty directory
# before crio is imported, so every set-up compiles crio from source whatever
# __pycache__ directories the source tree holds.
sys.dont_write_bytecode = True
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(1, os.cpu_count() or 1))

import argparse  # noqa: E402
import ctypes  # noqa: E402
import fcntl  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".perfbench")          # relative to ROOT, the working directory
SETUP_REPEATS = 5
MIN_ABOVE_P90 = 10                     # timed items above the 90th percentile
CRIO_MODULES = ("qcore", "graphstate", "stator", "protocol", "gm", "povm", "cli")
BRANCH_WORKLOADS = ("enumerate", "large-register")

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}
COUNT_METRICS_EXACT = ("calls", "bytes_computed", "amplitudes", "branches", "branches_pruned",
                       "branch_yield", "restarts", "sweeps", "sweeps_per_restart", "report_bytes")


@dataclass
class Record:
    kind: str
    wall: float
    seconds: float             # rescaled to the reference speed, see speed.py
    outcome: workloads.Outcome


# ----------------------------------------------------------------------
# set-up

def import_crio() -> SimpleNamespace:
    """Import crio from the checkout's sources, dropping any earlier import first."""
    for name in [n for n in sys.modules if n == "crio" or n.startswith("crio.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(**{m: importlib.import_module(f"crio.{m}") for m in CRIO_MODULES})


def set_up(name: str, seed: int, workdir: Path, clock: speed.ReferenceClock):
    """Import crio afresh, write the seeded inputs and run one untimed warm-up item.

    Returns the pool, the warm-up outcome and the set-up time in reference seconds."""
    t0 = time.perf_counter()
    crio = import_crio()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    pool = workloads.build(name, crio, workdir, seed)
    warm = run_item(pool.cycles[0][0], None).outcome
    return pool, warm, clock.rescale(time.perf_counter() - t0)


# ----------------------------------------------------------------------
# running

def run_item(item: workloads.Item, clock: speed.ReferenceClock | None) -> Record:
    t0 = time.perf_counter()
    try:
        value = item.run()
    except Exception as exc:  # a crashing item is a failed item, not a crashed benchmark
        value = exc
        traceback.print_exc(file=sys.stderr)
    wall = time.perf_counter() - t0
    seconds = clock.rescale(wall) if clock else wall
    try:
        outcome = item.check(value)
    except Exception as exc:
        outcome = workloads.Outcome(False, f"check raised {exc!r}")
    if not outcome.ok:
        print(f"FAILED {item.kind}: {outcome.detail}", file=sys.stderr)
    return Record(item.kind, wall, seconds, outcome)


def run_pass(items: list, clock: speed.ReferenceClock, tracer: tracing.Tracer | None = None) -> list:
    records = []
    for index, item in enumerate(items):
        if tracer is None:
            records.append(run_item(item, clock))
            continue
        tracer.item = index
        with tracer.span(f"item {item.kind}"):
            records.append(run_item(item, clock))
    return records


def timed_cycles(pool: workloads.Pool, seconds: float, clock: speed.ReferenceClock, repeat_setup) -> tuple:
    """Whole cycles until `seconds` have passed, ending within half a cycle of it,
    and until at least MIN_ABOVE_P90 items lie above the 90th percentile.

    After each of the first cycles the set-up is repeated (untimed for the
    items), so that the set-up times sample more than one stretch of the run."""
    records, setup_times, start, cycles = [], [], time.perf_counter(), 0
    while True:
        records += run_pass(pool.cycles[cycles % len(pool.cycles)], clock)
        cycles += 1
        if len(setup_times) < SETUP_REPEATS - 1:
            setup_times.append(repeat_setup())
        elapsed = time.perf_counter() - start
        above_p90 = len(records) - int(0.9 * len(records))
        if elapsed + 0.5 * elapsed / cycles >= seconds and above_p90 >= MIN_ABOVE_P90:
            return records, setup_times


def digest(records: list) -> str:
    return hashlib.sha256("".join(r.outcome.digest for r in records).encode()).hexdigest()


# ----------------------------------------------------------------------
# environment stamp

def _blas_threads():
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return getattr(lib, fn)()
    return None


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def environment(seed: int, pool: workloads.Pool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "seed": seed,
        "caches": _cache_sizes(),
        "largest_vector_qubits": pool.max_qubits,
        "largest_vector_bytes": 16 * 2**pool.max_qubits,
    }


# ----------------------------------------------------------------------
# one workload

def end_to_end(records: list, setup_s: float, wall: bool = False) -> dict:
    times = [r.wall if wall else r.seconds for r in records]
    return {
        "setup_s": setup_s,
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": 1e3 * statistics.median(times),
        "item_p90_ms": 1e3 * statistics.quantiles(times, n=10)[-1],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def self_checks(records: list, tracer: tracing.Tracer) -> list:
    """Where the program reports a count itself, the trace must agree with it."""
    problems = []
    branches, restarts = {}, {}
    for span in tracer.spans:
        if span[2] == "protocol.run":
            branches[span[5]] = branches.get(span[5], 0) + span[6]["branches"]
        elif span[2] == "gm.optimize":
            restarts[span[5]] = restarts.get(span[5], 0) + span[6]["restarts"]
    for index, rec in enumerate(records):
        if rec.outcome.branches is not None and branches.get(index) != rec.outcome.branches:
            problems.append(f"item {index}: trace saw {branches.get(index)} branches, "
                            f"the report lists {rec.outcome.branches}")
        if rec.outcome.restarts is not None and restarts.get(index) != rec.outcome.restarts:
            problems.append(f"item {index}: trace saw {restarts.get(index)} restarts, "
                            f"the report lists {rec.outcome.restarts}")
    return problems


def traced_pass(items: list, clock: speed.ReferenceClock) -> tuple:
    tracer = tracing.Tracer().install()
    try:
        return run_pass(items, clock, tracer), tracer
    finally:
        tracer.restore()


def traced_pairs(pool: workloads.Pool, seconds: float, clock: speed.ReferenceClock, spans_path: Path):
    """Untraced and traced passes over the first cycle, in pairs, for `seconds`.

    Which pass of a pair runs first alternates, so that neither side
    always gets the warmer caches.  Self times are rescaled to the
    reference speed like item times."""
    pairs, problems = [], []
    start = time.perf_counter()
    while True:
        if len(pairs) % 2 == 0:
            plain = run_pass(pool.cycles[0], clock)
            traced, tracer = traced_pass(pool.cycles[0], clock)
        else:
            traced, tracer = traced_pass(pool.cycles[0], clock)
            plain = run_pass(pool.cycles[0], clock)
        layers = tracing.layer_metrics(tracer.spans, tracer.collapsed)
        rescale = sum(r.seconds for r in traced) / sum(r.wall for r in traced)
        layers = {k: v * rescale if k.endswith("self_s") else v for k, v in layers.items()}
        layers["cli.report_bytes"] = sum(r.outcome.report_bytes for r in traced)
        overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1
        problems += self_checks(traced, tracer)
        if digest(plain) != digest(traced):
            problems.append("report bytes differ between the untraced and the traced pass")
        if not pairs:
            tracer.write(spans_path)
        pairs.append((plain, traced, layers, overhead))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(pairs) >= seconds:
            return pairs, problems


def per_layer(pairs: list) -> tuple:
    """Counts from the first traced pass (they must repeat exactly), times as medians."""
    first = pairs[0][2]
    problems = []
    metrics = {}
    for key, value in first.items():
        if key.endswith("self_s"):
            metrics[key] = statistics.median(p[2][key] for p in pairs)
        else:
            if any(p[2][key] != value for p in pairs):
                problems.append(f"{key} differs between traced passes")
            metrics[key] = value
    metrics["trace.overhead_frac"] = statistics.median(p[3] for p in pairs)
    return metrics, problems


def layer_unit(key: str) -> str:
    if key.endswith("self_s"):
        return "s"
    if key.endswith("bytes_computed") or key.endswith("report_bytes"):
        return "bytes"
    if key.endswith("amplitudes"):
        return "amplitudes"
    if key in ("protocol.branch_yield", "trace.overhead_frac"):
        return "ratio"
    if key == "gm.sweeps_per_restart":
        return "sweeps/restart"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = OUT_DIR / f"work-{name}"
    clock = speed.ReferenceClock()
    problems = []

    def set_up_once(directory: Path) -> tuple:
        pool, warm, setup_s = set_up(name, seed, directory, clock)
        if not warm.ok:
            problems.append(f"a set-up's warm-up item failed: {warm.detail}")
        return pool, setup_s

    try:
        pool, setup_s = set_up_once(workdir)
        print("env " + json.dumps(environment(seed, pool), sort_keys=True))
        if trace:
            pairs, more = traced_pairs(pool, seconds, clock, OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
            records = [r for plain, traced, _, _ in pairs for r in plain + traced]
            metrics, counts_problems = per_layer(pairs)
            problems += more + counts_problems
            units = {key: layer_unit(key) for key in metrics}
            counts = {k: v for k, v in metrics.items() if k.rsplit(".", 1)[-1] in COUNT_METRICS_EXACT}
            print("digest counts " + hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest())
        else:
            records, setup_times = timed_cycles(
                pool, seconds, clock, lambda: set_up_once(OUT_DIR / f"setup-{name}")[1])
            setup_times.append(setup_s)
            metrics = end_to_end(records, statistics.median(setup_times))
            units = dict(END_TO_END_UNITS)
            extra = {"fail_frac": (sum(not r.outcome.ok for r in records) / len(records), "ratio")}
            if name in BRANCH_WORKLOADS:
                branches = sum(r.outcome.branches or 0 for r in records)
                extra["branches_per_s"] = (branches / sum(r.seconds for r in records), "1/s")
            wall = end_to_end(records, float("nan"), wall=True)
            for key in ("items_per_s", "item_p50_ms", "item_p90_ms"):
                extra[f"wall.{key}"] = (wall[key], units[key])
            for key, (value, unit) in extra.items():
                print(f"metric {key} {value!r} {unit}")
            print(f"items {len(records)} timed; p90 has {len(records) - int(0.9 * len(records))} items above it")
        print("digest inputs " + pool.inputs_digest)
        print("digest reports " + digest(records[:len(pool.cycles[0])]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(OUT_DIR / f"setup-{name}", ignore_errors=True)
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}", file=sys.stderr)
    for key, value in metrics.items():
        print(f"metric {key} {value!r} {units[key]}")
    failed = sum(not r.outcome.ok for r in records)
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


# ----------------------------------------------------------------------
# all four workloads, each in its own process

def run_all(seed: int, seconds: float, trace: int) -> dict:
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        for line in lines[:-1]:
            print(f"   {line}")
        if proc.returncode != 0 or not lines:
            total["correct"] = False
            continue
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crio" / "__init__.py").is_file():
        print(f"crio sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.pycache_prefix = str(ROOT / OUT_DIR / "no-bytecode")  # never created, see the top of this file
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"{args.workload}.lock", "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # runs of one workload share its input directory
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
