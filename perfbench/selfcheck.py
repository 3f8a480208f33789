"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

For every workload, two traced runs with one seed must report identical
per-layer counts and identical report bytes, and a run with another seed
must have generated different inputs.  (Within each traced run, run.py
already checks that counts repeat across traced passes, that report bytes
match between untraced and traced passes, and that the trace's branch and
restart counts equal those in crio's own reports.)  Finally run.py must
refuse to run, with a non-zero exit code and no result line, in a
directory that holds only BENCHMARK.json and perfbench/.

Exit code 0 when every check passes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED, OTHER_SEED, SECONDS = 1, 2, 1


def run(seed: int, workload: str, cwd: Path = ROOT, timeout: float = 600) -> tuple:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=timeout, check=False)
    digests = {}
    for line in proc.stdout.splitlines():
        if line.startswith("digest "):
            _, kind, value = line.split()
            digests[kind] = value
    return proc, digests


def main() -> int:
    failures = []
    for name in workloads.WORKLOADS:
        runs = [run(SEED, name), run(SEED, name), run(OTHER_SEED, name)]
        for proc, _ in runs:
            if proc.returncode != 0 or not json.loads(proc.stdout.splitlines()[-1])["correct"]:
                failures.append(f"{name}: a traced run failed:\n{proc.stderr}")
        (_, a), (_, b), (_, c) = runs
        for kind in ("counts", "reports"):
            if a.get(kind) is None or a.get(kind) != b.get(kind):
                failures.append(f"{name}: {kind} differ between two runs with seed {SEED}")
        if a.get("inputs") is None or a.get("inputs") == c.get("inputs"):
            failures.append(f"{name}: seeds {SEED} and {OTHER_SEED} gave the same inputs")
        print(f"{name}: counts {a.get('counts', '?')[:12]} reports {a.get('reports', '?')[:12]} "
              f"inputs {a.get('inputs', '?')[:12]} / {c.get('inputs', '?')[:12]}")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc, _ = run(SEED, "enumerate", cwd=bare, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("run.py did not refuse to run without crio's sources")
    print(f"without crio's sources: exit code {proc.returncode}, {proc.stderr.strip()}")

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("self-checks passed" if not failures else f"{len(failures)} self-check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
