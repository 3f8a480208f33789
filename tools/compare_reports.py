"""Run the crio report matrix against two source trees and compare the reports.

    python tools/compare_reports.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the `crio` package (a checkout's
`src/`). Each command runs as `python -m crio.cli ...` in its own subprocess
with PYTHONPATH set to one of them, and its standard output is the report.
Every command runs in one temporary working directory, into which the script
first writes the `gm --state`, `build-state --edge-list` and `run-protocol
--config` inputs under fixed relative names, so the path a report echoes does
not depend on where the directory is.
For every report the script prints "identical" (same exit code, same bytes)
or the largest numeric difference and where it occurs, and at the end one
line counting the identical reports and those that differ beyond 1e-12.
JSON reports are compared as trees; CSV and text output token by token, reading numeric
tokens (including complex cells) as numbers. Each run-protocol report of
NEW_SRC is also written once through `--out FILE`, and the file must hold
the bytes the command wrote to standard output.

When the two trees report different artifact versions (the JSON key, the CSV
`# artifact_version=` line or the text `artifact_version:` line), each report
of NEW_SRC is first converted to the old schema (`as_schema1`) and must then
hold OLD_SRC's bytes but for numbers within 1e-12. Its config hash may differ
only on the reports of HASH_MOVES, whose configurations hash differently since
version 0.2.0; elsewhere a config hash that differs is a mismatch.

Exit status 1 when any report differs in exit code, structure or a
non-numeric value, or in a number by more than 1e-12, or when a report file
differs from its standard output; 0 otherwise. Passing
the same directory twice checks that repeated runs are byte-identical.
"""
from __future__ import annotations

import cmath
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile

TOLERANCE = 1e-12
H5_EDGES = ((0, 1), (0, 3), (1, 2), (2, 3), (2, 4))  # the N=2 channel graph on a1..a5
# The `run-protocol --config` inputs: an N=3 enumeration that wires no optional group, an N=2
# sample run with one target written to eight decimals, which the run divides by its norm, and an
# N=2 enumeration written in integers, so its PauliAxis components are ints.
RUN_CONFIGS = {
    "base_group_only.json": {
        "n_systems": 3, "axes": [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]], "betas": [0.4, 1.3, 2.2],
        "targets": [[[1.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.0, 0.8]], [[0.0, 0.0], [1.0, 0.0]]],
        "mode": "enumerate", "seed": 7, "permitted": True, "controlled_groups": []},
    "eight_decimals.json": {
        "n_systems": 2, "axes": [[0.0, 1.0, 0.0], [0.6, 0.0, 0.8]], "betas": [0.7, 2.9],
        "targets": [[[0.70710678, 0], [0.70710678, 0]], [[0.6, 0.0], [0.0, 0.8]]],
        "mode": "sample", "seed": 11, "permitted": True, "controlled_groups": None},
    "integer_valued.json": {
        "n_systems": 2, "axes": [[1, 0, 0], [0, 0, -1]], "betas": [0, 3],
        "targets": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
        "mode": "enumerate", "seed": 7, "permitted": True, "controlled_groups": None},
}
# The matrix reports whose config hash version 0.2.0 moved, each tagged with its FOUND line of
# CHANGES.md: 48, the resolved N of a fixed-size family is hashed; 51, gm --state refuses --family,
# whose default its hash held.
HASH_MOVES = (
    (("build-state", "h3"), "FOUND 48"),
    (("gm", "--family", "h3"), "FOUND 48"),
    (("gm", "--family", "h5", "--format", "text"), "FOUND 48"),
    (("gm", "--state", "h5.json", "--mode", "general"), "FOUND 51"),
    (("gm", "--state", "random7.json", "--mode", "general", "--restarts", "16", "--seed", "3"), "FOUND 51"),
)
# A report's provenance field as its JSON key, its CSV comment line or its text line writes it
_FIELD = {key: re.compile(rf'^(?:  "{key}": "|#.* {key}=|{key}: )([^"\s]+)', re.M)
          for key in ("artifact_version", "config_hash")}


def report_matrix() -> list:
    """The argv of every report compared, in a fixed order."""
    runs = []
    for n in (1, 2, 3, 4):
        for seed in (1, 7, 11):
            base = ["run-protocol", "--n", str(n), "--seed", str(seed)]
            runs += [base, base + ["--permitted", "false"], base + ["--mode", "sample"]]
    runs += [
        ["run-protocol", "--n", "5", "--groups", "4,6"],
        ["run-protocol", "--n", "5", "--groups", "4,6", "--mode", "sample"],
        ["run-protocol", "--n", "4", "--groups", "3"],
        ["run-protocol", "--n", "4", "--groups", "5", "--permitted", "false"],
        ["run-protocol", "--n", "5"],
        ["run-protocol", "--n", "5", "--permitted", "false"],
        # enumerations whose branch axes interleave participating and unwired groups
        ["run-protocol", "--n", "6", "--groups", "3,5"],
        ["run-protocol", "--n", "5", "--groups", "4", "--permitted", "false"],
        ["run-protocol", "--n", "3", "--permitted", "false", "--mode", "sample"],
        ["run-protocol", "--n", "3", "--format", "text"],
        ["run-protocol", "--n", "6", "--mode", "sample"],
        ["run-protocol", "--n", "6", "--groups", "3,5", "--permitted", "false", "--mode", "sample"],
        ["run-protocol", "--n", "7", "--mode", "sample"],
        ["run-protocol", "--n", "7", "--groups", "3,6", "--permitted", "false", "--mode", "sample"],
        # special angles, where a degenerate outcome would show first
        ["run-protocol", "--n", "2", "--axis", "z", "--alpha", "pi/2"],
        ["run-protocol", "--n", "3", "--axis", "x", "--alpha", "0", "--permitted", "false"],
        *(["run-protocol", "--config", name] for name in RUN_CONFIGS),
        ["verify-all"],
        ["control-power", "--sweep", "64"],
        ["control-power", "--sweep", "360"],
        *(["control-power", "--alpha", a] for a in ("0", "pi/4", "3pi/4", "3pi/2", "0.7", "1.5707963267947966")),
        ["control-power", "--alpha", "5pi/4", "--format", "text"],
        ["reproduce-tables", "I"],
        ["reproduce-tables", "II"],
        ["reproduce-tables", "III"],
        ["gm", "--family", "h2n1", "--n", "3"],
        ["gm", "--family", "phi", "--n", "3"],
        ["gm", "--family", "h3"],
        ["gm", "--family", "h5", "--format", "text"],
        ["gm", "--family", "phi", "--n", "2", "--format", "text"],
        ["gm", "--state", "h5.json", "--mode", "general"],
        ["gm", "--state", "random7.json", "--mode", "general", "--restarts", "16", "--seed", "3"],
        # one and two restarts: no runner-up, and a runner-up that is the only other row
        ["gm", "--family", "h2n1", "--n", "2", "--restarts", "1"],
        ["gm", "--family", "phi", "--n", "2", "--restarts", "2", "--seed", "5"],
        ["build-state", "h3"],
        ["build-state", "h5", "--n", "2", "--format", "text"],
        ["build-state", "h2n1", "--n", "3", "--format", "csv"],  # prints the signed zero imaginary parts
        ["build-state", "h2n1", "--n", "4", "--groups", "3,5"],
        ["build-state", "h2n1", "--n", "3", "--groups", ""],  # no optional group wired
        ["build-state", "h2n1", "--n", "13"],  # refused: exit 2 and empty stdout, so the exit code is compared
        ["build-state", "phi", "--n", "2"],
        ["build-state", "h2n1", "--n", "2", "--format", "text"],
        # 2**17 amplitudes, written in many blocks of rows
        ["build-state", "--edge-list", "random17.txt"],
        ["build-state", "--edge-list", "random17.txt", "--format", "csv"],
    ]
    return runs


def write_state_files(directory: str) -> None:
    """The matrix's input files: for `gm --state`, h5.json, the graph state of
    H5_EDGES, whose amplitudes are those of `build-state h5` bit for bit, and
    random7.json, a seeded 7-qubit state with complex amplitudes; for
    `build-state --edge-list`, random17.txt, a seeded graph on 17 vertices; for
    `run-protocol --config`, the files of RUN_CONFIGS."""
    h5 = [(-1) ** sum((i >> (4 - u)) & (i >> (4 - v)) & 1 for u, v in H5_EDGES) * 2 ** -2.5 for i in range(32)]
    rng = random.Random(22)
    raw = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(128)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in raw))
    states = {"h5.json": ([f"a{i}" for i in range(1, 6)], h5),
              "random7.json": ([f"q{i}" for i in range(7)], [a / norm for a in raw])}
    for name, (labels, amps) in states.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump({"labels": labels, "amplitudes": [[complex(a).real, complex(a).imag] for a in amps]}, fh)
    rng = random.Random(17)
    edges = [(u, v) for u in range(1, 18) for v in range(u + 1, 18) if rng.random() < 0.2]
    with open(os.path.join(directory, "random17.txt"), "w", encoding="utf-8") as fh:
        fh.write("n=17\n" + "".join(f"{u} {v}\n" for u, v in edges))
    for name, config in RUN_CONFIGS.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(config, fh)


def run_report(src: str, argv: list, cwd: str) -> tuple:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "crio.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd, check=False)
    return proc.returncode, proc.stdout


def file_matches_stdout(src: str, argv: list, stdout: str, cwd: str) -> bool:
    """Whether `argv` run with `--out FILE` writes to FILE the bytes it wrote to standard output."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report")
        run_report(src, [*argv, "--out", path], cwd)
        with open(path, "rb") as fh:
            return fh.read() == stdout.encode()


def field(text: str, key: str):
    """A report's artifact_version or config_hash, or None when it has none."""
    match = _FIELD[key].search(text)
    return match and match.group(1)


def with_field(text: str, key: str, value: str) -> str:
    """The report with its artifact_version or config_hash replaced by `value`."""
    match = _FIELD[key].search(text)
    return text[:match.start(1)] + value + text[match.end(1):]


def as_schema1(text: str, version: str) -> str:
    """A report of schema 2 (version 0.2.0 on) as schema 1 writes it, marked `version`.  A
    run-protocol JSON report lists each measured step once, under "measurements"; each branch's
    corrections are then the "on_one" labels of its steps of bit 1, and its transcript one message
    of its bit per recipient of each step.  The text report drops its measurements line."""
    text = with_field(text, "artifact_version", version)
    try:
        report = json.loads(text)
    except ValueError:  # CSV or text
        return re.sub(r"^measurements: .*\n", "", text, count=1, flags=re.M)
    if not isinstance(report, dict) or "measurements" not in report:
        return text
    steps = report.pop("measurements")
    for branch in report["branches"]:
        bits = [int(b) for b in branch["outcomes"]]
        branch["corrections"] = [fix for step, bit in zip(steps, bits) if bit for fix in step["on_one"]]
        branch["transcript"] = [{"from": step["from"], "payload": bit, "step": step["step"], "to": to}
                                for step, bit in zip(steps, bits) for to in step["to"]]
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


class Mismatch(Exception):
    """The two reports differ in something other than a number's value."""


def _parse(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return [re.split(r"[,\s]+", line.strip()) for line in text.splitlines()]


def _number(value):
    """A float or complex for numeric JSON values and tokens, else None."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        for kind in (float, complex):
            try:
                return kind(value)
            except ValueError:
                pass
    return None


def max_difference(old, new, path: str = "") -> tuple:
    """(largest |old - new| over paired numbers, its path); raises Mismatch."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            raise Mismatch(f"{path or '/'}: keys differ")
        pairs = [(old[k], new[k], f"{path}/{k}") for k in old]
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            raise Mismatch(f"{path or '/'}: {len(old)} vs {len(new)} entries")
        pairs = [(a, b, f"{path}/{i}") for i, (a, b) in enumerate(zip(old, new))]
    else:
        if old == new and type(old) is type(new):
            return 0.0, path
        a, b = _number(old), _number(new)
        if a is None or b is None:
            raise Mismatch(f"{path or '/'}: {old!r} vs {new!r}")
        if cmath.isnan(a) and cmath.isnan(b):
            return 0.0, path
        diff = abs(a - b)
        if math.isnan(diff):  # NaN on one side only, or inf - inf
            raise Mismatch(f"{path or '/'}: {old!r} vs {new!r}")
        return diff, path
    worst = (0.0, path)
    for a, b, sub in pairs:
        worst = max(worst, max_difference(a, b, sub), key=lambda d: d[0])
    return worst


def as_old(cmd: list, old_out: str, new_out: str) -> tuple:
    """NEW_SRC's report as OLD_SRC's schema writes it, when their versions differ, with OLD_SRC's
    config hash on a report of HASH_MOVES, and a note saying what was converted."""
    version, new_version = field(old_out, "artifact_version"), field(new_out, "artifact_version")
    if None in (version, new_version) or new_version == version:
        return new_out, ""
    new_out, old_hash = as_schema1(new_out, version), field(old_out, "config_hash")
    found = dict(HASH_MOVES).get(tuple(cmd))
    if found and field(new_out, "config_hash") != old_hash:
        return with_field(new_out, "config_hash", old_hash), f" (as {version}; config_hash moved, {found})"
    return new_out, f" (as {version})"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/compare_reports.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = args
    failed = identical = 0
    with tempfile.TemporaryDirectory() as cwd:
        write_state_files(cwd)
        for cmd in report_matrix():
            name = " ".join(cmd)
            (old_code, old_out), (new_code, new_out) = run_report(old_src, cmd, cwd), run_report(new_src, cmd, cwd)
            try:
                if old_code != new_code:
                    raise Mismatch(f"exit code {old_code} vs {new_code}")
                if cmd[0] == "run-protocol" and not file_matches_stdout(new_src, cmd, new_out, cwd):
                    raise Mismatch("the --out file differs from standard output")
                new_out, note = as_old(cmd, old_out, new_out)
                if field(old_out, "config_hash") != field(new_out, "config_hash"):
                    raise Mismatch("config_hash differs")
                if old_out == new_out:
                    print(f"{name:<50} identical{note}")
                    identical += 1
                    continue
                diff, where = max_difference(_parse(old_out), _parse(new_out))
            except Mismatch as exc:
                print(f"{name:<50} DIFFERENT {exc}")
                failed += 1
                continue
            verdict = "ok" if diff <= TOLERANCE else "OVER TOLERANCE"
            print(f"{name:<50} max |diff| {diff:.3g} at {where} ({verdict})")
            failed += diff > TOLERANCE
    print(f"{identical} of {len(report_matrix())} identical, {failed} differ beyond {TOLERANCE:g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
