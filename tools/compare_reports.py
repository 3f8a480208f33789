"""Run the crio report matrix against two source trees and compare the reports.

    python tools/compare_reports.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the `crio` package (a checkout's
`src/`). Each command runs as `python -m crio.cli ...` in its own subprocess
with PYTHONPATH set to one of them, and its standard output is the report.
For every report the script prints "identical" (same exit code, same bytes)
or the largest numeric difference and where it occurs. JSON reports are
compared as trees; CSV and text output token by token, reading numeric
tokens (including complex cells) as numbers. Each run-protocol report of
NEW_SRC is also written once through `--out FILE`, and the file must hold
the bytes the command wrote to standard output.

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
import re
import subprocess
import sys
import tempfile

TOLERANCE = 1e-12


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
        ["run-protocol", "--n", "3", "--permitted", "false", "--mode", "sample"],
        ["run-protocol", "--n", "3", "--format", "text"],
        ["run-protocol", "--n", "6", "--mode", "sample"],
        ["verify-all"],
        ["control-power", "--sweep", "64"],
        ["reproduce-tables", "I"],
        ["reproduce-tables", "II"],
        ["reproduce-tables", "III"],
        ["gm", "--family", "h2n1", "--n", "3"],
    ]
    return runs


def run_report(src: str, argv: list) -> tuple:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "crio.cli", *argv],
                          capture_output=True, text=True, env=env, check=False)
    return proc.returncode, proc.stdout


def file_matches_stdout(src: str, argv: list, stdout: str) -> bool:
    """Whether `argv` run with `--out FILE` writes to FILE the bytes it wrote to standard output."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report")
        run_report(src, [*argv, "--out", path])
        with open(path, "rb") as fh:
            return fh.read() == stdout.encode()


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


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/compare_reports.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = args
    failed = 0
    for cmd in report_matrix():
        name = " ".join(cmd)
        (old_code, old_out), (new_code, new_out) = run_report(old_src, cmd), run_report(new_src, cmd)
        try:
            if old_code != new_code:
                raise Mismatch(f"exit code {old_code} vs {new_code}")
            if cmd[0] == "run-protocol" and not file_matches_stdout(new_src, cmd, new_out):
                raise Mismatch("the --out file differs from standard output")
            if old_out == new_out:
                print(f"{name:<50} identical")
                continue
            diff, where = max_difference(_parse(old_out), _parse(new_out))
        except Mismatch as exc:
            print(f"{name:<50} DIFFERENT {exc}")
            failed += 1
            continue
        verdict = "ok" if diff <= TOLERANCE else "OVER TOLERANCE"
        print(f"{name:<50} max |diff| {diff:.3g} at {where} ({verdict})")
        failed += diff > TOLERANCE
    print(f"{failed} of {len(report_matrix())} reports differ beyond numeric noise of {TOLERANCE:g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
