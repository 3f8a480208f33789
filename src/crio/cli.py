"""Command-line front end: state builders, protocol runs, GM and control-power reports.

Exit codes: 0 success with all checks passing, 1 I/O failure, 2 when a
verification fails (or on malformed arguments).  Reports embed the
package version and a hash of the resolved configuration; identical
configurations produce byte-identical files.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import re
import sys
from itertools import chain

import numpy as np

from . import __version__
from . import gm as gm_mod
from . import graphstate as gs
from . import povm as povm_mod
from . import protocol as proto
from .qcore import PauliAxis, X_AXIS, Y_AXIS, Z_AXIS, random_axis

_PI_FRACTION = re.compile(r"^(-?)(\d*)pi(?:/(\d+))?$")
MAX_SWEEP = 4096  # most control-power --sweep angles: each adds one report, all held until written


def parse_angle(text: str) -> float:
    """Decimal radians or exact pi fractions such as 'pi', '3pi/4', '-pi/2'."""
    s = str(text).strip().lower().replace(" ", "")
    m = _PI_FRACTION.match(s)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0:
            raise ValueError(f"zero denominator in angle {text!r}")
        value = sign * num * math.pi / den
    else:
        try:
            value = float(s)
        except ValueError:
            raise ValueError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"angle must be finite, got {text!r}")
    return value


def format_angle(value: float) -> str:
    """Render angles within 1e-9 of a multiple of pi/4 (modulo 2pi) symbolically, decimals otherwise."""
    v = value % (2 * math.pi)
    for m in range(9):
        if abs(v - m * math.pi / 4) < 1e-9:
            m %= 8  # just below 2pi reads as 0
            if m % 4 == 0:
                return "pi" if m else "0"
            num, den = (m // 2, 2) if m % 2 == 0 else (m, 4)
            return f"{num}pi/{den}" if num > 1 else f"pi/{den}"
    return f"{v:.12g}"


def parse_axis(text: str) -> PauliAxis:
    named = {"x": X_AXIS, "y": Y_AXIS, "z": Z_AXIS}
    s = str(text).strip().lower()
    if s in named:
        return named[s]
    parts = [float(p) for p in s.split(",")]
    if len(parts) != 3:
        raise ValueError(f"axis must be x, y, z or three comma-separated components, got {text!r}")
    if not all(map(math.isfinite, parts)):
        raise ValueError(f"axis components must be finite, got {text!r}")
    return PauliAxis.unit(*parts)


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _report(payload: dict, config: dict) -> dict:
    return {"artifact_version": __version__, "config_hash": _config_hash(config), **payload}


def _write_text(path: str | None, text: str, more=()) -> None:
    """`text`, then each string of `more`, to `path`, or to stdout when path is None or '-'."""
    with contextlib.nullcontext(sys.stdout) if path in (None, "-") else open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.writelines(more)


def _provenance_line(config: dict) -> str:
    return f"# artifact_version={__version__} config_hash={_config_hash(config)}"


def _render_text(payload: dict, indent: str = "") -> str:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_text(value, indent + "  "))
        elif isinstance(value, (list, proto.Branches)):
            lines.append(f"{indent}{key}: [{len(value)} entries]")
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(lines)


def _write_report(path: str | None, payload: dict, fmt: str) -> None:
    if fmt == "text":
        _write_text(path, _render_text(payload) + "\n")
    else:
        _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_protocol_report(path: str | None, report: dict, result: proto.ProtocolResult, fmt: str) -> None:
    """A run-protocol report: `report` plus the branch list of `result`, written
    block by block (`Branches.json_blocks`), so no full-size copy of the report is made."""
    if fmt == "text":  # the text form lists branches only as a count
        _write_report(path, {**report, "branches": result.branches}, fmt)
        return
    head, tail = json.dumps({**report, "branches": proto._HOLE}, sort_keys=True, indent=2).split(json.dumps(proto._HOLE))
    _write_text(path, head, chain(result.branches.json_blocks(), [tail, "\n"]))


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _random_targets(rng: np.random.Generator, n: int) -> list:
    """n normalized single-qubit kets with Gaussian real and imaginary parts."""
    return [v / np.linalg.norm(v) for v in (rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(n))]


# ----------------------------------------------------------------------
# subcommands

def cmd_build_state(args) -> int:
    config = {"command": "build-state", "family": args.family, "n": args.n,
              "groups": args.groups, "edge_list": args.edge_list, "format": args.format}
    if args.edge_list:
        graph = gs.read_edge_list(args.edge_list)
        state = gs.build_graph_state(graph)
        meta = {"family": "edge-list", "num_vertices": graph.num_vertices,
                "edges": [list(e) for e in graph.sorted_edges()]}
    else:
        fam = (args.family or "").lower()
        if fam in ("h3", "h5"):
            n = {"h3": 1, "h5": 2}[fam]
            state = gs.crio_channel_state(gs.CrioTopology(n))
            meta = {"family": fam, "n_systems": n}
        elif fam == "h2n1":
            if args.n is None:
                raise ValueError("h2n1 requires --n")
            groups = frozenset(int(g) for g in args.groups.split(",")) if args.groups else None
            topo = gs.CrioTopology(args.n, groups)
            state = gs.crio_channel_state(topo)
            meta = {"family": "h2n1", "n_systems": args.n,
                    "controlled_groups": sorted(topo.controlled_groups),
                    "roles": {str(k): v for k, v in gs.role_names(topo).items()}}
        elif fam == "phi":
            if args.n is None:
                raise ValueError("phi requires --n")
            state = gs.phi_state(args.n)
            meta = {"family": "phi", "n_systems": args.n}
        else:
            raise ValueError(f"unknown state family {args.family!r}")
    if args.format == "csv":
        _write_text(args.out, _provenance_line(config) + "\n" + gs.state_to_csv(state))
    else:
        _write_report(args.out, _report({"metadata": meta, "state": gs.state_to_json_dict(state)}, config), args.format)
    return 0


def cmd_run_protocol(args) -> int:
    if args.config:
        kwargs = proto.load_run_config(args.config)
    else:
        if args.n is None:
            raise ValueError("run-protocol needs --config or --n")
        proto.check_system_count(args.n)
        rng = np.random.default_rng(args.seed)
        axes = [parse_axis(args.axis)] * args.n if args.axis else [random_axis(rng) for _ in range(args.n)]
        betas = [parse_angle(args.alpha)] * args.n if args.alpha else list(rng.uniform(0, 2 * math.pi, args.n))
        targets = _random_targets(rng, args.n)
        groups = frozenset(int(g) for g in args.groups.split(",")) if args.groups else None
        kwargs = {
            "n_systems": args.n, "axes": axes, "betas": betas, "targets": targets,
            "mode": args.mode, "seed": args.seed, "permitted": args.permitted == "true",
            "controlled_groups": groups,
        }
    config = proto.run_config_to_dict(**kwargs)
    result = proto.run_crio(**kwargs)
    payload = {**result.summary_json(), "min_fidelity": result.min_fidelity(),
               "total_probability": result.total_probability()}
    _write_protocol_report(args.out, _report(payload, config), result, args.format)
    if result.permitted and result.min_fidelity() < 1 - 1e-10:
        print("verification failed: a permitted branch missed unit fidelity", file=sys.stderr)
        return 2
    if abs(result.total_probability() - 1.0) > 1e-10 and kwargs["mode"] == "enumerate":
        print("verification failed: branch probabilities do not sum to 1", file=sys.stderr)
        return 2
    return 0


def cmd_gm(args) -> int:
    config = {"command": "gm", "family": args.family, "n": args.n, "state": args.state,
              "restarts": args.restarts, "seed": args.seed, "mode": args.mode}
    if args.state:
        with open(args.state, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict) and "state" in data:  # a build-state report
            data = data["state"]
        state = gs.state_from_json_dict(data)
        result = gm_mod.gm_optimize(state, mode=args.mode, restarts=args.restarts, seed=args.seed)
        payload = gm_mod.gm_report_dict(args.state, args.n or 0, result)
        _write_report(args.out, _report(payload, config), args.format)
        return 0
    fam = (args.family or "h2n1").lower()
    if fam in ("h2n1", "h3", "h5"):
        n = {"h3": 1, "h5": 2}.get(fam, args.n)
        if n is None:
            raise ValueError("gm for the channel family requires --n")
        result = gm_mod.gm_channel_family(n, restarts=args.restarts, seed=args.seed)
        payload = gm_mod.gm_report_dict(f"h{2 * n + 1}", n, result)
        expected = float(n)
    elif fam == "phi":
        if args.n is None:
            raise ValueError("gm for the phi family requires --n")
        result = gm_mod.gm_phi(args.n, restarts=args.restarts, seed=args.seed)
        payload = gm_mod.gm_report_dict(f"phi{2 * args.n}", args.n, result)
        expected = float(args.n)
    else:
        raise ValueError(f"unknown gm family {args.family!r}")
    _write_report(args.out, _report(payload, config), args.format)
    if abs(result.G - expected) > 1e-6:
        print(f"verification failed: GM {result.G} differs from expected {expected}", file=sys.stderr)
        return 2
    return 0


def cmd_control_power(args) -> int:
    config = {"command": "control-power", "alpha": args.alpha, "sweep": args.sweep}
    if args.sweep is not None:
        if args.sweep < 1:
            raise ValueError("--sweep needs at least one angle")
        if args.sweep > MAX_SWEEP:
            raise ValueError(f"--sweep takes at most {MAX_SWEEP} angles, got {args.sweep}")
        reports = [povm_mod.control_power_report(2 * math.pi * m / args.sweep) for m in range(args.sweep)]
        payload = {"sweep": reports}
        rates_ok = all(r["success_rate"] in (0.25, 0.5) for r in reports)
    else:
        alpha = parse_angle(args.alpha if args.alpha is not None else "0")
        report = povm_mod.control_power_report(alpha)
        payload = report
        rates_ok = report["success_rate"] in (0.25, 0.5)
    _write_report(args.out, _report(payload, config), args.format)
    if not rates_ok:
        print("verification failed: success rate outside {0.25, 0.5}", file=sys.stderr)
        return 2
    return 0


def _table1_csv(seed: int) -> str:
    lines = ["n_systems,channel_state,channel_gm,reference_state,reference_gm"]
    for n, h_id, h_gm, p_id, p_gm in gm_mod.entanglement_table_rows(3, seed=seed):
        lines.append(f"{n},{h_id},{h_gm:.9f},{p_id},{p_gm:.9f}")
    return "\n".join(lines) + "\n"


def _povm_row_csv(block: int, row, cells: list) -> str:
    """block, the eight POVM angles, the table's own cells, then the realized alphas."""
    p = row.params
    angles = (p.theta1, p.theta2, p.phi1, p.phi2, p.lambda1, p.lambda2, p.omega1, p.omega2)
    alphas = "|".join(format_angle(a) for a in row.alphas)
    return ",".join([str(block), *(format_angle(a) for a in angles), *cells, alphas])


def _table2_csv() -> str:
    lines = ["block,theta1,theta2,phi1,phi2,lambda1,lambda2,omega1,omega2,pair,c00,c01,c10,c11,alphas"]
    theta1, phi1 = math.pi / 4, 0.0
    for block, choice in ((1, "lambda1_zero"), (2, "lambda1_half_pi")):
        for row in povm_mod.enumerate_case1(theta1, phi1, choice):
            pair = f"M{row.pair[0]}N{row.pair[1]}"
            lines.append(_povm_row_csv(block, row, [pair, *map(_fmt_complex, row.coefficients.as_tuple())]))
    return "\n".join(lines) + "\n"


def _table3_csv() -> str:
    lines = ["block,theta1,theta2,phi1,phi2,lambda1,lambda2,omega1,omega2,success_rate,pair,K,c01,c10,alphas"]
    for block, lam1, rate in ((1, math.pi / 4, 0.5), (2, 0.6, 0.25)):
        for row in povm_mod.enumerate_case2(lam1):
            c = row.coefficients
            k_str = _fmt_complex(row.K) if row.K is not None else ""
            pair = f"M{row.pair[0]}N{row.pair[1]}"
            cells = [str(rate), pair, k_str, _fmt_complex(c.c01), _fmt_complex(c.c10)]
            lines.append(_povm_row_csv(block, row, cells))
    return "\n".join(lines) + "\n"


def cmd_reproduce_tables(args) -> int:
    which = {"I": "I", "1": "I", "II": "II", "2": "II", "III": "III", "3": "III"}.get(args.table.upper())
    if which is None:
        raise ValueError("table must be one of I, II, III")
    config = {"command": "reproduce-tables", "table": which, "seed": args.seed}
    text = {"I": lambda: _table1_csv(args.seed), "II": _table2_csv, "III": _table3_csv}[which]()
    _write_text(args.out, _provenance_line(config) + "\n" + text)
    return 0


def cmd_verify_all(args) -> int:
    checks = []
    rng = np.random.default_rng(args.seed)

    for n in (1, 2):
        axes = [random_axis(rng) for _ in range(n)]
        betas = list(rng.uniform(0, 2 * math.pi, n))
        res = proto.run_crio(n, axes, betas, _random_targets(rng, n))
        checks.append((f"protocol n_systems={n} all-branch fidelity", res.min_fidelity() >= 1 - 1e-10))
        checks.append((f"protocol n_systems={n} probabilities sum to 1", abs(res.total_probability() - 1) < 1e-10))

    ok = all(abs(amp - gs.amplitude_oracle(n, bits)) <= 1e-12 for n in (1, 2, 3)
             for amp, bits in zip(gs.crio_channel_state(gs.CrioTopology(n)).amplitudes, gs.all_bitstrings(2 * n + 1)))
    checks.append(("channel amplitudes match the sign oracle", ok))

    g = gm_mod.gm_channel_family(2, restarts=24, seed=args.seed)
    checks.append(("GM of the 5-qubit channel state equals 2", abs(g.G - 2) < 1e-6))

    flat = all(
        abs(povm_mod.outcome_probability(povm_mod.PovmParams.random_valid(rng), j, k) - 0.25) < 1e-10
        for _ in range(50) for j in (1, 2) for k in (1, 2)
    )
    checks.append(("POVM outcome probabilities are flat at 1/4", flat))
    checks.append(("success rate dichotomy",
                   povm_mod.success_rate(3 * math.pi / 4) == 0.5 and povm_mod.success_rate(0.7) == 0.25))

    denial = proto.control_denial_report(
        1, [random_axis(rng)], [0.8], [np.array([1.0, 0.0], dtype=complex)]
    )
    checks.append(("control denial leaves a mixed reduced state",
                   denial.purity_without_controller < 1 - 1e-6))
    checks.append(("control denial defeats every guess",
                   denial.best_guess_min_fidelity < 1 - 1e-6))

    for name, passed in checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}")
    failures = sum(not passed for _, passed in checks)
    payload = {"checks": [{"name": n, "passed": bool(p)} for n, p in checks], "failures": failures}
    if args.out:
        _write_report(args.out, _report(payload, {"command": "verify-all", "seed": args.seed}), "json")
    return 0 if failures == 0 else 2


# ----------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The crio argument parser, built once per process: parse_args reads it
    without changing it and fills a fresh namespace on every call."""
    parser = argparse.ArgumentParser(prog="crio", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-state", help="write a named state family or an edge-list graph state")
    p.add_argument("family", nargs="?", help="h3 | h5 | h2n1 | phi")
    p.add_argument("--edge-list", help="build from an edge-list file instead")
    p.add_argument("--n", type=int, help="number of remote systems")
    p.add_argument("--groups", help="comma-separated controlled group indices (h2n1)")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.set_defaults(func=cmd_build_state)

    p = sub.add_parser("run-protocol", help="run the controlled remote-operation protocol")
    p.add_argument("--config", help="JSON run configuration file")
    p.add_argument("--n", type=int, help="number of remote systems (random draw mode)")
    p.add_argument("--alpha", help="rotation angle for every system (default: random)")
    p.add_argument("--axis", help="axis x|y|z or 'x,y,z' components for every system")
    p.add_argument("--groups", help="comma-separated controlled group indices")
    p.add_argument("--mode", choices=("enumerate", "sample"), default="enumerate")
    p.add_argument("--permitted", choices=("true", "false"), default="true")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_run_protocol)

    p = sub.add_parser("gm", help="geometric measure of entanglement reports")
    p.add_argument("--family", default="h2n1", help="h2n1 | h3 | h5 | phi")
    p.add_argument("--n", type=int)
    p.add_argument("--state", help="optimize a state from a JSON amplitude file instead")
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--mode", choices=("nonneg", "general"), default="nonneg")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_gm)

    p = sub.add_parser("control-power", help="controller-free success rate for a rotation angle")
    p.add_argument("--alpha", help="target angle (radians or pi fraction)")
    p.add_argument("--sweep", type=int, help="evaluate a grid of this many angles instead")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_control_power)

    p = sub.add_parser("reproduce-tables", help="regenerate the quantitative tables as CSV")
    p.add_argument("table", help="I, II or III")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_reproduce_tables)

    p = sub.add_parser("verify-all", help="run the condensed verification battery")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_verify_all)

    for sp in sub.choices.values():
        sp.add_argument("--out", help="output path (default stdout)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
