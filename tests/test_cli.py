import argparse
import contextlib
import errno
import io
import json
import math
import os
import re
import stat
import time
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crio import protocol as proto
from crio import report
from crio.cli import _report, _write_report, build_parser, format_angle, main, parse_angle, parse_axis
from crio.graphstate import CrioTopology, crio_channel_state
from crio.qcore import X_AXIS
from conftest import compare_reports


class TestAngleParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("pi", math.pi),
            ("3pi/4", 3 * math.pi / 4),
            ("-pi/2", -math.pi / 2),
            ("2pi", 2 * math.pi),
            ("0.7", 0.7),
            ("0", 0.0),
        ],
    )
    def test_parse(self, text, value):
        assert parse_angle(text) == pytest.approx(value, abs=1e-15)

    def test_reject_garbage(self):
        with pytest.raises(ValueError):
            parse_angle("three")

    def test_zero_denominator_exits_2(self, capsys):
        assert main(["control-power", "--alpha", "2pi/0"]) == 2
        assert "zero denominator" in capsys.readouterr().err

    def test_format_round_trip_quarter_multiples(self):
        for m in range(8):
            assert parse_angle(format_angle(m * math.pi / 4)) == pytest.approx(m * math.pi / 4, abs=1e-9)
        assert format_angle(0.7) == "0.7"
        # within 1e-9 of 0 modulo 2pi, from either side
        assert format_angle(1e-12) == format_angle(-1e-12) == format_angle(2 * math.pi - 1e-13) == "0"

    def test_parse_axis(self):
        assert parse_axis("x") == X_AXIS
        ax = parse_axis("1,0,1")
        assert ax.norm() == pytest.approx(1.0, abs=1e-12)


class TestBuildState:
    def test_three_qubit_channel_json(self, tmp_path):
        out = tmp_path / "h3.json"
        assert main(["build-state", "h3", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        amps = [complex(re, im) for re, im in data["state"]["amplitudes"]]
        ref = crio_channel_state(CrioTopology(1)).amplitudes
        np.testing.assert_allclose(amps, ref, atol=1e-12)
        assert data["artifact_version"]
        assert data["config_hash"]

    def test_bell_pair_resource(self, tmp_path):
        out = tmp_path / "phi.json"
        assert main(["build-state", "phi", "--n", "1", "--out", str(out)]) == 0
        amps = [complex(re, im) for re, im in json.loads(out.read_text())["state"]["amplitudes"]]
        np.testing.assert_allclose(amps, np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-12)

    def test_single_vertex_edge_list(self, tmp_path):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("n=1\n")
        out = tmp_path / "plus.json"
        assert main(["build-state", "--edge-list", str(graph_file), "--out", str(out)]) == 0
        amps = [complex(re, im) for re, im in json.loads(out.read_text())["state"]["amplitudes"]]
        np.testing.assert_allclose(amps, np.array([1, 1]) / math.sqrt(2), atol=1e-12)

    def test_csv_format(self, tmp_path):
        out = tmp_path / "h3.csv"
        assert main(["build-state", "h3", "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# artifact_version=")
        assert lines[1] == "index,real,imag"
        assert len(lines) == 10

    def test_text_format(self, tmp_path):
        out = tmp_path / "run.txt"
        assert main(["run-protocol", "--n", "1", "--seed", "4", "--format", "text", "--out", str(out)]) == 0
        body = out.read_text()
        assert "min_fidelity:" in body and "branches: [8 entries]" in body

    def test_unknown_family_exits_2(self, tmp_path):
        assert main(["build-state", "nope", "--out", str(tmp_path / "x.json")]) == 2

    def test_config_hash_is_that_of_the_resolved_groups(self, tmp_path):
        """--groups 3,4, 4,3 and 3,4,4 build one state, so they carry one hash."""
        reports = []
        for i, groups in enumerate(("3,4", "4,3", "3,4,4")):
            out = tmp_path / f"h{i}.json"
            assert main(["build-state", "h2n1", "--n", "3", "--groups", groups, "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        assert reports[0]["metadata"]["controlled_groups"] == [3, 4]
        assert reports[0] == reports[1] == reports[2]
        out = tmp_path / "one.json"
        assert main(["build-state", "h2n1", "--n", "3", "--groups", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config_hash"] != reports[0]["config_hash"]

    def test_empty_groups_wire_no_optional_group(self, tmp_path):
        """An empty --groups is the empty set, as a config file's "controlled_groups": [] is."""
        out = tmp_path / "h7.json"
        assert main(["build-state", "h2n1", "--n", "3", "--groups", "", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["metadata"]["controlled_groups"] == []

    def test_missing_edge_list_exits_1(self, tmp_path):
        assert main(["build-state", "--edge-list", str(tmp_path / "absent.txt")]) == 1


class TestRunProtocol:
    def test_enumerate_two_systems(self, tmp_path):
        out = tmp_path / "run.json"
        assert main(["run-protocol", "--n", "2", "--seed", "3", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["branches"]) == 32
        assert data["min_fidelity"] >= 1 - 1e-10
        assert data["total_probability"] == pytest.approx(1.0, abs=1e-10)

    def test_not_permitted_reports_without_failure_exit(self, tmp_path):
        out = tmp_path / "denied.json"
        assert main(["run-protocol", "--n", "1", "--permitted", "false", "--seed", "5", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["permitted"] is False
        assert data["min_fidelity"] < 1 - 1e-6

    def test_empty_groups_run_the_base_group_only(self, tmp_path):
        out = tmp_path / "run.json"
        assert main(["run-protocol", "--n", "3", "--groups", "", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["participating_systems"] == [5] and len(data["branches"]) == 8

    def test_config_file(self, tmp_path):
        cfg = {
            "n_systems": 1,
            "axes": [[1.0, 0.0, 0.0]],
            "betas": [0.4],
            "targets": [[[1.0, 0.0], [0.0, 0.0]]],
            "mode": "enumerate",
            "seed": 1,
            "permitted": True,
            "controlled_groups": None,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run.json"
        assert main(["run-protocol", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["min_fidelity"] >= 1 - 1e-10

    def test_config_targets_near_unit_norm_are_normalised(self, tmp_path):
        """Targets written to eight decimals (squared norm 1 - 6.7e-9) are accepted and run as their
        normalised kets: unit fidelity on every branch and a total probability of 1."""
        cfg = proto.run_config_to_dict(2, [X_AXIS, X_AXIS], [0.4, 1.1], [np.array([0.70710678, 0.70710678])] * 2,
                                       "enumerate", 1, True, None)
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run-protocol", "--config", str(cfg_path), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["min_fidelity"] >= 1 - 1e-10 and abs(data["total_probability"] - 1) <= 1e-10

    @pytest.mark.parametrize("seed", [{"seed": None}, {}])
    def test_sample_config_without_a_seed_exits_2(self, tmp_path, capsys, seed):
        """A sample-mode config whose seed is null or missing would draw from OS entropy, giving
        different outcomes under one config hash: it exits 2 with one line and writes no report."""
        cfg = proto.run_config_to_dict(3, [X_AXIS] * 3, [0.4] * 3, [np.array([1.0, 0.0])] * 3, "sample", None,
                                       True, None)
        del cfg["seed"]
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "run.json"
        cfg_path.write_text(json.dumps({**cfg, **seed}))
        assert main(["run-protocol", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: sample mode needs a seed: without one its outcomes cannot be reproduced\n"
        assert not out.exists()
        cfg_path.write_text(json.dumps({**cfg, **seed, "mode": "enumerate"}))  # enumeration draws nothing
        assert main(["run-protocol", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] is None

    @pytest.mark.parametrize("axis, direction", [("1e300,1e300,0", "1,1,0"), ("1e-300,0,0", "x")])
    def test_axis_beyond_the_float_range_squared_runs_as_its_direction(self, tmp_path, axis, direction):
        """An axis whose squared norm overflows or underflows writes the bytes of its direction."""
        written = []
        for value in (axis, direction):
            out = tmp_path / f"run{len(written)}.json"
            assert main(["run-protocol", "--n", "2", "--axis", value, "--mode", "sample", "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_config_missing_key_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_systems": 1, "axes": [[1.0, 0.0, 0.0]], "betas": [0.4]}))
        assert main(["run-protocol", "--config", str(cfg_path), "--out", str(tmp_path / "run.json")]) == 2
        assert "targets" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--n", "2"), ("--alpha", "pi"), ("--axis", "x"), ("--groups", "3"),
                                             ("--groups", ""), ("--mode", "enumerate"), ("--permitted", "true"),
                                             ("--seed", "7")])
    def test_config_refuses_another_run_flag(self, tmp_path, capsys, flag, value):
        """A run flag the user set beside --config, even one equal to its default, would be
        dropped: the run exits 2 with one line naming it, and writes no report."""
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "run.json"
        cfg_path.write_text(json.dumps(proto.run_config_to_dict(1, [X_AXIS], [0.4], [np.array([1.0, 0.0])], "sample",
                                                                1, True, None)))
        assert main(["run-protocol", "--config", str(cfg_path), flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} cannot be combined with --config") and err.count("\n") == 1
        assert not out.exists()
        assert main(["run-protocol", "--config", str(cfg_path), "--format", "text", "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "key,value",
        [
            ("axes", [[1, 0]]),
            ("axes", 5),
            ("axes", [[1, 0, "0"]]),
            ("betas", [[0.4]]),
            ("targets", [[[1.0, 0.0]]]),
            ("targets", [[1.0, 0.0]]),
            ("n_systems", [1]),
            ("controlled_groups", 5),
            ("controlled_groups", ["3"]),
            ("seed", "x"),
            ("seed", True),
            ("seed", -1),
            ("targets", [[[10**400, 0.0], [0.0, 0.0]]]),
            ("permitted", "false"),
        ],
    )
    def test_config_malformed_value_exits_2(self, tmp_path, capsys, key, value):
        cfg = {
            "n_systems": 1,
            "axes": [[1.0, 0.0, 0.0]],
            "betas": [0.4],
            "targets": [[[1.0, 0.0], [0.0, 0.0]]],
            "mode": "sample",
            "seed": 1,
        }
        cfg[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run-protocol", "--config", str(cfg_path), "--out", str(tmp_path / "run.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run configuration: " + key) and err.count("\n") == 1
        assert not (tmp_path / "run.json").exists()


class TestReports:
    def test_gm_channel(self, tmp_path):
        out = tmp_path / "gm.json"
        assert main(["gm", "--family", "h2n1", "--n", "1", "--restarts", "24", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["G"] == pytest.approx(1.0, abs=1e-6)
        assert data["state_id"] == "h3"

    def test_control_power_alpha(self, tmp_path):
        out = tmp_path / "cp.json"
        assert main(["control-power", "--alpha", "3pi/4", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["success_rate"] == 0.5
        assert sorted(map(tuple, data["favorable_branches"])) == [(1, 1), (2, 2)]

    def test_control_power_generic(self, tmp_path):
        out = tmp_path / "cp.json"
        assert main(["control-power", "--alpha", "0.7", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["success_rate"] == 0.25

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_empty_sweep_exits_2(self, tmp_path, count):
        out = tmp_path / "cp.json"
        assert main(["control-power", "--sweep", count, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_gm_restarts_below_one_exits_2(self, tmp_path, capsys, count):
        out = tmp_path / "gm.json"
        assert main(["gm", "--n", "2", "--restarts", count, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: restarts must be at least 1") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "data,named",
        [
            ({"labels": ["a"]}, "amplitudes"),
            ({"state": {"amplitudes": [[1.0, 0.0], [0.0, 0.0]]}}, "labels"),
            ({"labels": "a", "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}, "labels"),
            ({"labels": ["a"], "amplitudes": {"0": [1.0, 0.0]}}, "amplitudes"),
            ({"labels": ["a"], "amplitudes": [[1.0, 0.0], [0.0]]}, "amplitudes"),
            ({"labels": ["a"], "amplitudes": [[1.0, 0.0], ["0", 0.0]]}, "amplitudes"),
            ([[1.0, 0.0], [0.0, 0.0]], "labels and amplitudes"),
            ({"labels": [], "amplitudes": [[1.0, 0.0]]}, "labels"),
            ({"labels": ["a"], "amplitudes": [[10**400, 0.0], [0.0, 0.0]]}, "amplitudes"),
        ],
    )
    def test_malformed_state_file_exits_2(self, tmp_path, capsys, data, named):
        path, out = tmp_path / "state.json", tmp_path / "gm.json"
        path.write_text(json.dumps(data))
        assert main(["gm", "--state", str(path), "--mode", "general", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and err.count("\n") == 1
        assert not out.exists()

    def test_table_three_quarter_block(self, tmp_path):
        out = tmp_path / "t3.csv"
        assert main(["reproduce-tables", "III", "--out", str(out)]) == 0
        lines = [ln for ln in out.read_text().strip().splitlines() if not ln.startswith("#")]
        header = lines[0].split(",")
        block1 = [dict(zip(header, ln.split(","))) for ln in lines[1:5]]
        by_pair = {row["pair"]: row for row in block1}
        assert by_pair["M1N1"]["alphas"] == "3pi/4|7pi/4"
        assert by_pair["M1N2"]["alphas"] == "pi/4|5pi/4"
        assert by_pair["M2N1"]["alphas"] == "pi/4|5pi/4"
        assert by_pair["M2N2"]["alphas"] == "3pi/4|7pi/4"
        assert by_pair["M1N1"]["K"].startswith("1")
        assert by_pair["M2N1"]["K"].startswith("-1")
        assert complex(by_pair["M1N1"]["c01"]) == pytest.approx(-0.5j, abs=1e-9)

    def test_table_one(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert main(["reproduce-tables", "I", "--out", str(out)]) == 0
        lines = [ln for ln in out.read_text().strip().splitlines() if not ln.startswith("#")]
        assert lines[0].startswith("n_systems")
        for n, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            assert float(fields[2]) == pytest.approx(n, abs=1e-6)
            assert float(fields[4]) == pytest.approx(n, abs=1e-6)

    def test_unknown_table_exits_2(self, tmp_path):
        assert main(["reproduce-tables", "IV", "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["run-protocol", "--n", "1", "--format", "csv"],
        ["gm", "--family", "h3", "--format", "csv"],
        ["control-power", "--alpha", "0.7", "--format", "csv"],
        ["reproduce-tables", "I", "--format", "json"],
        ["verify-all", "--format", "text"],
        ["build-state", "h3", "--seed", "3"],
        ["control-power", "--alpha", "0.7", "--seed", "3"],
    ],
)
def test_flag_the_subcommand_does_not_read_exits_2(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


_ARGPARSE_ERRORS = [
    (["run-protocol", "--mode", "bogus"], "crio run-protocol"),
    (["run-protocol", "--n", "x"], "crio run-protocol"),
    (["run-protocol", "--permitted", "maybe"], "crio run-protocol"),
    (["bogus"], "crio"),
    ([], "crio"),
    # one bad choice, or a bad int where a subcommand has no choices, per subcommand
    (["build-state", "h3", "--format", "xml"], "crio build-state"),
    (["run-protocol", "--n", "1", "--format", "xml"], "crio run-protocol"),
    (["gm", "--mode", "bogus"], "crio gm"),
    (["control-power", "--format", "xml"], "crio control-power"),
    (["reproduce-tables", "I", "--seed", "x"], "crio reproduce-tables"),
    (["verify-all", "--seed", "x"], "crio verify-all"),
]


@pytest.mark.parametrize("argv,prog", _ARGPARSE_ERRORS, ids=[" ".join(argv) or "no-arguments" for argv, _ in _ARGPARSE_ERRORS])
def test_argument_errors_are_one_line(capsys, argv, prog):
    """argparse's own errors exit 2 with one stderr line that names the subcommand, not the usage text."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith(f"{prog}: error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "argv,text",
    [
        (["run-protocol", "--n", "1", "--axis", "nan,0,0"], "nan,0,0"),
        (["run-protocol", "--n", "1", "--axis", "inf,0,0"], "inf,0,0"),
        (["run-protocol", "--n", "1", "--alpha", "nan"], "nan"),
        (["run-protocol", "--n", "1", "--alpha", "inf"], "inf"),
        (["control-power", "--alpha", "nan"], "nan"),
    ],
)
def test_non_finite_input_exits_2(tmp_path, capsys, argv, text):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{text!r}" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


_BAD_GROUPS = "error: --groups must be comma-separated group indices, got '3,x'"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["build-state", "h2n1", "--n", "2", "--groups", "3,x"], _BAD_GROUPS),
        (["run-protocol", "--n", "2", "--groups", "3,x"], _BAD_GROUPS),
        (["run-protocol", "--n", "1", "--axis", "a,b,c"],
         "error: axis must be x, y, z or three comma-separated components, got 'a,b,c'"),
        (["build-state", "--edge-list", "{edges}"], "error: malformed edge line '1 x'"),
        # a flag the family cannot honour is refused, not dropped
        (["gm", "--family", "h3", "--n", "2"], "error: --n 2 differs from h3, whose N is 1"),
        (["build-state", "h5", "--n", "7"], "error: --n 7 differs from h5, whose N is 2"),
        (["build-state", "h5", "--groups", "3"], "error: --groups applies to the h2n1 family only, not h5"),
        (["build-state", "phi", "--n", "2", "--groups", "3"],
         "error: --groups applies to the h2n1 family only, not phi"),
        (["build-state", "--edge-list", "{edges}", "--groups", "3"],
         "error: --groups applies to the h2n1 family only, not edge-list"),
        (["run-protocol", "--config", "{text}"],
         "error: --config {text} is not JSON: Expecting ',' delimiter: line 2 column 1 (char 8)"),
        (["gm", "--state", "{text}"],
         "error: --state {text} is not JSON: Expecting ',' delimiter: line 2 column 1 (char 8)"),
        (["gm", "--state", "{binary}"],
         "error: --state {binary} is not JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        # flags that would be dropped: a family or --n beside --edge-list, --alpha beside --sweep,
        # --mode general on a named family
        (["build-state", "--edge-list", "{edges}", "--n", "5"],
         "error: --edge-list builds its own graph and takes no family or --n"),
        (["build-state", "phi", "--edge-list", "{edges}"],
         "error: --edge-list builds its own graph and takes no family or --n"),
        (["control-power", "--alpha", "pi/4", "--sweep", "2"],
         "error: --alpha cannot be combined with --sweep, which sets every angle"),
        (["gm", "--family", "h2n1", "--n", "2", "--mode", "general"],
         "error: --mode general applies to --state files only; the named families run nonneg"),
        (["gm", "--state", "{state}", "--n", "5"], "error: --n cannot be combined with --state, which sets the whole state"),
        (["gm", "--state", "{state}", "--family", "h5"],
         "error: --family cannot be combined with --state, which sets the whole state"),
        (["build-state", "h3", "--groups", ""], "error: --groups applies to the h2n1 family only, not h3"),
        (["run-protocol", "--n", "2", "--groups", "5"], "error: controlled groups must lie in 3..3, not 5"),
    ],
)
def test_malformed_input_exits_2_naming_it(tmp_path, capsys, argv, message):
    files = {"edges": tmp_path / "edges.txt", "text": tmp_path / "text.json", "binary": tmp_path / "binary.json",
             "state": tmp_path / "state.json"}
    files["edges"].write_text("n=2\n1 x\n")
    assert main(["build-state", "phi", "--n", "1", "--out", str(files["state"])]) == 0
    files["text"].write_text('{"n": 1\n')
    files["binary"].write_bytes(b"\xff\xfe")
    assert main([a.format(**files) for a in argv] + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == message.format(**files) + "\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["gm", "--family", "h3"], ["build-state", "h5"]])
def test_fixed_size_family_accepts_its_own_n(tmp_path, argv):
    """--n equal to h3's or h5's own N builds the same state as no --n."""
    bodies = []
    for extra in ([], ["--n", str({"h3": 1, "h5": 2}[argv[-1]])]):
        out = tmp_path / "out.json"
        assert main(argv + extra + ["--out", str(out)]) == 0
        bodies.append(out.read_bytes())
    assert bodies[0] == bodies[1]


_NUMBER = st.one_of(st.floats().map(repr), st.integers(-10**6, 10**6).map(str), st.text("0123456789.e-+_ ", max_size=8))


@settings(max_examples=50, deadline=None)
@given(
    alpha=st.one_of(st.none(), st.text(max_size=12), _NUMBER,
                    st.from_regex(r"\s*-?\d{0,4}\s*[pP][iI]\s*(/\d{0,5})?\s*", fullmatch=True)),
    axis=st.one_of(st.none(), st.text(max_size=12), st.sampled_from(["x", "Y", " z ", "xy"]),
                   st.lists(st.one_of(_NUMBER, st.text(max_size=3)), min_size=1, max_size=4).map(",".join)),
    groups=st.one_of(st.none(), st.text(max_size=8),
                     st.lists(st.one_of(_NUMBER, st.integers(-3, 6).map(str)), max_size=4).map(",".join)),
)
def test_run_protocol_text_inputs_exit_0_or_2_in_one_line(alpha, axis, groups):
    """Any --alpha, --axis and --groups text ends in exit 0, or in exit 2 with
    one line on stderr; anything else escapes main as a traceback."""
    argv = ["run-protocol", "--n", "2", "--out", os.devnull]
    argv += [f"{flag}={text}" for flag, text in (("--alpha", alpha), ("--axis", axis), ("--groups", groups))
             if text is not None]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    assert code == 0 or err.getvalue().count("\n") == 1


_FINITE_CONFIG = {"n_systems": 1, "axes": [[1.0, 0.0, 0.0]], "betas": [0.4], "targets": [[[1.0, 0.0], [0.0, 0.0]]]}
_HUGE = [[1e300, 0.0], [1e300, 0.0]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "flag,data,message",
    [
        ("--config", {**_FINITE_CONFIG, "targets": [_HUGE]}, "error: target states must be normalized"),
        ("--state", {"labels": ["a"], "amplitudes": _HUGE}, "error: state is not normalized: norm = inf"),
    ],
)
def test_huge_finite_amplitudes_exit_2_in_one_line(tmp_path, capsys, flag, data, message):
    """|v|^2 overflows the float range: the norm check refuses the input with no overflow warning."""
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(json.dumps(data))
    assert main([{"--config": "run-protocol", "--state": "gm"}[flag], flag, str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_FUZZ_NUMBER = st.one_of(st.integers(), st.floats(), st.sampled_from([1e300, -1e300, 10**400]))


@st.composite
def _fuzzed(draw, valid: dict):
    """`valid`, with up to two of its keys (or one more) set to any JSON value,
    or any JSON value in place of the whole file."""
    data = dict(valid)
    for key in draw(st.sets(st.sampled_from(sorted(data) + ["extra"]), max_size=2)):
        data[key] = draw(_JSON)
    return draw(st.sampled_from([data, data, data, draw(_JSON)]))


def _exit_0_or_2_in_one_line(argv) -> None:
    """main(argv) exits 0 with nothing on stderr, or 2 with one line; a
    warning, a traceback or any other exit fails."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 2)
    assert err.getvalue().count("\n") == (code == 2) and err.getvalue().endswith("\n") == (code == 2)


@st.composite
def _run_configs(draw):
    n = draw(st.integers(1, 2))
    axis = st.sampled_from([[1, 0, 0], [0.6, 0, -0.8]]) | st.lists(_FUZZ_NUMBER, min_size=3, max_size=3)
    beta = st.sampled_from([0, 0.4, -7]) | _FUZZ_NUMBER
    target = st.sampled_from([[[1, 0], [0, 0]], [[0.6, 0], [0, -0.8]]]) | st.lists(
        st.lists(_FUZZ_NUMBER, min_size=2, max_size=2), min_size=2, max_size=2)
    return draw(_fuzzed({
        "n_systems": n,
        **{key: draw(st.lists(values, min_size=n, max_size=n))
           for key, values in (("axes", axis), ("betas", beta), ("targets", target))},
        **draw(st.fixed_dictionaries({}, optional={
            "mode": st.sampled_from(["enumerate", "sample"]), "seed": st.none() | st.integers(),
            "permitted": st.booleans(), "controlled_groups": st.none() | st.lists(st.integers(-1, 4), max_size=2)})),
    }))


@settings(max_examples=40, deadline=None)
@given(config=_run_configs())
def test_run_protocol_config_json_exits_0_or_2_in_one_line(json_dir, config):
    """Any run-protocol --config JSON: configurations of one or two systems
    with fuzzed values, then fuzzed keys, or any JSON value."""
    path = json_dir / "config.json"
    path.write_text(json.dumps(config))
    _exit_0_or_2_in_one_line(["run-protocol", "--config", str(path), "--out", os.devnull])


@settings(max_examples=40, deadline=None)
@given(state=st.integers(1, 2).flatmap(lambda n: _fuzzed({
    "labels": [f"q{i}" for i in range(n)],
    "amplitudes": [[1, 0]] + [[0, 0]] * ((1 << n) - 1),
}) | st.fixed_dictionaries({
    "labels": st.lists(st.text(max_size=2), min_size=n, max_size=n),
    "amplitudes": st.lists(st.lists(_FUZZ_NUMBER, min_size=2, max_size=2), min_size=1 << n, max_size=1 << n),
})), wrapped=st.booleans())
def test_gm_state_json_exits_0_or_2_in_one_line(json_dir, state, wrapped):
    """Any gm --state JSON: states of one or two qubits with fuzzed labels,
    amplitudes or keys, bare or inside a build-state report, or any JSON value."""
    path = json_dir / "state.json"
    path.write_text(json.dumps({"state": state} if wrapped else state))
    _exit_0_or_2_in_one_line(["gm", "--state", str(path), "--restarts", "2", "--out", os.devnull])


@pytest.mark.parametrize(
    "argv",
    [
        ["run-protocol", "--n", "12"],
        ["build-state", "--edge-list", "{edges}"],
        ["build-state", "h2n1", "--n", "13"],
        ["gm", "--family", "phi", "--n", "13"],
        ["gm", "--family", "h2n1", "--n", "13"],
        ["build-state", "h2n1", "--n", "99999"],
        ["gm", "--family", "h2n1", "--n", "99999"],
    ],
)
def test_register_above_bound_exits_2_before_allocating(tmp_path, capsys, argv):
    edges = tmp_path / "big.txt"
    edges.write_text("n=40\n1 2\n")
    start = time.perf_counter()
    code = main([a.format(edges=edges) for a in argv] + ["--out", str(tmp_path / "out")])
    assert code == 2 and time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "limit of 25 qubits" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["gm", "--family", "h2n1", "--n", "2", "--restarts", "100001"], "restarts must be at most 100000"),
        (["gm", "--family", "phi", "--n", "2", "--restarts", "100001"], "restarts must be at most 100000"),
        (["control-power", "--sweep", "4097"], "--sweep takes at most 4096 angles"),
        (["build-state", "h2n1", "--n", "100001"], "a channel needs 1 to 100000 remote systems, got 100001"),
    ],
)
def test_count_above_bound_exits_2_before_any_work(tmp_path, capsys, argv, message):
    """One past each bound: refused in one line before the first restart or angle."""
    start = time.perf_counter()
    code = main(argv + ["--out", str(tmp_path / "out")])
    assert code == 2 and time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run-protocol", "--n", "1"],
        ["gm", "--n", "2"],
        ["reproduce-tables", "I"],
        ["verify-all"],
    ],
)
def test_negative_seed_exits_2_naming_the_flag(tmp_path, capsys, argv):
    code = main(argv + ["--seed", "-1", "--out", str(tmp_path / "out")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be non-negative, got -1\n" and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "1", "--seed", "4"],  # includes a branch with an empty corrections list
        ["--n", "3"],
        ["--n", "4", "--groups", "3,5"],
        ["--n", "2", "--permitted", "false"],
        ["--n", "3", "--mode", "sample", "--seed", "5"],
        ["--n", "4", "--groups", "3"],
        ["--n", "4", "--groups", "5", "--permitted", "false"],
    ],
)
def test_run_protocol_report_is_json_dumps_of_the_result(tmp_path, monkeypatch, argv):
    """The report writer reproduces json.dumps(sort_keys=True, indent=2) of the result's
    summary with its measured steps and branch list rebuilt in plain loops, byte for byte."""
    runs = []
    run_crio = proto.run_crio

    def recording_run(**kwargs):
        runs.append((kwargs, run_crio(**kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(proto, "run_crio", recording_run)
    out = tmp_path / "run.json"
    assert main(["run-protocol", *argv, "--out", str(out)]) == 0
    (kwargs, result), = runs
    config = proto.run_config_to_dict(
        kwargs["n_systems"], kwargs["axes"], kwargs["betas"], kwargs["targets"],
        kwargs["mode"], kwargs["seed"], kwargs["permitted"], kwargs["controlled_groups"],
    )
    payload = {**result.summary_json(), "measurements": _plain_measurements(result.branches.steps),
               "min_fidelity": result.min_fidelity(), "total_probability": result.total_probability(),
               "branches": _plain_branch_list(result.branches)}
    assert out.read_text() == json.dumps(_report(payload, config), sort_keys=True, indent=2) + "\n"
    assert any(not b.corrections for b in result.branches) or kwargs["mode"] == "sample"


def _plain_branch_list(branches) -> list:
    """Each branch's JSON object, rebuilt in a plain loop from the table's
    columns: no code shared with the report writer."""
    out = []
    for row, p, f in zip(branches.bits.tolist(), branches.probabilities.tolist(), branches.fidelities.tolist()):
        out.append({"outcomes": "".join(str(b) for b in row), "probability": p, "fidelity": f})
    return out


def _plain_measurements(steps) -> list:
    """The report's measured steps, rebuilt in a plain loop from outcome_records."""
    out = []
    for step in steps:
        fixes, messages = proto.outcome_records(step)[1]
        out.append({"step": step.tag, "from": step.actor, "qubit": step.qubit, "basis": step.basis,
                    "to": [m.recipient for m in messages], "on_one": list(fixes)})
    return out


def _schema1_branch_list(branches) -> list:
    """Each branch's JSON object as version 0.1.0 wrote it, with its corrections and
    transcript in full, rebuilt in a plain loop from the table's columns and outcome_records."""
    out = []
    for row, p, f in zip(branches.bits.tolist(), branches.probabilities.tolist(), branches.fidelities.tolist()):
        corrections, transcript = [], []
        for step, bit in zip(branches.steps, row):
            fixes, messages = proto.outcome_records(step)[bit]
            corrections += fixes
            transcript += [{"from": m.sender, "to": m.recipient, "step": m.step, "payload": m.payload} for m in messages]
        out.append({"outcomes": "".join(str(b) for b in row), "probability": p, "corrections": corrections,
                    "fidelity": f, "transcript": transcript})
    return out


def _control_cases(max_n: int):
    for n in range(1, max_n + 1):
        for size in range(n):
            for groups in combinations(range(3, n + 2), size):
                for permitted in (True, False):
                    yield n, list(groups), permitted, "enumerate"
    yield 3, None, True, "sample"
    yield 3, [4], False, "sample"


@pytest.mark.parametrize("n,groups,permitted,mode", list(_control_cases(3)))
def test_written_branch_list_is_json_dumps_of_a_plain_rebuild(tmp_path, n, groups, permitted, mode):
    """The run-protocol report, written to a file and to stdout, equals
    json.dumps(sort_keys=True, indent=2) of its branches and measured steps rebuilt
    one by one, on every control subset for N <= 3, permitted and denied, and in
    sample mode; tools/compare_reports.py turns it into version 0.1.0's report."""
    rng = np.random.default_rng(400 + n)
    config = proto.run_config_to_dict(n, [proto.PauliAxis(0.6, 0.0, -0.8)] * n, list(rng.uniform(0, 6, n)),
                                      [np.array([0.6, 0.8j])] * n, mode, 5, permitted, groups)
    path, out = tmp_path / "config.json", tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main(["run-protocol", "--config", str(path), "--out", str(out)]) == 0
    text = out.read_text()
    report = json.loads(text)
    branches = proto.run_crio(**proto.load_run_config(path)).branches
    report["branches"], report["measurements"] = _plain_branch_list(branches), _plain_measurements(branches.steps)
    assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
    del report["measurements"]
    report.update(artifact_version="0.1.0", branches=_schema1_branch_list(branches))
    assert compare_reports.as_schema1(text, "0.1.0") == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert len(report["branches"]) == (1 if mode == "sample" else 2 ** report["measurement_count"])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["run-protocol", "--config", str(path)]) == 0
    assert stdout.getvalue() == text


@pytest.mark.parametrize("flags, count", [([], 7), (["--groups", "4"], 5), (["--permitted", "false"], 6)],
                         ids=["full", "partial", "denied"])
def test_report_messages_go_from_and_to_the_qubits_holders(tmp_path, flags, count):
    """Read off the report alone: a measured step comes from A_j for its qubit a_j, and its bit goes
    to the holder of each correction's qubit, A_j for a_j or O_j."""
    out = tmp_path / "run.json"
    assert main(["run-protocol", "--n", "3", "--out", str(out), *flags]) == 0
    measurements = json.loads(out.read_text())["measurements"]
    assert len(measurements) == count
    for m in measurements:
        assert m["from"] == "A" + re.fullmatch(r"a(\d+)", m["qubit"])[1]
        assert m["to"] == ["A" + re.fullmatch(r".* [aO](\d+)", label)[1] for label in m["on_one"]]


@pytest.mark.parametrize("block_rows", [1, 3, 1000])
def test_branch_list_blocks_join_to_one_list(monkeypatch, block_rows):
    monkeypatch.setattr(report, "BLOCK_ROWS", block_rows)
    result = proto.run_crio(2, [X_AXIS] * 2, [0.3, 1.2], [np.array([0.6, 0.8])] * 2)
    blocks = list(result.branches.json_blocks())
    assert len(blocks) == 1 + -(-len(result.branches) // block_rows)
    assert json.loads("".join(blocks)) == _plain_branch_list(result.branches)


def test_zero_row_branch_table_writes_an_empty_list(tmp_path):
    steps = tuple(s for s in proto._plan(1, [X_AXIS], [0.3], [2]) if s.basis is not None)
    empty = proto.Branches(steps, np.zeros((0, len(steps)), dtype=np.uint8), np.zeros(0), np.zeros(0), ("O3",),
                           ((("O3",), np.zeros((0, 2, 2), dtype=complex)),))
    out = tmp_path / "run.json"
    _write_report(str(out), {"n": 1, "branches": empty}, "json")
    assert out.read_text() == json.dumps({"branches": [], "n": 1}, sort_keys=True, indent=2) + "\n"
    assert list(empty) == [] and empty[:] == []


def test_measured_step_list_is_json_dumps_of_a_plain_rebuild(tmp_path):
    """The measurements list written from its frame equals json.dumps of the plain rebuild where no
    protocol run reaches: no steps, a step without recipients or fixes, and labels json escapes."""
    fix = proto.Step("f", "B\u00e9", 'q"1', proto.PAULI_X)
    steps = (proto.Step("s1", "A1", "a1", basis="X"),
             proto.Step("s2", "A\u00e9", "a\\2", basis="Z", messages_to=("B\u00e9", "C\n"),
                        on_one=((fix, 'x "q1"'), (fix, "caf\u00e9"))))
    for measured in ((), steps[:1], steps):
        out = tmp_path / "run.json"
        _write_report(str(out), {"n": 1, "measurements": proto.MeasuredSteps(measured)}, "json")
        want = {"n": 1, "measurements": _plain_measurements(measured)}
        assert out.read_text() == json.dumps(want, sort_keys=True, indent=2) + "\n"


class TestDeterminism:
    def test_repeat_invocations_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["run-protocol", "--n", "1", "--seed", "11", "--out"]
        assert main(argv + [str(a)]) == 0
        assert main(argv + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_reused_parser_keeps_no_values_between_calls(self, tmp_path, capsys):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["run-protocol", "--n", "1", "--seed", "3", "--out", str(first)]) == 0
        assert main(["run-protocol", "--n", "1", "--out", str(second)]) == 0
        assert json.loads(first.read_text())["seed"] == 3
        assert json.loads(second.read_text())["seed"] == 7
        with pytest.raises(SystemExit) as exc:
            main(["run-protocol", "--n", "one"])
        assert exc.value.code == 2 and "invalid int value" in capsys.readouterr().err
        assert main(["run-protocol", "--n", "1", "--out", str(second)]) == 0
        assert json.loads(second.read_text())["seed"] == 7

    def test_table_output_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["reproduce-tables", "II", "--out", str(a)]) == 0
        assert main(["reproduce-tables", "II", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_verify_all(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify-all", "--seed", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "[PASS]" in printed and "[FAIL]" not in printed
    assert json.loads(out.read_text())["failures"] == 0


def test_verify_all_holds_denial_to_its_closed_form(monkeypatch, capsys):
    """The denial check compares the enumerated best guess with protocol.denial_fidelity: a closed
    form off by 1e-9 fails it."""
    exact = proto.denial_fidelity
    monkeypatch.setattr(proto, "denial_fidelity", lambda axes, targets: exact(axes, targets) + 1e-9)
    assert main(["verify-all", "--seed", "2"]) == 2
    assert "[FAIL] control denial defeats every guess" in capsys.readouterr().out


# ----------------------------------------------------------------------
# the --out writer: a file is written over in place and cut to the report's length

_ONE_PER_SUBCOMMAND = [
    ["build-state", "h5", "--format", "csv"],
    ["run-protocol", "--n", "2"],
    ["gm", "--family", "h3", "--restarts", "2", "--format", "text"],
    ["control-power", "--sweep", "3"],
    ["reproduce-tables", "II"],
    ["verify-all"],
]


@pytest.mark.parametrize("argv", _ONE_PER_SUBCOMMAND, ids=lambda argv: argv[0])
def test_report_over_a_longer_file_reads_as_its_stdout(tmp_path, capsys, argv):
    """A report written over a longer file leaves none of the file's old bytes."""
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out"
    out.write_text("\x01" * (2 * len(printed) + 4096))
    assert main(argv + ["--out", str(out)]) == 0
    if argv[0] == "verify-all":  # prints its checks and writes its report to --out only
        assert capsys.readouterr().out == printed
        assert main(argv + ["--out", str(tmp_path / "fresh")]) == 0
        printed = (tmp_path / "fresh").read_text()
    assert out.read_text() == printed


@pytest.mark.parametrize("argv", _ONE_PER_SUBCOMMAND, ids=lambda argv: argv[0])
def test_out_devnull_exits_0(capsys, argv):
    """/dev/null takes a report but no truncate, which the writer only asks of a regular file."""
    assert main(argv + ["--out", os.devnull]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("error,code,message", [
    (OSError(errno.ENOSPC, "No space left on device"), 1, "I/O error: [Errno 28] No space left on device"),
    (ValueError("cannot render the branches"), 2, "error: cannot render the branches"),
])
def test_failed_write_leaves_the_blocks_written_before_it(tmp_path, capsys, monkeypatch, error, code, message):
    """A write that fails after the report's first block leaves that block, cut where it ends."""
    written = []
    json_report = report.json_report

    def first_block_then_fail(payload):
        written.append(next(json_report(payload)))
        yield written[0]
        raise error

    monkeypatch.setattr(report, "json_report", first_block_then_fail)
    out = tmp_path / "run.json"
    out.write_text("\x01" * 100_000)
    assert main(["run-protocol", "--n", "2", "--out", str(out)]) == code
    assert capsys.readouterr().err == message + "\n"
    assert written[0].startswith("{\n") and out.read_text() == written[0]


def test_new_file_gets_the_mode_of_open_w(tmp_path):
    old = os.umask(0o027)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        assert main(["reproduce-tables", "II", "--out", str(tmp_path / "report.csv")]) == 0
    finally:
        os.umask(old)
    modes = {stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("plain", "report.csv")}
    assert modes == {0o640}


def test_out_directory_exits_1_in_one_line(tmp_path, capsys):
    assert main(["control-power", "--alpha", "0.7", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("I/O error: ") and err.count("\n") == 1 and err.endswith("\n")


# Values for a flag or positional with neither choices nor an int type: names the
# subcommands take, and {...} input files the test writes (one of them missing); then
# edge values, which the fuzz also draws for an int flag.
_TOKENS = ["h3", "h5", "h2n1", "phi", "I", "II", "III", "pi/4", "0.7", "x", "0,0.6,-0.8", "3", "3,4", "",
           "{state}", "{config}", "{edges}", "{missing}"]
_EDGE_TOKENS = ["nan", "inf", "1e400", "-0", "0pi/2", "pi/0", ",", str(10**30), str(-10**30), "\u00e9\u6f22",
                "\0", "{directory}", os.devnull]
_OUT_CASES = ("fresh", "longer", "directory", "devnull", "missing-directory")


@st.composite
def _argvs(draw):
    """An argument vector of one subcommand, drawn from its parser's own actions: each optional
    flag present one time in three, and a value from the action's choices, a small int for an
    int flag, or a name or input file otherwise; in half the vectors, also values outside those."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    name, strict = draw(st.sampled_from(sorted(sub.choices))), draw(st.booleans())
    argv = [name]
    for action in sub.choices[name]._actions:
        if isinstance(action, argparse._HelpAction) or action.dest == "out":
            continue
        if (action.option_strings or action.nargs == "?") and draw(st.integers(0, 2)):
            continue
        other = st.sampled_from(_EDGE_TOKENS) | st.text(st.characters(blacklist_characters="/{}"), max_size=4)
        if action.choices:
            valid = st.sampled_from(action.choices)
        elif action.type is int:
            valid = st.integers(-1, 4).map(str)
        else:
            valid = st.sampled_from(_TOKENS)
        value = draw(valid if strict else valid | other)
        argv.append(f"{action.option_strings[0]}={value}" if action.option_strings else value)
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_argvs(), out=st.sampled_from(_OUT_CASES))
def test_any_argv_exits_0_1_or_2_in_one_line(json_dir, argv, out):
    """Any argument vector of any subcommand, writing to a new file, over a longer file, to a
    directory, to /dev/null or under a missing directory: exit 0 with nothing on stderr, or exit
    1 or 2 with one line, and no warning; a report over a longer file leaves no old byte."""
    files = {name: json_dir / f"argv-{name}.txt" for name in ("state", "config", "edges", "missing")}
    files["state"].write_text(json.dumps({"labels": ["q0"], "amplitudes": [[0.6, 0], [0, 0.8]]}))
    files["config"].write_text(json.dumps(_FINITE_CONFIG))
    files["edges"].write_text("n=3\n0 1\n1 2\n")
    files["missing"].unlink(missing_ok=True)
    files["directory"] = json_dir
    path = {"fresh": json_dir / "argv-fresh.out", "longer": json_dir / "argv-longer.out",
            "directory": json_dir, "devnull": os.devnull,
            "missing-directory": json_dir / "no-such-directory" / "argv.out"}[out]
    if out == "fresh":
        path.unlink(missing_ok=True)
    if out == "longer":
        path.write_text("\x01" * 65536)
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        try:
            code = main([a.format(**files) for a in argv] + [f"--out={path}"])
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") == (code != 0) and err.getvalue().endswith("\n") == (code != 0)
    if code == 0 and out == "longer":
        assert "\x01" not in path.read_text()
