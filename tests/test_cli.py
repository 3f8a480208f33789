import contextlib
import io
import json
import math
import os
import time
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crio import protocol as proto
from crio.cli import _report, _write_protocol_report, format_angle, main, parse_angle, parse_axis
from crio.graphstate import CrioTopology, crio_channel_state
from crio.qcore import X_AXIS


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

    def test_config_missing_key_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_systems": 1, "axes": [[1.0, 0.0, 0.0]], "betas": [0.4]}))
        assert main(["run-protocol", "--config", str(cfg_path), "--out", str(tmp_path / "run.json")]) == 2
        assert "targets" in capsys.readouterr().err

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
    """The branch-list writer reproduces json.dumps(sort_keys=True, indent=2) of
    ProtocolResult.to_json_dict byte for byte."""
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
    payload = result.to_json_dict()
    payload["min_fidelity"] = result.min_fidelity()
    payload["total_probability"] = result.total_probability()
    assert out.read_text() == json.dumps(_report(payload, config), sort_keys=True, indent=2) + "\n"
    assert any(not b.corrections for b in result.branches) or kwargs["mode"] == "sample"


def _plain_branch_list(branches) -> list:
    """Each branch's JSON object, rebuilt in a plain loop from the table's
    columns and outcome_records: no code shared with the report writer."""
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
    json.dumps(sort_keys=True, indent=2) of its branches rebuilt one by one, on
    every control subset for N <= 3, permitted and denied, and in sample mode."""
    rng = np.random.default_rng(400 + n)
    config = proto.run_config_to_dict(n, [proto.PauliAxis(0.6, 0.0, -0.8)] * n, list(rng.uniform(0, 6, n)),
                                      [np.array([0.6, 0.8j])] * n, mode, 5, permitted, groups)
    path, out = tmp_path / "config.json", tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main(["run-protocol", "--config", str(path), "--out", str(out)]) == 0
    text = out.read_text()
    report = json.loads(text)
    report["branches"] = _plain_branch_list(proto.run_crio(**proto.load_run_config(path)).branches)
    assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert len(report["branches"]) == (1 if mode == "sample" else 2 ** report["measurement_count"])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["run-protocol", "--config", str(path)]) == 0
    assert stdout.getvalue() == text


@pytest.mark.parametrize("block_rows", [1, 3, 1000])
def test_branch_list_blocks_join_to_one_list(monkeypatch, block_rows):
    monkeypatch.setattr(proto, "BLOCK_ROWS", block_rows)
    result = proto.run_crio(2, [X_AXIS] * 2, [0.3, 1.2], [np.array([0.6, 0.8])] * 2)
    blocks = list(result.branches.json_blocks())
    assert len(blocks) == 1 + -(-len(result.branches) // block_rows)
    assert json.loads("".join(blocks)) == _plain_branch_list(result.branches)


def test_zero_row_branch_table_writes_an_empty_list(tmp_path):
    steps = tuple(s for s in proto._plan(1, [X_AXIS], [0.3], [2]) if s.basis is not None)
    empty = proto.Branches(steps, np.zeros((0, len(steps)), dtype=np.uint8), np.zeros(0), np.zeros(0), ("O3",),
                           np.zeros((0, 2), dtype=complex))
    result = proto.ProtocolResult(1, True, (3,), None, empty, "enumerate")
    out = tmp_path / "run.json"
    _write_protocol_report(str(out), {"n": 1}, result, "json")
    assert out.read_text() == json.dumps({"branches": [], "n": 1}, sort_keys=True, indent=2) + "\n"
    assert result.to_json_dict()["branches"] == [] and list(empty) == [] and empty[:] == []


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
