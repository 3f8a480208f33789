"""The report comparison of tools/compare_reports.py on hand-made reports."""
import json
import math

import pytest

from conftest import compare_reports

max_difference, Mismatch = compare_reports.max_difference, compare_reports.Mismatch


def test_largest_numeric_difference_and_its_path():
    old = {"branches": [{"p": 0.25, "fidelity": 1.0}, {"p": 0.75, "fidelity": 1.0}]}
    new = {"branches": [{"p": 0.25, "fidelity": 1.0 - 4e-16}, {"p": 0.75 + 1e-17, "fidelity": 1.0}]}
    diff, where = max_difference(old, new)
    assert diff == pytest.approx(4e-16, rel=0.5) and where == "/branches/0/fidelity"


@pytest.mark.parametrize("old, new", [(0.5, math.nan), (math.nan, 0.5), ("0.5", "nan"),
                                      ({"a": [math.nan]}, {"a": [0.0]}), (math.inf, math.nan)])
def test_nan_on_one_side_is_a_mismatch(old, new):
    with pytest.raises(Mismatch):
        max_difference(old, new)


def test_opposite_infinities_are_over_tolerance():
    assert not max_difference(math.inf, -math.inf)[0] <= compare_reports.TOLERANCE


def test_nan_on_both_sides_is_equal():
    assert max_difference({"a": math.nan}, {"a": math.nan})[0] == 0.0


@pytest.mark.parametrize("old, new", [({"a": 1}, {"b": 1}), ([1, 2], [1]), ("H", "X"), (True, 1)])
def test_structural_or_non_numeric_difference_is_a_mismatch(old, new):
    with pytest.raises(Mismatch):
        max_difference(old, new)


def test_summary_counts_identical_and_differing_reports(monkeypatch, capsys):
    outputs = {"old": {"a": '{"x": 1.0}', "b": '{"x": 1.0}', "c": '{"x": 1.0}'},
               "new": {"a": '{"x": 1.0}', "b": '{"x": 1.0000000000000002}', "c": '{"x": 1.5}'}}
    monkeypatch.setattr(compare_reports, "report_matrix", lambda: [["a"], ["b"], ["c"]])
    monkeypatch.setattr(compare_reports, "run_report", lambda src, argv, cwd: (0, outputs[src][argv[0]]))
    assert compare_reports.main(["old", "new"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "1 of 3 identical, 1 differ beyond 1e-12"


def _dumped(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_schema2_run_report_converts_to_its_schema1_bytes():
    steps = [{"step": "step3", "from": "A1", "qubit": "a1", "basis": "X", "to": ["A2", "A3"],
              "on_one": ["sigma_x a2", "sigma_x a3"]},
             {"step": "step4", "from": "A4", "qubit": "a4", "basis": "X", "to": ["A2"], "on_one": ["sigma_z a2"]}]
    head = {"config_hash": "0123abcd", "measurement_count": 2, "min_fidelity": 1.0}
    schema2 = {"artifact_version": "0.2.0", **head, "measurements": steps, "branches": [
        {"outcomes": "01", "probability": 0.5, "fidelity": 1.0},
        {"outcomes": "10", "probability": 0.5, "fidelity": 1.0}]}
    schema1 = {"artifact_version": "0.1.0", **head, "branches": [
        {"outcomes": "01", "probability": 0.5, "fidelity": 1.0, "corrections": ["sigma_z a2"], "transcript": [
            {"from": "A1", "payload": 0, "step": "step3", "to": "A2"},
            {"from": "A1", "payload": 0, "step": "step3", "to": "A3"},
            {"from": "A4", "payload": 1, "step": "step4", "to": "A2"}]},
        {"outcomes": "10", "probability": 0.5, "fidelity": 1.0, "corrections": ["sigma_x a2", "sigma_x a3"],
         "transcript": [{"from": "A1", "payload": 1, "step": "step3", "to": "A2"},
                        {"from": "A1", "payload": 1, "step": "step3", "to": "A3"},
                        {"from": "A4", "payload": 0, "step": "step4", "to": "A2"}]}]}
    assert compare_reports.as_schema1(_dumped(schema2), "0.1.0") == _dumped(schema1)
    text = "artifact_version: 0.2.0\nconfig_hash: 0123abcd\nmeasurement_count: 2\nmeasurements: [2 entries]\n"
    assert compare_reports.as_schema1(text, "0.1.0") == "artifact_version: 0.1.0\nconfig_hash: 0123abcd\nmeasurement_count: 2\n"
    csv = "# artifact_version=0.2.0 config_hash=0123abcd\nblock,x\n"
    assert compare_reports.as_schema1(csv, "0.1.0") == "# artifact_version=0.1.0 config_hash=0123abcd\nblock,x\n"


def test_config_hash_may_move_across_a_version_only_on_a_listed_report(monkeypatch, capsys):
    listed = ["build-state", "h3"]
    old, new = ('{\n  "artifact_version": "0.1.0",\n  "config_hash": "aaaa",\n  "x": 1.0\n}\n',
                '{\n  "artifact_version": "0.2.0",\n  "config_hash": "bbbb",\n  "x": 1.0\n}\n')
    monkeypatch.setattr(compare_reports, "report_matrix", lambda: [listed, ["gm", "--family", "h2n1"]])
    monkeypatch.setattr(compare_reports, "run_report", lambda src, argv, cwd: (0, {"old": old, "new": new}[src]))
    assert compare_reports.main(["old", "new"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("identical (as 0.1.0; config_hash moved, FOUND 48)")
    assert lines[1].endswith("DIFFERENT config_hash differs")
    assert lines[-1] == "1 of 2 identical, 1 differ beyond 1e-12"
    # within one version, a listed report's hash must hold too
    monkeypatch.setattr(compare_reports, "run_report",
                        lambda src, argv, cwd: (0, {"old": old, "new": old.replace("aaaa", "bbbb")}[src]))
    assert compare_reports.main(["old", "new"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "0 of 2 identical, 2 differ beyond 1e-12"
