"""The report comparison of tools/compare_reports.py on hand-made reports."""
import importlib.util
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_reports", Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py")
compare_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_reports)
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
