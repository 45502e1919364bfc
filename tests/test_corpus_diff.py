"""The field-level comparison of tests/corpus_diff.py on small inputs."""

from corpus_diff import diff_csv, diff_json, diff_run


def test_json_diff_names_each_moved_path():
    old = {"gap": 1.0, "failures": [], "gone": 1, "theorems": [
        {"bound": 0.5, "holds": True}, {"bound": 0.25, "holds": True}],
        "rate": float("nan")}
    new = {"gap": 1.0, "failures": ["thm4: x"], "new": {}, "theorems": [
        {"bound": 0.5, "holds": True}, {"bound": 0.2, "holds": False}],
        "rate": float("nan")}
    assert diff_json(old, old) == []
    assert diff_json(old, new) == [
        "theorems[].bound: 1 moved, largest change 0.05 (relative 0.2)",
        "theorems[].holds: 1 moved, e.g. True -> False",
        "failures[]: length changed",
        "gone: key removed",
        "new: key added"]
    # an integer that became a float moves by 0
    assert diff_json({"n": 1}, {"n": 1.0}) == [
        "n: 1 moved, largest change 0 (relative 0)"]


def test_csv_diff_names_each_moved_column():
    old = "s,t,eta\n1,0,0.5\n2,0,1\n1,1,0.25\n"
    new = "s,t,eta,extra\n1,0,0.5,x\n2,0,1.5,x\n"
    assert diff_csv(old, old) == []
    assert diff_csv(old, new) == [
        "eta: 1 moved, largest change 0.5 (relative 0.333)",
        "extra: column added", "rows: 3 -> 2"]


def test_run_diff_lists_exit_stderr_and_files():
    old = {"exit": 2, "stderr": "error: a\n",
           "files": {"report.json": b"{}", "spectrum.csv": b"i\n0\n"}}
    new = {"exit": 1, "stderr": "error: b\n",
           "files": {"report.json": b"{}", "sweep.json": b"{}"}}
    assert diff_run(old, old) == []
    assert diff_run(old, new) == [
        "exit 2 -> 1", "stderr:", "  - error: a", "  + error: b",
        "spectrum.csv: removed", "sweep.json: added",
        "identical: report.json"]
