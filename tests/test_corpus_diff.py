"""The field-level comparison of tests/corpus_diff.py on small inputs."""

import subprocess

import pytest

import corpus_diff
from corpus_diff import BLAS_THREADS, diff_csv, diff_json, diff_run


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


def test_each_side_runs_at_its_own_blas_thread_count(monkeypatch, capsys):
    # no process starts: git, tar and gapbound calls are recorded, and each
    # gapbound call gets the thread count of its side in every BLAS variable
    calls = []

    def run(cmd, **kwargs):
        calls.append((cmd, kwargs.get("env")))
        return subprocess.CompletedProcess(cmd, 0, stdout=b"", stderr="")

    monkeypatch.setattr(corpus_diff.subprocess, "run", run)
    monkeypatch.setattr(corpus_diff, "_runs",
                        lambda: {"run/x": ["run", "--spec", "x.json"]})
    for argv, want in ((["HEAD"], ["1", "1"]),
                       (["HEAD", "HEAD", "--threads", "1,2"], ["1", "2"])):
        calls.clear()
        assert corpus_diff.main(argv) == 0
        envs = [env for cmd, env in calls if "gapbound.cli" in cmd]
        assert [[env[k] for k in BLAS_THREADS] for env in envs] == \
            [[n] * len(BLAS_THREADS) for n in want]
    assert capsys.readouterr().out == "1 of 1 runs identical\n" * 2
    for bad in ("2", "1,2,3", "0,1", "a,b"):
        with pytest.raises(SystemExit):
            corpus_diff.main(["HEAD", "--threads", bad])
