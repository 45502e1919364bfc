import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from gapbound import bounds, cli, moduli, operators
from gapbound.cli import main, write_eta_csv, write_spectrum_csv
from gapbound.config import DEFAULT_TOL
from gapbound.families import path_instance
from gapbound.heat import default_times, evolve
from gapbound.operators import dirichlet_hamiltonian, eigendecompose

SRC = Path(__file__).resolve().parent.parent / "src"
ALL_ANALYSES = ["spectrum", "bounds", "moduli", "heat"]


def write_spec(path: Path, **kwargs):
    spec = {"schema": "gapbound/1"}
    spec.update(kwargs)
    path.write_text(json.dumps(spec))
    return path


def load_report(out: Path):
    return json.loads((out / "report.json").read_text())


def test_run_path_tight(tmp_path):
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "path", "n": 5}},
                      potential="none", analyses=["spectrum", "bounds"])
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["ok"]
    thm1 = next(r for r in rep["bounds"]["theorems"] if r["theorem"] == "thm1")
    assert abs(thm1["slack"]) <= 1e-9
    assert (out / "spectrum.csv").exists()


def test_run_hypercube_tight(tmp_path):
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "hypercube", "n": 3}},
                      potential="none", analyses=["bounds"])
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
    rep = load_report(out)
    thm2 = next(r for r in rep["bounds"]["theorems"] if r["theorem"] == "thm2")
    assert abs(thm2["slack"]) <= 1e-9


def test_run_quadratic_path_pipeline(tmp_path):
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "path", "n": 6}},
                      potential={"formula": "quadratic", "c": 0.5,
                                 "center": 2.5},
                      analyses=["bounds", "moduli", "heat"])
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["moduli"]["log_concave"]
    assert rep["moduli"]["omega"][0] == 0.0
    for name in ("thm3", "thm5", "thm6"):
        rec = next(r for r in rep["bounds"]["theorems"] if r["theorem"] == name)
        assert rec["applicable"] and rec["holds"]
    assert (out / "eta_series.csv").exists()
    header = (out / "eta_series.csv").read_text().splitlines()[0]
    assert header == "s,t,eta"


def test_run_explicit_group_and_subgraph(tmp_path):
    spec = write_spec(tmp_path / "s.json",
                      instance={"group": {"kind": "cyclic", "n": 8},
                                "generators": [1, 7],
                                "subgraph": [0, 1, 2]},
                      potential="boundary", analyses=["bounds"])
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["strongly_convex"]
    thm3 = next(r for r in rep["bounds"]["theorems"] if r["theorem"] == "thm3")
    assert thm3["applicable"] and thm3["holds"]


def test_subcube_family(tmp_path):
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "subcube",
                                           "mask": [0, None, None]}},
                      potential="boundary", analyses=["bounds"])
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
    rep = load_report(out)
    assert rep["strongly_convex"]


def test_reports_byte_stable(tmp_path):
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "path", "n": 5}},
                      potential="none",
                      analyses=["spectrum", "bounds", "moduli", "heat"])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--spec", str(spec), "--out", str(out1)]) == 0
    assert main(["run", "--spec", str(spec), "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "eta_series.csv").read_bytes() == (out2 / "eta_series.csv").read_bytes()


def test_reports_byte_stable_across_processes(tmp_path):
    # LAPACK output is bit-stable for a fixed BLAS thread count
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "hypercube", "n": 4}},
                      potential="none", analyses=ALL_ANALYSES)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=str(SRC))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        subprocess.run([sys.executable, "-m", "gapbound.cli", "run", "--spec",
                        str(spec), "--out", str(out)], env=env, check=True)
    assert (outs[0] / "report.json").read_bytes() == \
        (outs[1] / "report.json").read_bytes()


def assert_reports_agree(a, b, tol, where="report"):
    """Numbers within tol, everything else equal."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            assert_reports_agree(a[key], b[key], tol, f"{where}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_reports_agree(x, y, tol, f"{where}[{i}]")
    elif isinstance(a, (int, float)) and not isinstance(a, bool):
        assert abs(a - b) <= tol, f"{where}: {a!r} vs {b!r}"
    else:
        assert a == b, where


@pytest.mark.parametrize("instance,potential", [
    ({"family": {"name": "hypercube", "n": 4}}, "none"),
    ({"family": {"name": "path", "n": 12}}, "boundary"),
    ({"family": {"name": "subcube", "mask": [None] * 5 + [0]}}, "boundary"),
], ids=["Q4", "path12-boundary", "Q5-subcube-boundary"])
def test_backends_give_equal_reports(tmp_path, monkeypatch, mp_eigh,
                                     instance, potential):
    # the same run with every eigendecomposition taken from mpmath
    spec = write_spec(tmp_path / "s.json", instance=instance,
                      potential=potential, analyses=ALL_ANALYSES)
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 0
    solved = []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: solved.append(len(a)) or mp_eigh(a))
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "p")]) == 0
    default, oracle = load_report(tmp_path / "d"), load_report(tmp_path / "p")
    assert max(solved) == len(default["spectrum"]["eigenvalues"])
    tol = DEFAULT_TOL.verify_factor * max(1.0, default["bounds"]["exact"]["gap"])
    assert_reports_agree(default, oracle, tol)


def test_sweep_path_family(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--family", "path", "--min", "2", "--max", "8",
                 "--out", str(out)]) == 0
    agg = json.loads((out / "sweep.json").read_text())
    assert agg["ok"]
    for row in agg["table"]:
        assert abs(row["thm1_slack"]) <= 1e-9
    csv_lines = (out / "sweep.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 7


def test_sweep_cycle_sound(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--family", "cycle", "--min", "3", "--max", "10",
                 "--out", str(out)]) == 0
    agg = json.loads((out / "sweep.json").read_text())
    for row in agg["table"]:
        assert row["thm1_slack"] >= -1e-9


def test_sweep_hypercube_gap_two(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--family", "hypercube", "--min", "1", "--max", "4",
                 "--out", str(out)]) == 0
    agg = json.loads((out / "sweep.json").read_text())
    for row in agg["table"]:
        assert abs(row["gap"] - 2.0) <= 1e-9


def sweep_args(family, lo, hi, out, *extra):
    return ["sweep", "--family", family, "--min", str(lo), "--max", str(hi),
            "--out", str(out), *extra]


def counted_sweep(monkeypatch, tmp_path, threads, lo, hi, large_barrier=None):
    """Run a path sweep with verify_all wrapped in a concurrency counter;
    return, per size, the sizes below the cut that ran alongside it."""
    cut = cli._SERIAL_BELOW
    real = bounds.verify_all
    lock = threading.Lock()
    active = set()
    overlaps = {}

    def counted(spec):
        n = spec.dim
        assert threading.current_thread() is not threading.main_thread()
        with lock:
            overlaps[n] = set(active)
            active.add(n)
        try:
            if n < cut:
                time.sleep(0.01)    # releases the GIL: a chance to overlap
            elif large_barrier is not None:
                large_barrier.wait()
            return real(spec)
        finally:
            with lock:
                active.discard(n)
                overlaps[n] |= active
    monkeypatch.setenv("GAPBOUND_THREADS", str(threads))
    monkeypatch.setattr(cli, "verify_all", counted)
    assert main(sweep_args("path", lo, hi, tmp_path / f"t{threads}")) == 0
    return {n: {m for m in others if m < cut} for n, others in overlaps.items()}


def test_sweep_sizes_below_the_cut_never_overlap(tmp_path, monkeypatch):
    cut = cli._SERIAL_BELOW
    overlaps = counted_sweep(monkeypatch, tmp_path, 2, 2, 12)
    assert sorted(overlaps) == list(range(2, 13))
    assert all(not others for others in overlaps.values())
    # the two sizes at or above the cut run at once: each waits for the
    # other at the barrier
    barrier = threading.Barrier(2, timeout=30)
    overlaps = counted_sweep(monkeypatch, tmp_path, 2, cut - 2, cut + 1,
                             barrier)
    assert all(not others for n, others in overlaps.items() if n < cut)
    # one thread: nothing overlaps
    overlaps = counted_sweep(monkeypatch, tmp_path, 1, cut - 2, cut + 1)
    assert all(not others for others in overlaps.values())


def test_sweep_across_the_cut_is_thread_count_independent(tmp_path,
                                                          monkeypatch):
    # hypercube 5..8 holds sizes on both sides of the 128-vertex cut
    assert 1 << 5 < cli._SERIAL_BELOW <= 1 << 8
    outs = {}
    for threads in (1, 2):
        monkeypatch.setenv("GAPBOUND_THREADS", str(threads))
        out = tmp_path / f"t{threads}"
        assert main(sweep_args("hypercube", 5, 8, out)) == 0
        outs[threads] = [(out / f).read_bytes()
                         for f in ("sweep.json", "sweep.csv")]
    assert outs[1] == outs[2]


def test_sweep_has_no_analyses_option(tmp_path, capsys):
    # a sweep computes bounds only, so there is nothing to select
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(sweep_args("path", 2, 3, out, "--analyses", "bounds"))
    assert exc.value.code == 2
    assert "--analyses" in capsys.readouterr().err
    assert not (out / "sweep.json").exists()


def test_bad_thread_count_fails_before_any_size(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_all", lambda *a, **k: pytest.fail("ran"))
    for threads in ("abc", "0", "-3"):
        monkeypatch.setenv("GAPBOUND_THREADS", threads)
        assert main(sweep_args("path", 2, 4, tmp_path / "out")) == 2
        assert "GAPBOUND_THREADS" in capsys.readouterr().err


def test_unknown_keys_rejected(tmp_path):
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "path", "n": 5}},
                      potential="none", analyses=["bounds"], bogus=1)
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2


def test_tol_override_must_be_an_object(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "path", "n": 4}})
    out = tmp_path / "o"
    for argv in (["run", "--spec", str(spec), "--out", str(out)],
                 sweep_args("path", 2, 3, out)):
        assert main(argv + ["--tol", "[1]"]) == 2
        assert "--tol must be a JSON object" in capsys.readouterr().err


def test_spec_tolerances_must_be_an_object(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "path", "n": 4}},
                      tolerances=[1])
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "tolerances must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("family,field", [
    ({"name": "path"}, "n"), ({"name": "cycle"}, "n"),
    ({"name": "hypercube"}, "n"), ({"name": "subcube"}, "mask")])
def test_family_without_its_size_field(tmp_path, capsys, family, field):
    spec = write_spec(tmp_path / "s.json", instance={"family": family})
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert f"needs the field {field!r}" in capsys.readouterr().err


@pytest.mark.parametrize("potential,message", [
    ({"formula": "quadratic", "c": 0.5}, "needs the field 'center'"),
    ({"formula": "quadratic", "center": 1.5}, "needs the field 'c'")])
def test_quadratic_potential_without_its_fields(tmp_path, capsys, potential,
                                                message):
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "path", "n": 4}},
                      potential=potential)
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_tolerance_values_must_be_numbers(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "path", "n": 4}},
                      tolerances={"rayleigh": "x"})
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "tolerance rayleigh must be a number" in capsys.readouterr().err


def test_solver_tolerances_are_unknown_fields(tmp_path, capsys):
    # removed fields: the solver's, and four heat bars that nothing read
    for field in ("eig_max_sweeps", "mass_conservation", "semigroup",
                  "reconstruction", "euler_vs_spectral"):
        spec = write_spec(tmp_path / "s.json",
                          instance={"family": {"name": "path", "n": 4}},
                          tolerances={field: 100})
        out = tmp_path / "o"
        assert main(["run", "--spec", str(spec), "--out", str(out)]) == 2
        assert f"unknown tolerance fields: [{field!r}]" in \
            capsys.readouterr().err
        assert main(sweep_args("path", 2, 3, out, "--tol",
                               json.dumps({field: 1e-6}))) == 2
        assert f"unknown tolerance fields: [{field!r}]" in \
            capsys.readouterr().err


@pytest.mark.parametrize("fields,message", [
    ({"analyses": "bounds"}, "spec analyses must be a JSON list"),
    ({"instance": "path"}, "instance must be a JSON object"),
    ({"instance": {"family": "path"}},
     "instance.family must be a JSON object"),
    ({"instance": {"family": {"name": "path", "n": 4.7}}},
     "'path' field 'n' must be a JSON integer, got 4.7"),
    ({"instance": {"family": {"name": "cycle", "n": True}}},
     "'cycle' field 'n' must be a JSON integer, got True"),
    ({"instance": {"family": {"name": "hypercube", "n": "3"}}},
     "'hypercube' field 'n' must be a JSON integer, got '3'"),
    ({"instance": {"group": {"kind": "cyclic", "n": 6.9},
                   "generators": [1, 5]}},
     "instance group field 'n' must be a JSON integer, got 6.9"),
    ({"instance": {"group": {"kind": "direct_product", "factors": [
        {"kind": "cyclic", "n": 4}, {"kind": "elementary_abelian_2",
                                     "n": 1.0}]}, "generators": [4]}},
     "instance group factors[1] field 'n' must be a JSON integer, got 1.0"),
    ({"instance": {"group": {"kind": "table", "table": [[0, 1], [1, 0.0]]},
                   "generators": [1]}},
     "instance group table[1][1] must be a JSON integer, got 0.0"),
    ({"instance": {"group": {"kind": "cyclic", "n": 8},
                   "generators": [1.7, 7]}},
     "instance generators[0] must be a JSON integer, got 1.7"),
    ({"instance": {"group": {"kind": "cyclic", "n": 8}, "generators": [1, 7],
                   "subgraph": [0, 1.5, 2]}},
     "instance subgraph[1] must be a JSON integer, got 1.5"),
    # ids are range-checked before numpy converts them: these were an
    # OverflowError (exit 1) and an unrelated symmetry message
    ({"instance": {"group": {"kind": "cyclic", "n": 8}, "generators": [1, 7],
                   "subgraph": [0, 2 ** 40]}},
     "instance subgraph[1] must be in [0, 8), got 1099511627776"),
    ({"instance": {"group": {"kind": "table",
                             "table": [[0, 1], [1, 10 ** 23]]},
                   "generators": [1]}},
     f"instance group table[1][1] must be in [0, 2), got {10 ** 23}"),
    ({"instance": {"group": {"kind": "cyclic", "n": 8},
                   "generators": [10 ** 30, 7]}},
     f"instance generators[0] must be in [0, 8), got {10 ** 30}"),
    ({"potential": {"values": ["a", 1, 1, 1]}},
     "potential values[0] must be a JSON number, got 'a'"),
    ({"potential": {"formula": "quadratic", "c": "x", "center": 1.5}},
     "potential field 'c' must be a JSON number, got 'x'"),
    ({"potential": {"formula": "quadratic", "c": 0.5, "center": "x"}},
     "potential field 'center' must be a JSON number, got 'x'"),
    # json reads NaN and Infinity; they must not reach the operator
    ({"potential": {"values": [math.nan, 1, 1, 1]}},
     "potential values[0] must be finite, got nan"),
    ({"potential": {"values": [1, 1, 1, math.inf]}},
     "potential values[3] must be finite, got inf"),
    ({"potential": {"formula": "quadratic", "c": math.nan, "center": 1.5}},
     "potential field 'c' must be finite, got nan"),
    ({"potential": {"formula": "quadratic", "c": 0.5, "center": -math.inf}},
     "potential field 'center' must be finite, got -inf"),
    ({"potential": {"formula": "quadratic", "c": 10 ** 400, "center": 1.5}},
     "potential field 'c' must be finite, got 1000"),
    # a spec file whose top level is not an object
    ([], "spec must be a JSON object, got []"),
    (3, "spec must be a JSON object, got 3"),
    ("x", "spec must be a JSON object, got 'x'"),
], ids=["analyses-string", "instance-string", "family-string", "n-float",
        "n-bool", "n-string", "group-n-float", "factor-n-float",
        "table-entry-float", "generator-float", "subgraph-vertex-float",
        "subgraph-vertex-2**40", "table-entry-10**23", "generator-10**30",
        "potential-value-string", "quadratic-c-string",
        "quadratic-center-string", "potential-value-nan",
        "potential-value-inf", "quadratic-c-nan", "quadratic-center-inf",
        "quadratic-c-huge-int",
        "spec-list", "spec-number", "spec-string"])
def test_spec_fields_of_the_wrong_json_type(tmp_path, capsys, fields,
                                            message):
    spec = tmp_path / "s.json"
    if isinstance(fields, dict):
        write_spec(spec, **{
            "instance": {"family": {"name": "path", "n": 4}}, **fields})
    else:
        spec.write_text(json.dumps(fields))
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400],
                         ids=["nan", "inf", "-inf", "huge-int"])
def test_non_finite_tolerances(tmp_path, capsys, value):
    # a NaN or infinite bar would make every comparison against it pass
    tols = {"recurrence": value}
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "path", "n": 6}},
                      tolerances=tols)
    out = tmp_path / "o"
    message = f"tolerance recurrence must be finite, got {value!r}"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "path", "n": 6}})
    for argv in (["run", "--spec", str(spec), "--out", str(out)],
                 sweep_args("path", 2, 3, out)):
        assert main(argv + ["--tol", json.dumps(tols)]) == 2
        assert message in capsys.readouterr().err
    assert not any(out.iterdir())
    # negative bars stay allowed
    assert main(["run", "--spec", str(spec), "--out", str(out), "--tol",
                 json.dumps({"decay_margin": -1.0})]) == 0


def test_empty_sweep_range(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(sweep_args("path", 5, 2, out)) == 2
    assert "empty size range" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()
    assert not (out / "sweep.json").exists()


def test_bad_schema_and_bad_potential(tmp_path):
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"schema": "other/9",
                                "instance": {"family": {"name": "path", "n": 4}}}))
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    spec2 = write_spec(tmp_path / "s2.json",
                       instance={"family": {"name": "path", "n": 4}},
                       potential={"values": [1.0, 2.0]},  # wrong length
                       analyses=["bounds"])
    assert main(["run", "--spec", str(spec2), "--out", str(tmp_path / "o")]) == 2


def test_verification_failure_exits_one(tmp_path):
    # an impossible decay margin forces the heat certificate to fail
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "path", "n": 4}},
                      potential="none", analyses=["heat"],
                      tolerances={"decay_margin": -10.0})
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 1
    rep = load_report(out)
    assert not rep["ok"]
    assert rep["failures"]


def test_eta_csv_17_digits(tmp_path):
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "path", "n": 3}},
                      potential="none", analyses=["heat"])
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
    lines = (out / "eta_series.csv").read_text().splitlines()[1:]
    s, t, eta = lines[-1].split(",")
    assert float(eta) == float(format(float(eta), ".17g"))  # round-trips


def test_eta_csv_matches_per_value_writer(tmp_path):
    # the per-value loop the writer replaced: one format call per number
    sub = path_instance(9)
    op = dirichlet_hamiltonian(sub, "boundary")
    spec = eigendecompose(op)
    traj = evolve(spec, spec.vector(1), default_times(spec.gap))
    lines = ["s,t,eta"]
    for t, eta in zip(traj.times, traj.etas):
        for s in range(1, eta.size):
            lines.append(f"{s},{format(float(t), '.17g')},"
                         f"{format(float(eta[s]), '.17g')}")
    write_eta_csv(tmp_path / "eta.csv", traj.times, traj.etas)
    assert (tmp_path / "eta.csv").read_text() == "\n".join(lines) + "\n"


EDGE_VALUES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e17,
               1e-4, 1e-5, 0.0, 1.0, 3.0, 100.0, 2.0 ** 53, 1 / 3, -2.5e-7]


def reference_eta_csv(times, etas):
    lines = ["s,t,eta"]
    for t, eta in zip(times, etas):
        for s in range(1, eta.size):
            lines.append(f"{s},{format(float(t), '.17g')},"
                         f"{format(float(eta[s]), '.17g')}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("d,samples", [(1, 3), (160, 4), (160, 1), (7, 0)])
def test_writers_match_per_value_format_on_edge_values(tmp_path, d, samples):
    # D = 160 holds every edge value; each sample is the pool rolled by one
    pool = np.resize(EDGE_VALUES + [1234.5678, -0.1, 7e-300], d + 1)
    times = np.resize(EDGE_VALUES, samples)
    etas = np.array([np.roll(pool, k) for k in range(samples)])
    write_eta_csv(tmp_path / "eta.csv", times, etas)
    assert (tmp_path / "eta.csv").read_text() == \
        reference_eta_csv(times, etas)

    eigenvalues = pool[::-1]
    write_spectrum_csv(tmp_path / "spectrum.csv",
                       type("Spec", (), {"eigenvalues": eigenvalues}))
    want = ["index,eigenvalue"] + [f"{i},{format(float(w), '.17g')}"
                                   for i, w in enumerate(eigenvalues)]
    assert (tmp_path / "spectrum.csv").read_text() == "\n".join(want) + "\n"


def call_main(argv, capsys):
    """Exit code, stdout, stderr and output files of one main(argv)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    out_dir = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    files = {} if out_dir is None or not out_dir.is_dir() else \
        {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
    return code, out, err, files


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "path", "n": 5}},
                      potential="boundary", analyses=ALL_ANALYSES)

    def argv(name, out):
        common = ["--spec", str(spec), "--out", str(out)]
        return {"run-tol": ["run", *common, "--tol", '{"tie_factor": 1e-3}'],
                "run": ["run", *common], "verify": ["verify", *common],
                "sweep": sweep_args("path", 2, 4, out),
                "invalid": ["run", "--spec", str(spec), "--bogus"]}[name]

    names = ["run-tol", "run", "verify", "run", "sweep", "run", "invalid",
             "run"]
    fresh = {}
    for name in set(names):
        cli._parser.cache_clear()
        fresh[name] = call_main(argv(name, tmp_path / "fresh" / name), capsys)
    assert fresh["invalid"][0] == 2
    assert fresh["run-tol"][3]["report.json"] != fresh["run"][3]["report.json"]

    cli._parser.cache_clear()
    for i, name in enumerate(names):
        got = call_main(argv(name, tmp_path / "seq" / f"{i}-{name}"), capsys)
        assert got == fresh[name], (i, name)
    assert cli._parser.cache_info().misses == 1


# instances whose per-instance quantities every analysis reads
SHARED = {
    "path12-quadratic": ({"family": {"name": "path", "n": 12}},
                         {"formula": "quadratic", "c": 0.5, "center": 5.5}),
    "Q5-subcube-boundary": ({"family": {"name": "subcube",
                                        "mask": [None] * 5 + [0]}},
                            "boundary"),
    "C8-long-arc": ({"group": {"kind": "cyclic", "n": 8},
                     "generators": [1, 7], "subgraph": [0, 1, 2, 3, 4, 5]},
                    "none"),
}


def spy_everywhere(monkeypatch, module, name):
    """Calls of module.name through every gapbound binding of it, as
    (args, result) pairs."""
    real = getattr(module, name)
    calls = []

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, result))
        return result
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "gapbound" and \
                getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, spy)
    return calls


@pytest.mark.parametrize("name", ["path12-quadratic", "Q5-subcube-boundary"])
def test_run_computes_each_quantity_once(tmp_path, monkeypatch, name):
    instance, potential = SHARED[name]
    spec = write_spec(tmp_path / "s.json", instance=instance,
                      potential=potential, analyses=ALL_ANALYSES)
    calls = {fn: spy_everywhere(monkeypatch, mod, fn) for mod, fn in (
        (operators, "eigendecompose"), (bounds, "build_operator"),
        (operators, "laplacian"), (operators, "rayleigh_gap_check"),
        (moduli, "_ratio_scans"), (moduli, "modulus_of_continuity"),
        (moduli, "_extremal"), (moduli, "log_concavity"),
        (moduli, "modulus_of_concavity"))}
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0
    count = {fn: len(c) for fn, c in calls.items()}
    (_, spectrum), = calls["eigendecompose"]
    # one block for the whole lambda1 eigenspace, no per-vector eta; the
    # extremal scan stays one per basis vector
    basis = len(spectrum.gap_indices)
    want = {"build_operator": 1, "laplacian": 1, "rayleigh_gap_check": 1,
            "_ratio_scans": 1, "modulus_of_continuity": 0, "_extremal": basis}
    assert {fn: count[fn] for fn in want} == want
    (args, block), = calls["_ratio_scans"]
    assert args[1] == spectrum.gap_indices and len(block) == basis
    assert count["log_concavity"] <= 1 and count["modulus_of_concavity"] <= 1


@pytest.mark.parametrize("name", SHARED)
def test_each_analysis_alone_gives_the_same_block(tmp_path, name):
    instance, potential = SHARED[name]
    outs = {}
    for analyses in [ALL_ANALYSES] + [[a] for a in ALL_ANALYSES]:
        key = "all" if len(analyses) > 1 else analyses[0]
        spec = write_spec(tmp_path / f"{key}.json", instance=instance,
                          potential=potential, analyses=analyses)
        main(["run", "--spec", str(spec), "--out", str(tmp_path / key)])
        outs[key] = tmp_path / key
    full = load_report(outs["all"])
    for a in ALL_ANALYSES:
        alone = load_report(outs[a])
        assert json.dumps(alone[a], sort_keys=True) == \
            json.dumps(full[a], sort_keys=True), a
    for a, csv in (("spectrum", "spectrum.csv"), ("heat", "eta_series.csv")):
        assert (outs[a] / csv).read_bytes() == (outs["all"] / csv).read_bytes()


def test_hypercube_run_builds_no_pair_index(tmp_path, monkeypatch):
    # every eta block on Q6 takes ball dilation: the lambda1 eigenspace
    # (6 vectors) and the heat trajectory
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "hypercube", "n": 6}},
                      analyses=ALL_ANALYSES)
    calls = spy_everywhere(monkeypatch, operators, "eigendecompose")
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0
    (_, spectrum), = calls
    assert len(spectrum.gap_indices) == 6
    assert "_classes" not in spectrum.operator.source.__dict__


@pytest.mark.parametrize("n", [4, 5])
def test_transposition_graph_gap_and_theorem_3(tmp_path, transpositions, n):
    # Cay(S_n, transpositions): lambda1 = n with multiplicity (n - 1)^2
    table, gens = transpositions(n)
    spec = write_spec(tmp_path / "s.json",
                      instance={"group": {"kind": "table", "table": table},
                                "generators": gens},
                      analyses=["spectrum", "bounds"])
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0
    bounds_block = load_report(tmp_path / "o")["bounds"]
    gap = bounds_block["exact"]["gap"]
    assert abs(gap - n) <= DEFAULT_TOL.verify_factor * max(1.0, gap)
    assert bounds_block["graph"]["diameter"] == n - 1
    thm3 = next(r for r in bounds_block["theorems"] if r["theorem"] == "thm3")
    assert thm3["applicable"] and thm3["holds"]
    assert len(thm3["detail"]["c_u0"]) == (n - 1) ** 2
