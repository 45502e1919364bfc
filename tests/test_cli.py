import contextlib
import dataclasses
import io
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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gapbound import bounds, cli, jacobi, moduli, operators
from gapbound.cli import main, write_eta_csv, write_spectrum_csv
from gapbound.config import DEFAULT_TOL, ToleranceConfig
from gapbound.families import path_instance
from gapbound.errors import CertificateFailure
from gapbound.heat import (decay_rate_check, default_times, evolve,
                           mocheat_inequality_check, ratio_evolution_check)
from gapbound.operators import dirichlet_hamiltonian, eigendecompose

from conftest import traced_peak

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


def test_bent_path_in_q3_reports_the_local_witness(tmp_path):
    # the local test decides Q_n hosts: boundary vertex 2 has the members
    # 2^1 = 3 and 2^2 = 0 as neighbours, a geodesic from 3 to 0 through 2
    spec = write_spec(tmp_path / "s.json",
                      instance={"group": {"kind": "elementary_abelian_2",
                                          "n": 3},
                                "generators": [1, 2, 4],
                                "subgraph": [0, 1, 3, 7]},
                      analyses=["bounds"])
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
    rep = load_report(out)
    assert not rep["strongly_convex"]
    assert rep["convexity_witness"] == [3, 0, 2]


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


def test_unknown_keys_rejected(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "path", "n": 5}},
                      potential="none", analyses=["bounds"], bogus=1)
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    # group objects too, a direct-product factor included
    cyclic = {"kind": "cyclic", "n": 4}
    for group, where in (
            ({**cyclic, "foo": 1}, "instance group"),
            ({"kind": "direct_product", "factors": [
                {**cyclic, "foo": 1}, {"kind": "cyclic", "n": 2}]},
             "instance group factors[0]")):
        spec = write_spec(tmp_path / "s.json",
                          instance={"group": group, "generators": [1, 3]})
        assert main(["run", "--spec", str(spec),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"unknown keys in {where}: ['foo']" in capsys.readouterr().err


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


def test_potential_that_overflows_is_named(tmp_path, capsys):
    # c (x - center)^2 overflows to inf at x = 2; the operator names the
    # entry instead of failing the Perron-Frobenius invariant later
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "path", "n": 5}},
                      potential={"formula": "quadratic", "c": 1e308,
                                 "center": 0})
    with pytest.warns(RuntimeWarning, match="overflow"):
        code = main(["run", "--spec", str(spec), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: potential entry 2 is inf; a potential must be finite\n"


def test_tolerance_values_must_be_numbers(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "path", "n": 4}},
                      tolerances={"rayleigh": "x"})
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert "tolerance rayleigh must be a JSON number, got 'x'" in \
        capsys.readouterr().err


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
    ({"instance": {"family": {"name": "subcube", "mask": 5}}},
     "'subcube' field 'mask' must be a JSON list, got 5"),
    ({"instance": {"family": {"name": "subcube",
                              "mask": [True, None, None]}}},
     "'subcube' mask[0] must be 0, 1 or null, got True"),
    ({"instance": {"family": {"name": "subcube",
                              "mask": [None, 1.0, None]}}},
     "'subcube' mask[1] must be 0, 1 or null, got 1.0"),
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
    ({"instance": {"group": {"kind": "table", "table": [[0, 1], [1, 0]],
                             "name": 5},
                   "generators": [1]}},
     "instance group field 'name' must be a JSON string, got 5"),
    # a group kind that is not a string was a TypeError traceback
    ({"instance": {"group": {"kind": ["cyclic"], "n": 4},
                   "generators": [1, 3]}},
     "unknown group spec: {'kind': ['cyclic'], 'n': 4}"),
    # a spec file whose top level is not an object
    ([], "spec must be a JSON object, got []"),
    (3, "spec must be a JSON object, got 3"),
    ("x", "spec must be a JSON object, got 'x'"),
], ids=["analyses-string", "instance-string", "family-string", "n-float",
        "n-bool", "n-string", "group-n-float", "factor-n-float",
        "table-entry-float", "generator-float", "subgraph-vertex-float",
        "subgraph-vertex-2**40", "table-entry-10**23", "generator-10**30",
        "mask-integer", "mask-entry-bool", "mask-entry-float",
        "potential-value-string", "quadratic-c-string",
        "quadratic-center-string", "potential-value-nan",
        "potential-value-inf", "quadratic-c-nan", "quadratic-center-inf",
        "quadratic-c-huge-int", "table-name-integer", "group-kind-list",
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


@pytest.mark.parametrize("fields,message", [
    ({"instance": {"group": {"kind": "cyclic", "n": 8},
                   "generators": [1, 7.0]}},
     "instance generators[1] must be a JSON integer, got 7.0"),
    ({"instance": {"group": {"kind": "cyclic", "n": 8}, "generators": [1, 7],
                   "subgraph": [0, 1, 2.0]}},
     "instance subgraph[2] must be a JSON integer, got 2.0"),
    ({"instance": {"group": {"kind": "cyclic", "n": 8}, "generators": [1, 7]},
      "potential": {"values": [0] * 7 + ["1"]}},
     "potential values[7] must be a JSON number, got '1'"),
    ({"potential": {"values": [0, 0, 0, None]}},
     "potential values[3] must be a JSON number, got None")],
    ids=["generator-float", "subgraph-vertex-float", "group-potential-string",
         "family-potential-null"])
def test_json_type_errors_raise_before_any_build(tmp_path, monkeypatch,
                                                 capsys, fields, message):
    # the whole spec is checked before any group, graph or family is built
    builders = [family[0].__name__ for family in cli._families().values()]
    for name in ("build_group", "build_cayley", "subcube_instance",
                 *builders):
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k:
                            pytest.fail(f"{_name} ran"))
    spec = write_spec(tmp_path / "s.json", **{
        "instance": {"family": {"name": "path", "n": 4}}, **fields})
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_negative_quadratic_potential_is_rejected(tmp_path, capsys):
    # c < 0 gives W < 0, rejected like the same values given explicitly
    path6 = {"family": {"name": "path", "n": 6}}
    quadratic = {"formula": "quadratic", "c": -0.5, "center": 2.5}
    values = {"values": [-0.5 * (x - 2.5) ** 2 for x in range(6)]}
    for pot in (quadratic, values):
        spec = write_spec(tmp_path / "s.json", instance=path6, potential=pot)
        assert main(["run", "--spec", str(spec),
                     "--out", str(tmp_path / "o")]) == 2
        assert "potential has a negative entry" in capsys.readouterr().err


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


@pytest.mark.parametrize("family,largest",
                         [("path", 1 << 15), ("cycle", 1 << 16),
                          ("hypercube", 16)])
def test_sweep_past_the_group_order_cap(tmp_path, monkeypatch, capsys,
                                        family, largest):
    # checked before any size runs: --max 10**21 was an OverflowError, and
    # a path sweep past the cap first ran every smaller size
    def never(*args):
        raise AssertionError("a size ran")
    monkeypatch.setattr(cli, "build_operator", never)
    out = tmp_path / "out"
    for hi in (largest + 1, 10 ** 21):
        assert main(sweep_args(family, 1, hi, out)) == 2
        assert capsys.readouterr().err == (
            f"error: {family}({hi}) exceeds the group order cap 65536; "
            f"the largest is {family}({largest})\n")
    assert not any(out.iterdir())


@pytest.mark.parametrize("message,err", [
    ("Unable to allocate 1.00 GiB for an array",
     "error: out of memory: Unable to allocate 1.00 GiB for an array\n"),
    ("", "error: out of memory\n")])
def test_out_of_memory_exits_two(tmp_path, monkeypatch, capsys, message, err):
    # a build too large for memory is a size limit, not a failed
    # verification (exit 1) with a traceback; the builders are patched to
    # raise, so nothing large is allocated
    def oom(*args):
        raise MemoryError(message)
    monkeypatch.setattr(cli, "build_cayley", oom)
    monkeypatch.setattr(cli, "path_instance", oom)
    spec = write_spec(tmp_path / "s.json", instance={
        "group": {"kind": "cyclic", "n": 8}, "generators": [1, 7]})
    out = tmp_path / "out"
    for argv in (["run", "--spec", str(spec), "--out", str(out)],
                 ["verify", "--spec", str(spec), "--out", str(out)],
                 sweep_args("path", 2, 4, out)):
        assert main(argv) == 2
        assert capsys.readouterr().err == err
    assert not any(out.iterdir())


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


@pytest.mark.parametrize("analyses", [["bounds"], ["spectrum", "bounds"]])
def test_bounds_certificate_failure_ends_in_a_report(tmp_path, capsys,
                                                     analyses):
    # a recurrence bar no residual meets: verify_all's certificate fails,
    # and the bounds block records it as the spectrum block does
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "path", "n": 8}},
                      analyses=analyses, tolerances={"recurrence": 1e-20})
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    rep = load_report(out)
    assert not rep["ok"]
    block = rep["bounds"]
    assert block["ok"] is False
    assert block["error"].startswith("eigen-recurrence fails for pair 0 ")
    assert isinstance(block["witness"], int)
    assert f"bounds certificate: {block['error']}" in rep["failures"]
    if "spectrum" in analyses:
        assert rep["spectrum"]["certificate"] == block


# every bar but the decay margin: a negative one fails exact input or
# switches its check off
NONNEGATIVE_BARS = [f for f in DEFAULT_TOL.as_dict() if f != "decay_margin"]


@pytest.mark.parametrize("instance,potential,field,value", [
    ({"family": {"name": "path", "n": 8}}, "none", "verify_factor", -1.0),
    ({"family": {"name": "cycle", "n": 9}}, "none", "verify_factor", -1.0),
    ({"family": {"name": "subcube", "mask": [None, None, None, 1]}},
     "boundary", "verify_factor", -1.0),
    *(({"family": {"name": "path", "n": 8}}, "boundary", field, -0.001)
      for field in NONNEGATIVE_BARS)],
    ids=["path8", "C9", "Q4-subcube-boundary", *NONNEGATIVE_BARS])
def test_negative_verify_factor_ends_in_a_report(tmp_path, capsys, instance,
                                                 potential, field, value):
    # a negative margin would fail bounds equal to the gap, so it is a spec
    # error: exit 2, the message, and no report, whether the spec, run
    # --tol or sweep --tol sets it
    message = f"error: tolerance {field} must be >= 0, got {value!r}\n"
    tols = {field: value}
    out = tmp_path / "out"
    spec = write_spec(tmp_path / "s.json", instance=instance,
                      potential=potential, analyses=ALL_ANALYSES,
                      tolerances=tols)
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    spec = write_spec(tmp_path / "s.json", instance=instance,
                      potential=potential, analyses=ALL_ANALYSES)
    for argv in (["run", "--spec", str(spec), "--out", str(out)],
                 sweep_args("path", 2, 3, out)):
        assert main(argv + ["--tol", json.dumps(tols)]) == 2
        assert capsys.readouterr().err == message
    assert not any(out.iterdir())


def test_verify_fails_a_negative_slack_that_run_accepts(tmp_path,
                                                        monkeypatch):
    # an ok report whose one applicable bound exceeds the gap by 1e-9: the
    # report is the stub's, so no rounding enters the verdict
    record = {"name": "thm1", "applicable": True, "slack": -1e-9}
    monkeypatch.setattr(cli, "run_instance", lambda spec, out: {
        "ok": True, "bounds": {"theorems": [record]}})
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "path", "n": 4}})
    argv = ["--spec", str(spec), "--out", str(tmp_path / "out")]
    assert main(["run", *argv]) == 0
    assert main(["verify", *argv]) == 1


def test_every_route_to_a_tolerance_checks_its_range():
    # the one rule in ToleranceConfig holds for direct construction and
    # with_overrides alike; the decay margin may be any finite number
    for field in NONNEGATIVE_BARS:
        for make in (lambda: ToleranceConfig(**{field: -1e-300}),
                     lambda: DEFAULT_TOL.with_overrides(**{field: -1})):
            with pytest.raises(ValueError, match=f"^tolerance {field} must "
                               "be >= 0, got -1"):
                make()
        assert getattr(DEFAULT_TOL.with_overrides(**{field: 0}), field) == 0
    assert ToleranceConfig(decay_margin=-1e300).decay_margin == -1e300
    with pytest.raises(ValueError, match="decay_margin must be finite"):
        ToleranceConfig(decay_margin=-math.inf)


@pytest.mark.parametrize("check", ["decay", "mocheat", "ratio"])
def test_heat_certificate_failure_ends_in_a_report(tmp_path, check):
    # a failed heat certificate's block is its error and the witness the
    # check raised, as a failed spectrum or bounds certificate's is
    n, potential, tolerances, label = {
        "decay": (4, "none", {"decay_margin": -10.0}, "heat decay"),
        "mocheat": (8, {"values": [0, 1, 2, 3, 3, 2, 1, 0]}, {},
                    "mocheat certificate"),
        "ratio": (8, "boundary", {"ratio_identity": 1e-30},
                  "ratio certificate")}[check]
    spec = write_spec(tmp_path / "s.json",
                      instance={"family": {"name": "path", "n": n}},
                      potential=potential, analyses=["heat"],
                      tolerances=tolerances)
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 1
    rep = load_report(out)

    sub = path_instance(n)
    op = bounds.build_operator(sub, cli._potential(potential))
    spectrum = eigendecompose(op, DEFAULT_TOL.with_overrides(**tolerances))
    times = default_times(spectrum.gap)
    traj = evolve(spectrum, spectrum.vector(1), times)
    run = {"decay": lambda: decay_rate_check(traj, bounds.bound_thm1(n - 1)),
           "mocheat": lambda: mocheat_inequality_check(traj),
           "ratio": lambda: ratio_evolution_check(spectrum, times[1:8])}
    with pytest.raises(CertificateFailure) as exc:
        run[check]()
    assert exc.value.witness is not None
    assert rep["heat"][check] == {
        "ok": False, "error": str(exc.value),
        "witness": json.loads(json.dumps(exc.value.witness))}
    assert rep["failures"] == [f"{label}: {exc.value}"]


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
    if samples == 0:
        assert (tmp_path / "eta.csv").read_text() == "s,t,eta\n"

    eigenvalues = pool[::-1]
    write_spectrum_csv(tmp_path / "spectrum.csv",
                       type("Spec", (), {"eigenvalues": eigenvalues}))
    want = ["index,eigenvalue"] + [f"{i},{format(float(w), '.17g')}"
                                   for i, w in enumerate(eigenvalues)]
    assert (tmp_path / "spectrum.csv").read_text() == "\n".join(want) + "\n"


def returned(monkeypatch, name):
    """The values cli.<name> returns, in call order."""
    real, values = getattr(cli, name), []

    def spy(*args, **kwargs):
        values.append(real(*args, **kwargs))
        return values[-1]
    monkeypatch.setattr(cli, name, spy)
    return values


def dumped(obj) -> bytes:
    """The bytes a whole-string writer gives for `obj`."""
    return (json.dumps(obj, default=cli._numpy_json, sort_keys=True,
                       indent=2) + "\n").encode()


@pytest.mark.parametrize("name", ["path12-boundary", "S3"])
def test_streamed_report_is_the_dumped_report(tmp_path, monkeypatch,
                                              transpositions, name):
    if name == "S3":
        table, gens = transpositions(3)
        instance, potential = {"group": {"kind": "table", "table": table,
                                         "name": "S3"},
                               "generators": gens}, "none"
    else:
        instance, potential = {"family": {"name": "path", "n": 12}}, \
            "boundary"
    spec = write_spec(tmp_path / "s.json", instance=instance,
                      potential=potential, analyses=ALL_ANALYSES)
    reports = returned(monkeypatch, "run_instance")
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
    assert (out / "report.json").read_bytes() == dumped(reports[0])


def test_streamed_sweep_is_the_dumped_aggregate(tmp_path, monkeypatch):
    aggregates = returned(monkeypatch, "run_sweep")
    out = tmp_path / "out"
    assert main(["sweep", "--family", "path", "--min", "2", "--max", "30",
                 "--out", str(out)]) == 0
    assert (out / "sweep.json").read_bytes() == dumped(aggregates[0])


def test_write_json_holds_a_fraction_of_the_file(tmp_path):
    # the path 2..80 aggregate: encoding the whole string first peaked at
    # 5.7 times the file; streamed, 0.19 times
    aggregate = cli.run_sweep("path", 2, 80, DEFAULT_TOL, tmp_path)
    path = tmp_path / "sweep.json"
    _, peak = traced_peak(lambda: cli.write_json(path, aggregate))
    assert peak <= 0.25 * path.stat().st_size


@pytest.mark.parametrize("previous", [b'{"ok": true}\n', None],
                         ids=["previous-file", "no-file"])
def test_failed_write_leaves_the_previous_file(tmp_path, previous):
    # the list before the bad value is larger than the file buffer, so
    # part of the report reaches the disk before the raise
    path = tmp_path / "report.json"
    if previous is not None:
        path.write_bytes(previous)
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        cli.write_json(path, {"a": list(range(5000)), "b": object()})
    if previous is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == previous


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
        (jacobi, "jacobi_eigh"), (operators, "laplacian"),
        (operators, "rayleigh_gap_check"), (operators, "_lambda1_indices"),
        (moduli, "_ratio_scans"), (moduli, "modulus_of_continuity"),
        (moduli, "_extremal"), (moduli, "log_concavity"),
        (moduli, "modulus_of_concavity"))}
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0
    count = {fn: len(c) for fn, c in calls.items()}
    (_, spectrum), = calls["eigendecompose"]
    # one dense solve and no Laplacian beside the Hamiltonian; one search
    # for the lambda1 eigenspace and one block for it, no per-vector eta;
    # the extremal scan stays one per basis vector
    basis = len(spectrum.gap_indices)
    want = {"build_operator": 1, "jacobi_eigh": 1, "laplacian": 0,
            "rayleigh_gap_check": 1, "_lambda1_indices": 1,
            "_ratio_scans": 1, "modulus_of_continuity": 0, "_extremal": basis}
    assert {fn: count[fn] for fn in want} == want
    (args, block), = calls["_ratio_scans"]
    assert args == (spectrum,) and len(block) == basis
    assert count["log_concavity"] <= 1 and count["modulus_of_concavity"] <= 1


def test_heat_only_run_scans_no_ratio_eta(tmp_path, monkeypatch):
    # Q5 with the boundary potential has a 5-fold lambda1: the ratio
    # certificate reads u1/u0 and its sums from the eigenspace ratios, and
    # only the moduli and bounds read eta of the block, once
    instance, potential = SHARED["Q5-subcube-boundary"]
    ratios = spy_everywhere(monkeypatch, moduli, "_eigenspace_ratios")
    scans = spy_everywhere(monkeypatch, moduli, "_ratio_scans")
    etas = spy_everywhere(monkeypatch, moduli, "_continuity_moduli")
    for analyses, blocks in ((["heat"], 0), (ALL_ANALYSES, 1)):
        spec = write_spec(tmp_path / "s.json", instance=instance,
                          potential=potential, analyses=analyses)
        assert main(["run", "--spec", str(spec), "--out",
                     str(tmp_path / "o")]) == 0
        assert "ratio" in load_report(tmp_path / "o")["heat"]
        assert len(ratios) >= 1 and len(scans) == len(etas) == blocks
        (f, block), = {id(r): r for _, r in ratios}.values()
        assert f.shape == (5, 32) and len(block) == 5
        del ratios[:], scans[:], etas[:]


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
    assert "distance_classes" not in spectrum.operator.source._kept


@pytest.mark.parametrize("name", ["Q8", "Q8-subcube-boundary", "S4"])
def test_max_residual_is_the_certificate_residual(tmp_path, transpositions,
                                                  name):
    # one residual array: the report's max_residual, the spectrum
    # certificate and the bounds certificate read the same numbers
    table, gens = transpositions(4)
    instance, potential = {
        "Q8": ({"family": {"name": "hypercube", "n": 8}}, "none"),
        "Q8-subcube-boundary": ({"family": {"name": "subcube",
                                            "mask": [None] * 7 + [0]}},
                                "boundary"),
        "S4": ({"group": {"kind": "table", "table": table},
                "generators": gens}, "none")}[name]
    spec = write_spec(tmp_path / "s.json", instance=instance,
                      potential=potential, analyses=["spectrum", "bounds"])
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0
    report = load_report(tmp_path / "o")
    resid = report["spectrum"]["max_residual"]
    assert resid == report["spectrum"]["certificate"]["recurrence_residual"]
    assert resid == report["bounds"]["certificate"]["recurrence_residual"]


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


# -- spec fuzz: valid specs drawn from cli's tables, and specs with one
# field given a wrong JSON type, a wrong key or an out-of-range value.
# Sizes stay small (n <= 6, group orders <= 6): an order under the cap can
# still allocate a huge table.

def _cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


@st.composite
def _instances(draw):
    families = cli._families()
    kind = draw(st.sampled_from([*families, "subcube", "group"]))
    if kind in families:
        n = draw(st.integers(families[kind][1], 6))
        return {"family": {"name": kind, "n": n}}
    if kind == "subcube":
        mask = draw(st.lists(st.sampled_from([0, 1, None]), min_size=1,
                             max_size=6))
        return {"family": {"name": "subcube", "mask": mask}}
    group, order = draw(st.sampled_from(
        [({"kind": "cyclic", "n": n}, n) for n in range(1, 7)]
        + [({"kind": "elementary_abelian_2", "n": n}, 1 << n)
           for n in (1, 2)]
        + [({"kind": "direct_product", "factors": [
            {"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 3}]}, 6)]
        + [({"kind": "table", "table": _cyclic_table(n), "name": f"C{n}"}, n)
           for n in range(1, 7)]))
    ids = st.integers(0, order - 1)
    inst = {"group": group, "generators": draw(st.one_of(
        st.just(list(range(1, order))), st.lists(ids, max_size=order)))}
    if draw(st.booleans()):
        inst["subgraph"] = draw(st.one_of(st.just("full"), st.lists(
            ids, min_size=1, max_size=order, unique=True)))
    return inst


_NUMBERS = st.floats(-1e3, 1e3, allow_nan=False)
_POTENTIALS = st.one_of(
    st.sampled_from(["none", "boundary"]),
    st.builds(lambda v: {"values": v},
              st.lists(st.floats(0, 1e3), min_size=1, max_size=8)),
    st.builds(lambda c, x: {"formula": "quadratic", "c": c, "center": x},
              _NUMBERS, _NUMBERS))
_TOLERANCES = st.fixed_dictionaries({}, optional={
    f.name: st.floats(max(f.metadata["lower"], -1.0), 1.0)
    for f in dataclasses.fields(ToleranceConfig)})


@st.composite
def _specs(draw):
    spec = {"schema": "gapbound/1", "instance": draw(_instances())}
    for key, values in (("potential", _POTENTIALS),
                        ("analyses", st.lists(st.sampled_from(cli.ANALYSES),
                                              max_size=4, unique=True)),
                        ("tolerances", _TOLERANCES)):
        if draw(st.booleans()):
            spec[key] = draw(values)
    return spec


def _paths(node, path=()):
    """The path of every value in a JSON tree, the root's included."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


_JSON = st.one_of(st.none(), st.booleans(), st.integers(-2, 6),
                  st.floats(-10, 10), st.sampled_from([math.nan, math.inf]),
                  st.text(max_size=3), st.just([1.5]), st.just({"n": 1}))


@st.composite
def _mutated_specs(draw):
    """A valid spec, or one with a value replaced by a JSON value of any
    type or by an out-of-range number (-1, or 10**30 for an integer), or
    with a key dropped from an object or an unknown key added to it."""
    spec = draw(_specs())
    how = draw(st.sampled_from(["valid", "type", "range", "key"]))
    if how == "valid":
        return spec
    paths = [p for p in _paths(spec) if how != "key"
             or isinstance(_at(spec, p), dict)]
    path = draw(st.sampled_from(paths))
    value = _at(spec, path)
    if how == "key":
        if value and draw(st.booleans()):
            del value[draw(st.sampled_from(sorted(value)))]
        else:
            value["bogus"] = 1
        return spec
    if how == "type":
        new = draw(_JSON)
    else:
        big = isinstance(value, int) and draw(st.booleans())
        new = 10 ** 30 if big else -1
    if not path:
        return new
    _at(spec, path[:-1])[path[-1]] = new
    return spec


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=_mutated_specs())
def test_any_spec_ends_in_an_exit_code(tmp_path, spec):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", "--spec", str(path), "--out", str(tmp_path / "o")])
    assert code in (0, 1, 2)
