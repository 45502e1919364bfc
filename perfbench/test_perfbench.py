"""Self-tests of the benchmark at toy sizes.

    python3 -m pytest -q perfbench
"""

import json
import os
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import gapbound.cli  # noqa: E402
import gapbound.moduli  # noqa: E402
import gapbound.operators  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
QUADRATIC = {"formula": "quadratic", "c": 0.5}


def nesting_problems(batch):
    """Spans whose parent is unknown, on another operation, or does not
    enclose them, and same-thread siblings that overlap."""
    by_id = {s.sid: s for s in batch}
    problems = []
    siblings = defaultdict(list)
    for s in batch:
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            problems.append(f"{s.name}#{s.sid}: parent {s.parent} not recorded")
            continue
        if p.op != s.op:
            problems.append(f"{s.name}#{s.sid}: parent on another operation")
        if s.start < p.start or s.end > p.end:
            problems.append(f"{s.name}#{s.sid} is not inside {p.name}#{p.sid}")
        siblings[(s.parent, s.thread)].append(s)
    for group in siblings.values():
        group.sort(key=lambda s: s.start)
        for a, b in zip(group, group[1:]):
            if b.start < a.end:
                problems.append(f"{a.name}#{a.sid} overlaps {b.name}#{b.sid}")
    return problems


def toy_ops():
    return [workloads.path_op(6, "boundary"), workloads.cube_op(3),
            workloads.path_sweep_op(2, 5)]


def traced_passes(tmp_path, ops, threads):
    old = os.environ.get("GAPBOUND_THREADS")
    os.environ["GAPBOUND_THREADS"] = str(threads)
    try:
        return bench.measure(ops, 0, True, 7, tmp_path)
    finally:
        if old is None:
            del os.environ["GAPBOUND_THREADS"]
        else:
            os.environ["GAPBOUND_THREADS"] = old


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    ops = toy_ops()
    return ops, traced_passes(tmp_path_factory.mktemp("toy"), ops, threads=1)


def test_names_match_benchmark_json(toy):
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] \
        == list(spans.PER_LAYER)

    ops, passes = toy
    traced, _ = bench.summarize(ops, passes, True, None)
    assert list(traced["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    plain, _ = bench.summarize(ops, [p for p in passes if not p.traced] * 2, False, 0.1)
    assert list(plain["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for result in (traced, plain):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == len(passes) * (2 + 4)


def test_spans_nest(toy, tmp_path):
    _, passes = toy
    two_threads = traced_passes(tmp_path, toy_ops(), threads=2)
    for p in passes + two_threads:
        if not p.traced:
            continue
        assert p.spans
        assert nesting_problems(p.spans) == []
        roots = [s for s in p.spans if s.parent is None]
        assert {s.name for s in roots} == {"cli.main"}
        assert len(roots) == len(toy_ops())
    sweep_metrics = [p.layers for p in two_threads if p.traced]
    assert all(m["cli.sweep_busy_ratio"] > 0 for m in sweep_metrics)


def test_self_times_add_up_to_wall(toy):
    _, passes = toy
    untraced = [p.wall for p in passes if not p.traced]
    for p in passes:
        if not p.traced:
            continue
        overhead = abs(p.wall - untraced[0])
        inside = sum(p.layers[name] for name in spans.SELF_TIME_METRICS)
        assert inside <= p.wall
        assert p.wall - inside <= overhead + 0.02 * p.wall
        assert p.layers["cli.run_self_s"] > 0 and p.layers["jacobi.solve_s"] > 0


def test_every_binding_is_wrapped_and_restored():
    original = gapbound.operators.eigendecompose
    tracer = spans.Tracer()
    with tracer.installed():
        for mod in (gapbound.cli, gapbound.operators, sys.modules["gapbound.bounds"],
                    sys.modules["gapbound.heat"], sys.modules["gapbound"]):
            assert mod.eigendecompose is not original
            assert mod.eigendecompose.__wrapped__ is original
    assert gapbound.cli.eigendecompose is original
    assert gapbound.operators.eigendecompose is original


@pytest.mark.parametrize("attr", ["HIDDEN", "eta_batch"])
def test_coverage_guard_fails_loudly(monkeypatch, attr):
    if attr == "HIDDEN":
        # a reference the patcher cannot rebind
        monkeypatch.setattr(gapbound.cli, attr,
                            {"eta": gapbound.moduli.modulus_of_continuity},
                            raising=False)
    else:
        # a new public function the layer table does not know
        def eta_batch(states, sub):
            return states
        eta_batch.__module__ = gapbound.moduli.__name__
        monkeypatch.setattr(gapbound.moduli, attr, eta_batch, raising=False)
    with pytest.raises(spans.CoverageError):
        spans.Tracer().install()
    assert gapbound.cli.eigendecompose is gapbound.operators.eigendecompose
    assert not hasattr(gapbound.cli.eigendecompose, "__wrapped__")


def test_coverage_guard_notices_a_removed_function(monkeypatch):
    monkeypatch.delattr(gapbound.moduli, "extremal_pairs")
    with pytest.raises(spans.CoverageError, match="extremal_pairs"):
        spans.check_coverage()


def test_oracle_and_determinism_flag_bad_reports(tmp_path):
    op = workloads.path_op(6, "boundary")
    runner = bench.Runner([op], tmp_path, 1)
    out = tmp_path / "out"
    code, err = bench.call_cli(runner.cli, runner.argv(0, out))
    data = (out / "report.json").read_bytes()
    vf = runner.vf

    failed, _ = bench.check_run(op, code, err, out, vf, reference=data)
    assert code == 0 and failed == {}

    failed, _ = bench.check_run(op, code, err, out, vf, reference=data + b" ")
    assert failed[op.name]["incorrect"]
    assert "first pass" in failed[op.name]["cause"]

    wrong_gap = workloads.RunOp(op.name, op.spec, op.gap * (1 + 1e-6))
    failed, _ = bench.check_run(wrong_gap, code, err, out, vf, reference=None)
    assert "oracle" in failed[op.name]["cause"]

    report = json.loads(data)
    applied = next(r for r in report["bounds"]["theorems"]
                   if r["applicable"] and r["bound"] is not None)
    applied["bound"] = op.gap * 2
    assert bench.run_report_problems(report, op.gap, vf) != []


def test_sweep_sizes_are_checked_one_by_one(tmp_path):
    op = workloads.path_sweep_op(2, 5)
    runner = bench.Runner([op], tmp_path, 1)
    out = tmp_path / "out"
    code, err = bench.call_cli(runner.cli, runner.argv(0, out))
    data = (out / "sweep.json").read_bytes()
    failed, _ = bench.check_sweep(op, code, err, out, runner.vf, reference=data)
    assert code == 0 and failed == {}

    drifted = json.loads(data)
    drifted["reports"]["3"]["exact"]["gap"] += 1e-15
    failed, _ = bench.check_sweep(op, code, err, out, runner.vf,
                                  reference=json.dumps(drifted).encode())
    assert list(failed) == ["path(3)"] and failed["path(3)"]["incorrect"]

    wrong = workloads.SweepOp("path", 2, 5, {**op.gaps, 4: op.gaps[4] + 1e-3})
    failed, _ = bench.check_sweep(wrong, code, err, out, runner.vf, reference=None)
    assert list(failed) == ["path(4)"] and "oracle" in failed["path(4)"]["cause"]


def test_failed_operations_keep_their_cause(tmp_path):
    ops = [workloads.path_op(24, dict(QUADRATIC, center=11.5)),
           workloads.path_op(30, dict(QUADRATIC, center=15))]
    passes = bench.measure(ops, 0, False, 3, tmp_path)
    result, detail = bench.summarize(ops, passes, False, 0.1)
    assert result["correct"]
    assert result["failed"] == sum(f["passes"] for f in detail["failures"])
    for f in detail["failures"]:
        assert f["exit"] != 0 and f["cause"]
        assert f["op"] in {op.name for op in ops}


def test_oracle_reproduces_known_gaps():
    # path(n) Laplacian gap 2(1 - cos(pi/n)); Q_n Laplacian gap 2
    import math
    assert workloads.path_sweep_op(2, 9).gaps[9] == pytest.approx(
        2 * (1 - math.cos(math.pi / 9)), abs=1e-12)
    assert workloads.cube_op(4).gap == pytest.approx(2.0, abs=1e-12)
    assert workloads.subcube_op([None, None, 0]).gap == pytest.approx(2.0, abs=1e-12)


def test_compare_refuses_mixed_settings():
    env = {"kernel_backend": "python", "blas_threads": "1", "gapbound_threads": "2"}
    rec = {"workload": "run-cube", "trace": 0, "env": env,
           "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    lines = compare.compare([rec], [rec], BENCHMARK)
    assert any("wall_s" in ln for ln in lines)
    other = dict(rec, env=dict(env, kernel_backend="cython"))
    with pytest.raises(ValueError):
        compare.compare([rec], [other], BENCHMARK)
