"""Measurement core of the gapbound pipeline benchmark; run.py is the entry.

One run is one process and a closed loop: each pass calls
``gapbound.cli.main`` in-process on every operation of the workload, one
after another, in an order drawn from the seed. After each pass, outside the
timed region, every report is checked against the exact gap from
``workloads`` and against the first pass's bytes.
"""

import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

import spans
import workloads

# (name, unit) of every end-to-end metric, in report order
END_TO_END = (("wall_s", "s"), ("ok_per_s", "1/s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))

# -- checks ---------------------------------------------------------------------

def gap_report_problems(bounds, gap, tol):
    """Oracle findings on one GapReport dict (the report's "bounds" section
    or one report of a sweep)."""
    problems = []
    got = bounds["exact"]["gap"]
    if not abs(got - gap) <= tol:
        problems.append(f"gap {got!r} differs from oracle {gap!r}")
    for rec in bounds["theorems"]:
        if not rec["applicable"] or rec["bound"] is None:
            continue
        values = [rec["bound"]] + list(rec["detail"].get("bounds_per_eigenvector", ()))
        worst = max(values)
        if not worst <= gap + tol:
            problems.append(f"{rec['theorem']} bound {worst!r} exceeds oracle "
                            f"gap {gap!r}")
    return problems


def run_report_problems(report, gap, tol):
    if "bounds" not in report:
        return ["report has no bounds section"]
    problems = gap_report_problems(report["bounds"], gap, tol)
    ev = report.get("spectrum", {}).get("eigenvalues")
    if ev is not None and not abs((ev[1] - ev[0]) - gap) <= tol:
        problems.append(f"spectrum gap {ev[1] - ev[0]!r} differs from oracle "
                        f"{gap!r}")
    return problems


def first_line(text):
    return next((ln.strip() for ln in text.splitlines() if ln.strip()), "")


def verdict(code, cause, incorrect=False):
    return {"exit": code, "cause": cause, "incorrect": incorrect}


def check_run(op, code, err, out_dir, vf, reference):
    """Verdict on one `gapbound run`: ({name: verdict} of its failed
    operations, report bytes or None)."""
    path = out_dir / "report.json"
    data = path.read_bytes() if code in (0, 1) and path.is_file() else None
    if data is None:
        cause = first_line(err) or "no report.json written"
        return {op.name: verdict(code, cause, incorrect=code in (0, 1))}, None
    report = json.loads(data)
    problems = run_report_problems(report, op.gap, vf * max(1.0, op.gap))
    if reference is not None and data != reference:
        problems.append("report.json differs from the first pass")
    if problems:
        return {op.name: verdict(code, "oracle: " + problems[0], True)}, data
    if code != 0:
        cause = (report.get("failures") or [first_line(err)])[0]
        return {op.name: verdict(code, cause)}, data
    return {}, data


def check_sweep(op, code, err, out_dir, vf, reference):
    """Verdict on one `gapbound sweep`, where each size is one operation."""
    names = {n: f"{op.family}({n})" for n in op.gaps}
    path = out_dir / "sweep.json"
    if code not in (0, 1) or not path.is_file():
        cause = first_line(err) or "no sweep.json written"
        return {name: verdict(code, cause, incorrect=code in (0, 1))
                for name in names.values()}, None
    data = path.read_bytes()
    agg = json.loads(data)
    drift = set()
    if reference is not None and data != reference:
        ref = json.loads(reference)["reports"]
        drift = {n for n in op.gaps
                 if agg["reports"].get(str(n)) != ref.get(str(n))} or set(op.gaps)
    failed = {}
    for n, name in names.items():
        rep = agg["reports"].get(str(n))
        if rep is None:
            failed[name] = verdict(code, "size missing from sweep.json", True)
            continue
        problems = gap_report_problems(rep, op.gaps[n], vf * max(1.0, op.gaps[n]))
        if n in drift:
            problems.append("sweep.json differs from the first pass")
        bad = [f for f in agg["failures"] if f.split(" ")[0] == name]
        if problems:
            failed[name] = verdict(code, "oracle: " + problems[0], True)
        elif bad:
            failed[name] = verdict(code, f"bound fails: {bad[0]}")
    return failed, data


# -- running ----------------------------------------------------------------------

def call_cli(cli, argv):
    """gapbound.cli.main in-process; returns (exit code, captured stderr)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
            code = cli.main(argv)
    except Exception as exc:  # an uncaught error is this operation's failure
        return "exception", f"{type(exc).__name__}: {exc}"
    return code, err.getvalue()


class Runner:
    """Writes a workload's specs and runs passes over it."""

    def __init__(self, ops, work_dir: Path, seed: int):
        import gapbound.cli
        import gapbound.config
        self.cli = gapbound.cli
        self.vf = gapbound.config.DEFAULT_TOL.verify_factor
        self.ops = ops
        self.work = work_dir
        self.rng = random.Random(seed)
        self.reference = {}
        self.spec_paths = {}
        self.work.mkdir(parents=True, exist_ok=True)
        for i, op in enumerate(ops):
            if isinstance(op, workloads.RunOp):
                # key order is drawn from the seed; the CLI must not care
                keys = self.rng.sample(sorted(op.spec), len(op.spec))
                path = self.work / f"spec{i}.json"
                path.write_text(json.dumps({k: op.spec[k] for k in keys}))
                self.spec_paths[i] = path

    def argv(self, i, out_dir):
        op = self.ops[i]
        if isinstance(op, workloads.RunOp):
            return ["run", "--spec", str(self.spec_paths[i]), "--out", str(out_dir)]
        return ["sweep", "--family", op.family, "--min", str(op.lo),
                "--max", str(op.hi), "--out", str(out_dir)]

    def run_pass(self, k, tracer=None):
        """One timed pass; returns (wall seconds, {name: verdict} of the
        operations that failed)."""
        order = self.rng.sample(range(len(self.ops)), len(self.ops))
        pass_dir = self.work / f"pass{k}"
        calls = []
        gc.collect()
        t0 = time.perf_counter()
        for i in order:
            out_dir = pass_dir / f"op{i}"
            if tracer is not None:
                tracer.begin_op(k * len(self.ops) + i)
            code, err = call_cli(self.cli, self.argv(i, out_dir))
            calls.append((i, code, err, out_dir))
        wall = time.perf_counter() - t0
        failed = {}
        for i, code, err, out_dir in calls:
            op = self.ops[i]
            check = check_run if isinstance(op, workloads.RunOp) else check_sweep
            verdicts, data = check(op, code, err, out_dir, self.vf,
                                   self.reference.get(i))
            if data is not None:
                self.reference.setdefault(i, data)
            failed.update(verdicts)
        shutil.rmtree(pass_dir, ignore_errors=True)
        return wall, failed


class Pass(NamedTuple):
    wall: float
    failed: dict                  # operation name -> verdict
    layers: Optional[dict] = None  # per-layer metrics of a traced pass
    spans: Optional[list] = None

    @property
    def traced(self):
        return self.layers is not None


def measure(ops, seconds, trace, seed, work_dir, warmup=(), after_pass=None):
    """Run passes until the next would end after `seconds` (at least two),
    calling `after_pass` after each one.

    With `trace`, passes alternate between untraced (the overhead baseline,
    first) and traced with every layer wrapped, so that both kinds see the
    same drift in machine speed.
    """
    tracer = None
    if trace:
        spans.check_coverage()
        tracer = spans.Tracer()
    if warmup:
        Runner(list(warmup), work_dir / "warmup", seed).run_pass(0)
    runner = Runner(ops, work_dir / "run", seed)
    passes = []
    start = time.perf_counter()
    while len(passes) < 2 or (time.perf_counter() - start) + passes[-1].wall <= seconds:
        if trace and len(passes) % 2 == 1:
            with tracer.installed():
                wall, failed = runner.run_pass(len(passes), tracer)
            batch = tracer.take()
            passes.append(Pass(wall, failed, spans.layer_metrics(batch), batch))
        else:
            wall, failed = runner.run_pass(len(passes))
            passes.append(Pass(wall, failed))
        if after_pass is not None:
            after_pass()
    return passes


def summarize(ops, passes, trace, setup_s):
    per_pass = sum(op.count for op in ops)
    attempted = per_pass * len(passes)
    failures = {}
    for p in passes:
        for name, info in p.failed.items():
            entry = failures.setdefault(name, dict(info, passes=0))
            entry["passes"] += 1
            entry["incorrect"] = entry["incorrect"] or info["incorrect"]
    failed = sum(f["passes"] for f in failures.values())
    correct = not any(f["incorrect"] for f in failures.values())

    plain = [p for p in passes if not p.traced]
    walls = [p.wall for p in plain]
    ok = sum(per_pass - len(p.failed) for p in plain)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        traced = [p for p in passes if p.traced]
        metrics = {}
        for name, _, _ in spans.PER_LAYER:
            if not name.startswith("trace."):
                metrics[name] = statistics.median(p.layers[name] for p in traced)
        metrics["trace.wall_s"] = statistics.median(p.wall for p in traced)
        metrics["trace.overhead"] = metrics["trace.wall_s"] / statistics.median(walls)
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
    else:
        metrics = {"wall_s": statistics.median(walls),
                   "ok_per_s": ok / sum(walls),
                   "peak_rss_mb": rss_mb,
                   "setup_s": setup_s}
        units = dict(END_TO_END)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }, {
        "fail_share": failed / attempted,
        "failures": [dict(op=name, **info) for name, info in sorted(failures.items())],
        "pass_walls": [p.wall for p in passes],
        "pass_traced": [p.traced for p in passes],
        "peak_rss_mb": rss_mb,
    }


# -- set-up -------------------------------------------------------------------------

def import_seconds(root: Path):
    """Time of `import gapbound.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import gapbound.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def git_commit(root: Path):
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return None


def environment(root: Path):
    import gapbound
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "gapbound_threads": os.environ.get("GAPBOUND_THREADS"),
        "nproc": os.cpu_count(),
        "kernel_backend": gapbound.KERNEL_BACKEND,
        "git_commit": git_commit(root),
    }


def run(workload, seed, seconds, trace, root: Path):
    """Measure one workload and write its record (and, traced, its spans)
    under .perfbench/results/; returns (result line dict, record, path)."""
    ops = workloads.WORKLOADS[workload]()
    work_dir = root / ".perfbench" / f"work-{os.getpid()}"
    # Import times drift with the machine's speed over tens of seconds, so
    # they are sampled across the whole run: two before the first pass and
    # one after each, after a discarded import that warms the bytecode cache.
    imports = []
    try:
        if not trace:
            import_seconds(root)
            imports += [import_seconds(root), import_seconds(root)]
        passes = measure(ops, seconds, trace, seed, work_dir,
                         warmup=workloads.warmup_ops(),
                         after_pass=None if trace else
                         lambda: imports.append(import_seconds(root)))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setup_s = statistics.median(imports) if imports else None
    result, detail = summarize(ops, passes, trace, setup_s)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "env": environment(root), **detail,
              **result}

    out = root / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = (f"{workload}-seed{seed}-trace{int(trace)}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    path = out / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        with open(out / f"{stem}-spans.jsonl", "w") as fh:
            for p in passes:
                for span in p.spans or ():
                    fh.write(json.dumps(span._asdict()) + "\n")
    return result, record, path
