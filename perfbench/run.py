#!/usr/bin/env python3
"""gapbound pipeline benchmark: spec-to-certified-report time per workload.

Run from the repository root:

    python3 perfbench/run.py --workload run-cube --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40

Each run drives ``gapbound.cli.main`` in-process over the workload's
operations (see workloads.py) in a closed loop, checks every report against
an independent LAPACK oracle and for byte-identical output across passes,
and prints one JSON line last: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run (spans.py) with ``--trace 1``. The
full record, with the environment and the cause of each failed operation,
is written under .perfbench/results/ (a traced run adds its spans there as
JSON lines); compare.py compares such records.
The exit status is nonzero when a report disagrees with the oracle or
changes between passes. ``--workload all`` runs every workload in its own
process and prints one table.

The BLAS pool is pinned to one thread and GAPBOUND_THREADS to at most two
(never above the CPU count) before numpy loads, so runs stay comparable.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("run-cube", "run-path", "sweep-path")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    os.environ["GAPBOUND_THREADS"] = str(min(2, nproc))


def run_one(args):
    sys.path.insert(0, str(ROOT / "src"))
    import bench                  # loads numpy, so only after pin_threads
    result, record, path = bench.run(args.workload, args.seed, args.seconds,
                                     bool(args.trace), ROOT)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(record['pass_walls'])} attempted={result['attempted']} "
          f"failed={result['failed']} fail_share={record['fail_share']:.4g}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for f in record["failures"]:
        print(f"  failed {f['op']}: exit {f['exit']} in {f['passes']} passes: "
              f"{f['cause']}")
    print(f"  env {json.dumps(record['env'], sort_keys=True)}")
    print(f"  record {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Every workload in its own process, then one table of all metrics."""
    rows = {}
    status = 0
    for w in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", w, "--seed",
               str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if lines:
            rows[w] = json.loads(lines[-1])
    names = list(dict.fromkeys(n for r in rows.values() for n in r["metrics"]))
    print(f"\n{'metric':34s} {'unit':6s}" + "".join(f" {w:>12s}" for w in rows))
    for name in names:
        unit = next(r["metrics"][name]["unit"] for r in rows.values()
                    if name in r["metrics"])
        cells = "".join(f" {rows[w]['metrics'][name]['value']:12.6g}"
                        if name in rows[w]["metrics"] else f" {'-':>12s}"
                        for w in rows)
        print(f"{name:34s} {unit:6s}{cells}")
    print(f"{'fail_share':34s} {'share':6s}" + "".join(
        f" {r['failed'] / r['attempted']:12.6g}" for r in rows.values()))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "gapbound" / "__init__.py").is_file():
        print(f"perfbench: no gapbound sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    pin_threads()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
