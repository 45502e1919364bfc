#!/usr/bin/env python3
"""Compare benchmark records of two builds, metric by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are record files written by run.py (under .perfbench/results/)
or directories of them. Records are grouped by workload and trace mode, and
each metric's median on NEW is set against its median on BASE, with the
bound and direction from BENCHMARK.json. Records made with different
kernel backends or thread settings are refused: their times do not measure
the same program.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUST_MATCH = ("kernel_backend", "blas_threads", "gapbound_threads")


def load(path: Path):
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def settings(records):
    return {tuple((k, r["env"].get(k)) for k in MUST_MATCH) for r in records}


def medians(records):
    groups = {}
    for r in records:
        key = (r["workload"], r["trace"])
        for name, m in r["metrics"].items():
            groups.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return {key: {n: statistics.median(v) for n, v in ms.items()}
            for key, ms in groups.items()}


def compare(base, new, spec):
    """Lines of the comparison; raises ValueError when settings differ."""
    mixed = settings(base) | settings(new)
    if len(mixed) != 1:
        raise ValueError("records differ in kernel backend or thread "
                         f"settings: {sorted(mixed)}")
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    mb, mn = medians(base), medians(new)
    lines = []
    for key in sorted(set(mb) & set(mn)):
        lines.append(f"{key[0]} trace={key[1]} "
                     f"(base n={sum((r['workload'], r['trace']) == key for r in base)}, "
                     f"new n={sum((r['workload'], r['trace']) == key for r in new)})")
        for name in mb[key]:
            if name not in mn[key]:
                continue
            b, n = mb[key][name], mn[key][name]
            info = declared.get(name, {})
            change = (n - b) / b if b else float("nan")
            worse = change if info.get("better") == "lower" else -change
            flag = ""
            if "bound" in info and worse > info["bound"]:
                flag = "  WORSE THAN BOUND"
            lines.append(f"  {name:34s} {b:12.6g} -> {n:12.6g} "
                         f"{info.get('unit', ''):6s} {change:+8.2%}{flag}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        lines = compare(load(args.base), load(args.new), spec)
    except ValueError as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
