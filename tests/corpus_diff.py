"""Field-level diff of gapbound's outputs between two source trees.

    PYTHONPATH=src python tests/corpus_diff.py OLD [NEW]

OLD and NEW are git revisions, each taken with ``git archive <rev> src``;
NEW defaults to the working tree. Both sides run the working tree's
corpus specs (tests/corpus) under ``gapbound run`` and ``gapbound
verify``, and the sweeps path 2..80, cycle 3..30 and hypercube 1..8, each
in a subprocess with one BLAS thread and RuntimeWarnings as errors.

For each run that moved it prints the change of exit code and stderr,
and each output file that was added, removed or is identical. For a JSON
file that differs it prints each path that moved (list indices collapsed
to []), with the largest absolute and relative change of a number, and
the keys added or removed; for a CSV file, each column that moved with its
largest change, and any change in the row count. The last line reads "N
of M runs identical", and the exit code is 1 if anything moved. Pytest
does not collect this script; test_corpus_diff.py tests the comparison.
"""

import argparse
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from test_corpus import CORPUS, SPECS

ROOT = Path(__file__).resolve().parents[1]
SWEEPS = (("path", 2, 80), ("cycle", 3, 30), ("hypercube", 1, 8))


def _runs():
    """name -> gapbound arguments, without --out."""
    runs = {}
    for name in SPECS:
        for command in ("run", "verify"):
            runs[f"{command}/{name}"] = [
                command, "--spec", str(CORPUS / f"{name}.json")]
    for family, lo, hi in SWEEPS:
        runs[f"sweep/{family}-{lo}-{hi}"] = [
            "sweep", "--family", family, "--min", str(lo), "--max", str(hi)]
    return runs


def _src(rev, into: Path) -> Path:
    """The `src` tree of git revision `rev`, unpacked under `into`; the
    working tree's when `rev` is None."""
    if rev is None:
        return ROOT / "src"
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into / "src"


def _outcome(src: Path, args, out: Path) -> dict:
    """Exit code, stderr and output bytes of one gapbound run on `src`;
    `out` is removed again. A traceback names `src` as "src", so the two
    sides' tracebacks differ only where their code does."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    out.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "gapbound.cli",
         *args, "--out", str(out)],
        cwd=out, env=env, capture_output=True, text=True)
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    shutil.rmtree(out)
    return {"exit": proc.returncode,
            "stderr": proc.stderr.replace(str(src), "src"), "files": files}


class _Moves:
    """What moved at each collapsed path or column: how many values, the
    largest absolute and relative change of a finite number, and the
    first change of any other value."""

    def __init__(self):
        self.paths = {}

    def add(self, path, a, b):
        n, big, rel, other = self.paths.get(path, (0, 0.0, 0.0, None))
        if _finite(a) and _finite(b):
            change = abs(b - a)
            big = max(big, change)
            rel = max(rel, change / max(abs(a), abs(b)) if change else 0.0)
        elif other is None:
            other = (a, b)
        self.paths[path] = (n + 1, big, rel, other)

    def lines(self):
        out = []
        for path, (n, big, rel, other) in sorted(self.paths.items()):
            line = f"{path}: {n} moved"
            if other is None or big:
                line += f", largest change {big:.3g} (relative {rel:.3g})"
            if other is not None:
                line += f", e.g. {other[0]!r} -> {other[1]!r}"
            out.append(line)
        return out


def _finite(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


def _same(a, b) -> bool:
    """Equal values of one type; NaN equals NaN."""
    if type(a) is not type(b):
        return False
    return a == b or (type(a) is float and math.isnan(a) and math.isnan(b))


def diff_json(old, new) -> list:
    """One line per path of two decoded JSON documents that moved, then
    one per key added or removed and per list whose length changed."""
    moves, notes = _Moves(), set()

    def walk(a, b, path):
        if isinstance(a, dict) and isinstance(b, dict):
            for k in a.keys() - b.keys():
                notes.add(f"{path}{k}: key removed")
            for k in b.keys() - a.keys():
                notes.add(f"{path}{k}: key added")
            for k in a.keys() & b.keys():
                walk(a[k], b[k], f"{path}{k}.")
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                notes.add(f"{path.rstrip('.')}[]: length changed")
            for x, y in zip(a, b):
                walk(x, y, f"{path.rstrip('.')}[].")
        elif not _same(a, b):
            moves.add(path.rstrip(".") or "(document)", a, b)

    walk(old, new, "")
    return moves.lines() + sorted(notes)


def diff_csv(old: str, new: str) -> list:
    """One line per column of two CSV texts (header first) that moved,
    then one per column added or removed and one for a changed row
    count."""
    a = list(csv.reader(io.StringIO(old)))
    b = list(csv.reader(io.StringIO(new)))
    head_a, head_b = (a or [[]])[0], (b or [[]])[0]
    moves, notes = _Moves(), []
    for col in head_a:
        if col not in head_b:
            notes.append(f"{col}: column removed")
            continue
        i, j = head_a.index(col), head_b.index(col)
        for ra, rb in zip(a[1:], b[1:]):
            x = ra[i] if i < len(ra) else ""
            y = rb[j] if j < len(rb) else ""
            if x != y:
                moves.add(col, *_cell(x, y))
    notes += [f"{col}: column added" for col in head_b if col not in head_a]
    if len(a) != len(b):
        notes.append(f"rows: {max(len(a) - 1, 0)} -> {max(len(b) - 1, 0)}")
    return moves.lines() + notes


def _cell(x: str, y: str):
    """Two CSV cells as numbers if both read as one, else as text."""
    try:
        return float(x), float(y)
    except ValueError:
        return x, y


def _diff_file(name: str, a: bytes, b: bytes) -> list:
    try:
        if name.endswith(".json"):
            lines = diff_json(json.loads(a), json.loads(b))
        elif name.endswith(".csv"):
            lines = diff_csv(a.decode(), b.decode())
        else:
            lines = []
    except ValueError:          # not JSON or not text after all
        lines = []
    return lines or ["bytes differ, no value moved"]


def diff_run(old: dict, new: dict) -> list:
    """The lines that describe how one run moved; none if it did not."""
    lines, same = [], []
    if old["exit"] != new["exit"]:
        lines.append(f"exit {old['exit']} -> {new['exit']}")
    if old["stderr"] != new["stderr"]:
        lines.append("stderr:")
        lines += [f"  - {s}" for s in old["stderr"].splitlines()]
        lines += [f"  + {s}" for s in new["stderr"].splitlines()]
    for name in sorted(old["files"].keys() | new["files"].keys()):
        a, b = old["files"].get(name), new["files"].get(name)
        if a is None:
            lines.append(f"{name}: added")
        elif b is None:
            lines.append(f"{name}: removed")
        elif a == b:
            same.append(name)
        else:
            lines.append(f"{name}:")
            lines += [f"  {s}" for s in _diff_file(name, a, b)]
    if lines and same:
        lines.append("identical: " + ", ".join(same))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", help="git revision of the old side")
    parser.add_argument("new", nargs="?", default=None,
                        help="git revision of the new side (default: the "
                        "working tree)")
    args = parser.parse_args(argv)
    runs = _runs()
    moved = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        old_src = _src(args.old, tmp / "old")
        new_src = _src(args.new, tmp / "new")
        for name, run in runs.items():
            lines = diff_run(_outcome(old_src, run, tmp / "out-old"),
                             _outcome(new_src, run, tmp / "out-new"))
            if lines:
                moved += 1
                print(f"{name}:")
                print("\n".join(f"  {s}" for s in lines), flush=True)
    print(f"{len(runs) - moved} of {len(runs)} runs identical")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
