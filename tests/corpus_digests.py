"""Byte digests of every corpus run and three sweeps, for review.

Runs each spec in tests/corpus under ``gapbound run`` and ``gapbound
verify``, and the sweeps path 2..80, cycle 3..30 and hypercube 1..8, each
in a subprocess with one BLAS thread and RuntimeWarnings as errors. Records
each run's exit code, stderr and the sha256 of every output file.

    PYTHONPATH=src python tests/corpus_digests.py           # check
    PYTHONPATH=src python tests/corpus_digests.py --write   # rewrite

Checking prints each run whose record moved and exits 1 if any did. The
quadratic-potential specs' bytes depend on the BLAS build, so this is a
review tool, not a test: a change that moves bytes on purpose rewrites
tests/corpus/digests.json, and the diff of that file lists what moved.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from test_corpus import CORPUS, SPECS

DIGESTS = CORPUS / "digests.json"
SRC = Path(__file__).resolve().parents[1] / "src"
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


def _digest(args) -> dict:
    """Exit code, stderr and output sha256s of one gapbound run."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "gapbound.cli", *args, "--out", out],
            env=env, capture_output=True, text=True)
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(Path(out).iterdir())}
    return {"exit": proc.returncode, "stderr": proc.stderr, "files": files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {DIGESTS.name} instead of checking")
    args = parser.parse_args(argv)
    got = {name: _digest(run) for name, run in _runs().items()}
    if args.write:
        DIGESTS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        return 0
    want = json.loads(DIGESTS.read_text())
    moved = sorted(name for name in got.keys() | want.keys()
                   if got.get(name) != want.get(name))
    for name in moved:
        print(f"{name}:\n  recorded {want.get(name)}\n  now      {got.get(name)}")
    print(f"{len(got) - len(moved)} of {len(got)} runs unchanged")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
