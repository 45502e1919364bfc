"""The committed spec corpus against its recorded outcomes.

Each spec in tests/corpus runs in-process under ``gapbound run``; its exit
code, failure labels, strong convexity, gap and theorem records must match
tests/corpus/expected.json. ``gapbound verify``'s exit code is pinned only
where no applicable bound lies within the verify tolerance of the gap,
since the sign of a tight bound's slack is rounding. The quadratic-potential
specs pin no gap or bound: their ground states reach the noise floor, so
those numbers depend on the BLAS build.

After a deliberate change of outcome, rewrite the record with
``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_corpus.py`` and
review its diff; at another BLAS thread count, Q8's gap and bounds move in
their last bits.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from gapbound.cli import main

CORPUS = Path(__file__).parent / "corpus"
EXPECTED = CORPUS / "expected.json"
# every spec, without the record kept beside them
SPECS = sorted(p.stem for p in CORPUS.glob("*.json") if p != EXPECTED)


def _quiet_main(argv) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _noisy(spec: dict) -> bool:
    pot = spec.get("potential")
    return isinstance(pot, dict) and pot.get("formula") == "quadratic"


def outcome(name: str, out: Path) -> dict:
    """What the corpus pins of one spec, with `out` as scratch."""
    path = CORPUS / f"{name}.json"
    got = {"run": _quiet_main(["run", "--spec", str(path),
                               "--out", str(out / "run")]),
           "verify": None, "failures": None, "strongly_convex": None,
           "gap": None, "theorems": None}
    report_path = out / "run" / "report.json"
    tight = False
    if report_path.exists():
        tight = _pin(got, json.loads(report_path.read_text()),
                     not _noisy(json.loads(path.read_text())))
    if not tight:
        got["verify"] = _quiet_main(["verify", "--spec", str(path),
                                     "--out", str(out / "verify")])
    return got


def _pin(got: dict, report: dict, numeric: bool) -> bool:
    """Fill `got` from a run's report; True when an applicable bound lies
    within the verify tolerance of the gap."""
    got["failures"] = [f.split(":")[0] for f in report["failures"]]
    got["strongly_convex"] = report["strongly_convex"]
    bounds = report.get("bounds", {})
    if "exact" in bounds:
        gap = bounds["exact"]["gap"]
    elif "spectrum" in report and len(report["spectrum"]["eigenvalues"]) > 1:
        w = report["spectrum"]["eigenvalues"]
        gap = w[1] - w[0]
    else:
        gap = None
    tight = False
    if "theorems" in bounds:
        got["theorems"] = {}
        bar = report["tolerances"]["verify_factor"] * max(1.0, abs(gap))
        for rec in bounds["theorems"]:
            bound = rec["bound"]
            tight |= bool(rec["applicable"] and bound is not None
                          and abs(gap - bound) <= bar)
            got["theorems"][rec["theorem"]] = {
                "applicable": rec["applicable"], "holds": rec["holds"],
                "bound": bound if numeric else None}
    if numeric:
        got["gap"] = gap
    return tight


def _close(got, want, rel):
    if got is None or want is None:
        return got is want
    return abs(got - want) <= rel * max(1.0, abs(want))


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text())


def test_the_record_covers_the_corpus(expected):
    assert sorted(expected) == SPECS


@pytest.mark.parametrize("name", SPECS)
def test_spec_keeps_its_outcome(name, expected, tmp_path):
    got, want = outcome(name, tmp_path), expected[name]
    assert got["run"] == want["run"]
    assert got["verify"] == want["verify"]
    assert got["failures"] == want["failures"]
    assert got["strongly_convex"] == want["strongly_convex"]
    assert _close(got["gap"], want["gap"], 1e-12)
    assert (got["theorems"] or {}).keys() == (want["theorems"] or {}).keys()
    for thm, rec in (want["theorems"] or {}).items():
        mine = got["theorems"][thm]
        assert mine["applicable"] == rec["applicable"], thm
        assert mine["holds"] == rec["holds"], thm
        assert _close(mine["bound"], rec["bound"], 1e-9), thm


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {name: outcome(name, Path(tmp) / name) for name in SPECS}
    EXPECTED.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
