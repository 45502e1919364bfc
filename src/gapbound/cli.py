"""Batch front end: validate instance specs, run analyses, write reports.

Exit status: 0 when every requested verification holds, 1 on a verification
failure (witnesses land in the report), 2 on a spec/validation error.
"""

import argparse
import concurrent.futures
import functools
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .bounds import bound_thm1, build_operator, is_path_graph, verify_all
from .config import DEFAULT_TOL
from .errors import CertificateFailure, GapboundError, SpecValidationError
from .families import (cycle_instance, hypercube_instance, path_instance,
                       quadratic_potential, subcube_instance)
from .graphs import induce_subgraph, build_cayley, is_strongly_convex
from .groups import build_group, generator_set
from .heat import (decay_rate_check, default_times, evolve,
                   mocheat_inequality_check, ratio_evolution_check)
from .moduli import (_ground_concavity, _ground_eta, _ground_omega,
                     extremal_pairs)
from .operators import _certificate, eigendecompose

SCHEMA = "gapbound/1"
ANALYSES = ("spectrum", "bounds", "moduli", "heat")


# -- spec validation ----------------------------------------------------------

def _require_keys(obj, allowed, where):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise SpecValidationError(f"unknown keys in {where}: {sorted(unknown)}")


def _field(obj, key, where):
    if key not in obj:
        raise SpecValidationError(f"{where} needs the field {key!r}")
    return obj[key]


_JSON_TYPES = {"object": dict, "list": list, "integer": int,
               "number": (int, float)}


def _problem(value, kind):
    """None if ``value`` is a JSON ``kind``, else what it must be. `json`
    also reads NaN, Infinity and integers beyond the float range as
    numbers; a number must be finite."""
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        return f"a JSON {kind}"
    if kind == "number" and not abs(value) <= sys.float_info.max:
        return "finite"
    return None


def _typed(value, kind, where):
    """``value`` if it is a JSON ``kind`` (object, list, integer or number)."""
    problem = _problem(value, kind)
    if problem:
        raise SpecValidationError(f"{where} must be {problem}, got {value!r}")
    return value


def _typed_list(values, kind, where):
    """``values`` if it is a JSON list whose every entry is a JSON ``kind``."""
    for i, v in enumerate(_typed(values, "list", where)):
        if _problem(v, kind):
            _typed(v, kind, f"{where}[{i}]")
    return values


def _typed_ids(values, order, where):
    """``values`` if it is a JSON list of integers in [0, order): element
    or vertex ids, range-checked before numpy converts them."""
    for i, v in enumerate(_typed(values, "list", where)):
        if _problem(v, "integer") or not 0 <= v < order:
            _typed(v, "integer", f"{where}[{i}]")
            raise SpecValidationError(
                f"{where}[{i}] must be in [0, {order}), got {v!r}")
    return values


def _group_spec(group, where):
    """``group`` if its sizes and factors are JSON integers and its table
    entries element ids; `groups.build_group` checks the rest."""
    kind = _typed(group, "object", where).get("kind")
    if kind in ("cyclic", "elementary_abelian_2"):
        _typed(_field(group, "n", where), "integer", f"{where} field 'n'")
    elif kind == "direct_product":
        factors = _typed(_field(group, "factors", where), "list",
                         f"{where} field 'factors'")
        for i, factor in enumerate(factors):
            _group_spec(factor, f"{where} factors[{i}]")
    elif kind == "table":
        rows = _typed(_field(group, "table", where), "list",
                      f"{where} field 'table'")
        for i, row in enumerate(rows):
            _typed_ids(row, len(rows), f"{where} table[{i}]")
    return group


def _with_overrides(base, overrides, where):
    return base.with_overrides(**_typed(overrides, "object", where))


def _build_subgraph(inst):
    _require_keys(_typed(inst, "object", "instance"),
                  {"family", "group", "generators", "subgraph"}, "instance")
    fam = inst.get("family")
    if fam is not None:
        if any(k in inst for k in ("group", "generators", "subgraph")):
            raise SpecValidationError("family excludes explicit group fields")
        _require_keys(_typed(fam, "object", "instance.family"),
                      {"name", "n", "mask"}, "instance.family")
        name = fam.get("name")
        where = f"instance.family {name!r}"
        if name in ("path", "cycle", "hypercube"):
            n = _typed(_field(fam, "n", where), "integer",
                       f"{where} field 'n'")
            return {"path": path_instance, "cycle": cycle_instance,
                    "hypercube": hypercube_instance}[name](n)
        if name == "subcube":
            return subcube_instance(_field(fam, "mask", where))
        raise SpecValidationError(f"unknown family {name!r}")
    if "group" not in inst or "generators" not in inst:
        raise SpecValidationError("instance needs either a family or "
                                  "group + generators")
    group = build_group(_group_spec(inst["group"], "instance group"))
    gens = generator_set(group, _typed_ids(
        inst["generators"], group.order, "instance generators"))
    graph = build_cayley(group, gens)
    sel = inst.get("subgraph", "full")
    if sel == "full":
        return graph.full_subgraph()
    if isinstance(sel, list):
        return induce_subgraph(graph, _typed_ids(sel, group.order,
                                                 "instance subgraph"))
    raise SpecValidationError(f"bad subgraph selector {sel!r}")


def _build_potential(sub, pot):
    if pot is None or pot == "none":
        return None
    if pot == "boundary":
        return "boundary"
    if isinstance(pot, dict):
        if "values" in pot:
            _require_keys(pot, {"values"}, "potential")
            vals = np.asarray(_typed_list(pot["values"], "number",
                                          "potential values"),
                              dtype=np.float64)
            if vals.shape != (sub.n_vertices,):
                raise SpecValidationError(
                    f"potential length {vals.size} != |S| = {sub.n_vertices}")
            return vals
        if pot.get("formula") == "quadratic":
            _require_keys(pot, {"formula", "c", "center"}, "potential")
            c, center = (_typed(_field(pot, key, "potential"), "number",
                                f"potential field {key!r}")
                         for key in ("c", "center"))
            return quadratic_potential(sub, float(c), float(center))
    raise SpecValidationError(f"bad potential spec {pot!r}")


def load_spec(path):
    with open(path) as fh:
        spec = _typed(json.load(fh), "object", "spec")
    _require_keys(spec, {"schema", "instance", "potential", "analyses",
                         "tolerances"}, "spec")
    if spec.get("schema") != SCHEMA:
        raise SpecValidationError(f"schema must be {SCHEMA!r}")
    if "instance" not in spec:
        raise SpecValidationError("spec needs an instance")
    analyses = _typed(spec.get("analyses", ["bounds"]), "list",
                      "spec analyses")
    bad = [a for a in analyses if a not in ANALYSES]
    if bad:
        raise SpecValidationError(f"unknown analyses {bad}; known: {ANALYSES}")
    tol = _with_overrides(DEFAULT_TOL, spec.get("tolerances", {}),
                          "spec tolerances")
    return spec, analyses, tol


# -- report helpers -----------------------------------------------------------

def _numpy_json(obj):
    """json.dumps hook for the numpy values in reports."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path: Path, obj):
    path.write_text(json.dumps(obj, default=_numpy_json, sort_keys=True,
                               indent=2) + "\n")


# every float in a CSV: 17 significant digits, enough to round-trip
_G17 = ".17g"


def _fmt(x: float) -> str:
    return format(float(x), _G17)


def write_eta_csv(path: Path, times, etas):
    """One ``s,t,eta`` line per s = 1..D and sample time; `etas` holds one
    eta(0..D) row per time.

    A sample's D lines are one template, with the time's digits in place
    of ``@``, formatted by one ``%`` over eta(1..D); ``%`` and `_fmt` give
    the same digits.
    """
    rows = ["s,t,eta\n"]
    template = None
    for t, row in zip(times, etas):
        values = row.tolist()[1:]
        if template is None:
            template = "".join(f"{s},@,%{_G17}\n"
                               for s in range(1, len(values) + 1))
        rows.append(template.replace("@", _fmt(t)) % tuple(values))
    path.write_text("".join(rows))


def write_spectrum_csv(path: Path, spec):
    values = spec.eigenvalues.tolist()
    template = "".join(f"{i},%{_G17}\n" for i in range(len(values)))
    path.write_text("index,eigenvalue\n" + template % tuple(values))


# -- analyses -----------------------------------------------------------------

def run_instance(spec, analyses, tol, out_dir: Path):
    sub = _build_subgraph(spec["instance"])
    potential = _build_potential(sub, spec.get("potential", "none"))

    report = {"schema": SCHEMA, "instance": spec["instance"],
              "tolerances": tol.as_dict()}
    failures = []

    op = build_operator(sub, potential)
    spectrum = eigendecompose(op, tol)

    convexity = is_strongly_convex(sub)
    report["strongly_convex"] = convexity.convex
    if convexity.witness is not None:
        report["convexity_witness"] = list(convexity.witness)

    if "spectrum" in analyses:
        try:
            cert_info = asdict(_certificate(spectrum))
        except CertificateFailure as exc:
            cert_info = {"ok": False, "error": str(exc), "witness": exc.witness}
            failures.append(f"spectrum certificate: {exc}")
        report["spectrum"] = {
            "eigenvalues": spectrum.eigenvalues,
            "max_residual": float(spectrum.residuals.max()),
            "certificate": cert_info,
        }
        write_spectrum_csv(out_dir / "spectrum.csv", spectrum)

    if "bounds" in analyses:
        gap_report = verify_all(spectrum)
        report["bounds"] = gap_report.as_dict()
        for rec in gap_report.records:
            if rec.applicable and rec.bound is not None and not rec.holds:
                failures.append(
                    f"{rec.theorem}: bound {rec.bound!r} exceeds gap "
                    f"{gap_report.gap!r}")

    if "moduli" in analyses and spectrum.dim >= 2:
        eta = _ground_eta(spectrum)
        mod = {"eta": eta.values,
               "xi_pairs": int(extremal_pairs(eta).shape[0]),
               "tie_tol": eta.tie_tol}
        concave = _ground_concavity(spectrum)
        mod["log_concave"] = concave.holds
        if is_path_graph(sub) and concave.holds:
            omega = _ground_omega(spectrum)
            mod["omega"] = omega.values
            mod["omega_bar"] = omega.omega_bar
        report["moduli"] = mod

    if "heat" in analyses and spectrum.dim >= 2:
        times = default_times(max(spectrum.gap, 1e-12))
        traj = evolve(spectrum, spectrum.vector(1), times)
        heat_info = {}
        mu = bound_thm1(max(sub.diameter_S, 1))
        try:
            heat_info["decay"] = asdict(decay_rate_check(traj, mu))
        except GapboundError as exc:
            heat_info["decay"] = {"ok": False, "error": str(exc)}
            failures.append(f"heat decay: {exc}")
        if convexity.convex:
            try:
                heat_info["mocheat"] = asdict(mocheat_inequality_check(traj))
            except CertificateFailure as exc:
                heat_info["mocheat"] = {"ok": False, "error": str(exc)}
                failures.append(f"mocheat certificate: {exc}")
        if op.kind == "hamiltonian":
            try:
                heat_info["ratio"] = asdict(
                    ratio_evolution_check(spectrum, times[1:8]))
            except CertificateFailure as exc:
                heat_info["ratio"] = {"ok": False, "error": str(exc)}
                failures.append(f"ratio certificate: {exc}")
        report["heat"] = heat_info
        write_eta_csv(out_dir / "eta_series.csv", traj.times, traj.etas)

    report["failures"] = failures
    report["ok"] = not failures
    return report


# Sweep sizes with fewer vertices than this run in order as one pool task;
# each larger size is a task of its own. Below it a size is too small to
# release the GIL for long, so two sizes at once take longer than one after
# the other. Time per size with a pool of two over the time in one thread,
# for repeated verify_all of one size (2 CPUs, BLAS at one thread):
#   path   16: 1.80  48: 1.79  64: 1.30  80: 1.01  96: 0.93  112: 0.78
#          128: 0.76  160: 0.70
#   cycle  64: 1.34  96: 1.03  112: 0.87  128: 0.77
#   Q6 1.69  Q7 1.16  Q8 0.72  Q9 0.52
# Paths and cycles cross 1 near 96 vertices, hypercubes between 128 and
# 256. Whole sweeps at cuts of 96, 112 and 128 tie on path 100..160 and
# hypercube 1..10; 128 is the fastest on cycle 3..120.
_SERIAL_BELOW = 128


def _sweep_sizes(family, lo, hi):
    if family == "path":
        lo = max(lo, 2)
    elif family == "cycle":
        lo = max(lo, 3)
    elif family == "hypercube":
        lo = max(lo, 1)
    else:
        raise SpecValidationError(f"unknown sweep family {family!r}")
    if lo > hi:
        raise SpecValidationError(f"empty size range {lo}..{hi} for {family}")
    return list(range(lo, hi + 1))


def _thread_count():
    env = os.environ.get("GAPBOUND_THREADS")
    if env:
        try:
            count = int(env)
        except ValueError:
            count = 0
        if count < 1:
            raise SpecValidationError(
                f"GAPBOUND_THREADS must be an integer >= 1, got {env!r}")
        return count
    return os.cpu_count() or 1


def run_sweep(family, lo, hi, tol, out_dir: Path):
    """Bound every size lo..hi of `family`; write sweep.csv, return the
    aggregate that main writes as sweep.json.

    A sweep computes the bounds analysis only. The sizes run in a thread
    pool of GAPBOUND_THREADS workers, read before any size runs, so at most
    that many sizes run at once. The sizes under _SERIAL_BELOW vertices form
    one task that runs them in order; each larger size is a task of its
    own. Rows come out in size order.
    """
    sizes = _sweep_sizes(family, lo, hi)
    build = {"path": path_instance, "cycle": cycle_instance,
             "hypercube": hypercube_instance}[family]
    threads = _thread_count()
    # vertex counts grow with the size, so the small sizes are a prefix and
    # the tasks, taken in order, give the rows in size order
    k = sum((1 << n if family == "hypercube" else n) < _SERIAL_BELOW
            for n in sizes)
    tasks = ([sizes[:k]] if k else []) + [[n] for n in sizes[k:]]

    def run(task):
        return [(n, verify_all(eigendecompose(build_operator(build(n)), tol)))
                for n in task]

    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as ex:
        rows = [row for done in ex.map(run, tasks) for row in done]

    table = []
    reports = {}
    failures = []
    for n, rep in rows:
        row = {"size": n, "diameter": rep.diameter, "gap": rep.gap}
        for rec in rep.records:
            if rec.applicable and rec.bound is not None:
                row[f"{rec.theorem}_bound"] = rec.bound
                row[f"{rec.theorem}_slack"] = rec.slack
                if not rec.holds:
                    failures.append(f"{family}({n}) {rec.theorem}")
        table.append(row)
        reports[str(n)] = rep.as_dict()

    cols = sorted({k for row in table for k in row})
    lines = [",".join(cols)]
    for row in table:
        lines.append(",".join(
            _fmt(row[c]) if isinstance(row.get(c), float) else str(row.get(c, ""))
            for c in cols))
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")

    aggregate = {"schema": SCHEMA, "family": family, "sizes": sizes,
                 "table": table, "reports": reports,
                 "failures": failures, "ok": not failures,
                 "tolerances": tol.as_dict()}
    return aggregate


# -- entry points ---------------------------------------------------------------

def _tol_from_arg(arg, base=DEFAULT_TOL):
    if not arg:
        return base
    return _with_overrides(base, json.loads(arg), "--tol")


@functools.cache
def _parser():
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="gapbound",
        description="spectral-gap bound toolkit for homogeneous graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one instance spec")
    ver_p = sub.add_parser("verify",
                           help="run + nonzero exit on any negative slack")
    for p in (run_p, ver_p):
        p.add_argument("--spec", required=True, help="instance spec JSON file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--tol", default=None, help="tolerance overrides (JSON)")

    sweep_p = sub.add_parser("sweep", help="run a family of sizes")
    sweep_p.add_argument("--family", required=True,
                         choices=("path", "cycle", "hypercube"))
    sweep_p.add_argument("--min", type=int, required=True)
    sweep_p.add_argument("--max", type=int, required=True)
    sweep_p.add_argument("--out", required=True)
    sweep_p.add_argument("--tol", default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command in ("run", "verify"):
            spec, analyses, tol = load_spec(args.spec)
            tol = _tol_from_arg(args.tol, tol)
            report = run_instance(spec, analyses, tol, out_dir)
            write_json(out_dir / "report.json", report)
            if not report["ok"]:
                return 1
            if args.command == "verify" and "bounds" in report:
                for rec in report["bounds"]["theorems"]:
                    if rec["applicable"] and rec["slack"] is not None \
                            and rec["slack"] < 0:
                        return 1
            return 0
        tol = _tol_from_arg(args.tol)
        aggregate = run_sweep(args.family, args.min, args.max, tol, out_dir)
        write_json(out_dir / "sweep.json", aggregate)
        return 0 if aggregate["ok"] else 1
    except (GapboundError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
