"""Batch front end: validate instance specs, run analyses, write reports.

`load_spec` checks the whole spec before any group, graph or operator is
built; only the id ranges (against the group's order) and the potential's
length (against |S|) wait for the built objects. Every tolerance must be
finite and >= 0, except `decay_margin`, which may be any finite number: a
negative margin only demands a decay rate above mu.

Exit status: 0 when every requested verification holds, 1 on a verification
failure, 2 on a spec error, on a run out of memory, or on any other
typed error the run raises, `ConvergenceFailure` and `SpectrumInvariantError`
included. Every failed check is named in the report's `failures`; a failed
certificate's block carries its `error` and `witness`.

Every output file is encoded straight into a sibling temporary file, which
then replaces the file: the JSON chunk by chunk, the CSVs a line, or one
sample time's lines, at a time. Only the report dict or sweep aggregate is
held whole, and a failed write leaves the previous file, or none.
"""

import argparse
import concurrent.futures
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .bounds import (GapReport, bound_thm1, build_operator, is_path_graph,
                     verify_all)
from .config import DEFAULT_TOL, ToleranceConfig, _problem
from .errors import (CertificateFailure, GapboundError, GroupTooLarge,
                     SpecValidationError)
from .families import (cycle_instance, hypercube_instance, path_instance,
                       quadratic_potential, subcube_instance)
from .graphs import induce_subgraph, build_cayley, is_strongly_convex
from .groups import ORDER_CAP, build_group, generator_set
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


def _typed(value, kind, where):
    """``value`` if it is a JSON ``kind`` (object, list, string, integer or
    number)."""
    problem = _problem(value, kind)
    if problem:
        raise SpecValidationError(f"{where} must be {problem}, got {value!r}")
    return value


def _field(obj, key, kind, where):
    """``obj[key]`` if ``obj`` has it and it is a JSON ``kind``."""
    if key not in obj:
        raise SpecValidationError(f"{where} needs the field {key!r}")
    return _typed(obj[key], kind, f"{where} field {key!r}")


def _typed_list(values, kind, where):
    """``values`` if it is a JSON list whose every entry is a JSON ``kind``."""
    for i, v in enumerate(_typed(values, "list", where)):
        if _problem(v, kind):
            _typed(v, kind, f"{where}[{i}]")
    return values


def _ids(values, order, where):
    """``values``, a list of integers, if each lies in [0, order): element
    or vertex ids, range-checked before numpy converts them."""
    for i, v in enumerate(values):
        if not 0 <= v < order:
            raise SpecValidationError(
                f"{where}[{i}] must be in [0, {order}), got {v!r}")
    return values


def _families():
    """name -> (builder, smallest size a sweep runs, largest size whose
    group order is within groups.ORDER_CAP, vertex count at size n); built
    per call, so each builder is read from this module's binding. path(n)
    is built on C_2n and hypercube(n) on Z_2^n."""
    return {"path": (path_instance, 2, ORDER_CAP // 2, lambda n: n),
            "cycle": (cycle_instance, 3, ORDER_CAP, lambda n: n),
            "hypercube": (hypercube_instance, 1, ORDER_CAP.bit_length() - 1,
                          lambda n: 1 << n)}


# the keys `groups.build_group` reads, per group kind
_GROUP_KEYS = {"cyclic": {"kind", "n"}, "elementary_abelian_2": {"kind", "n"},
               "direct_product": {"kind", "factors"},
               "table": {"kind", "table", "name"}}


def _group_spec(group, where):
    """``group`` if its kind is known, it has only that kind's keys, its
    sizes and factors are JSON integers, its table entries element ids and
    its name a JSON string; `groups.build_group` checks the rest."""
    kind = _typed(group, "object", where).get("kind")
    if not isinstance(kind, str) or kind not in _GROUP_KEYS:
        raise SpecValidationError(f"unknown group spec: {group!r}")
    _require_keys(group, _GROUP_KEYS[kind], where)
    if kind in ("cyclic", "elementary_abelian_2"):
        _field(group, "n", "integer", where)
    elif kind == "direct_product":
        for i, factor in enumerate(_field(group, "factors", "list", where)):
            _group_spec(factor, f"{where} factors[{i}]")
    else:
        rows = _field(group, "table", "list", where)
        for i, row in enumerate(rows):
            _ids(_typed_list(row, "integer", f"{where} table[{i}]"),
                 len(rows), f"{where} table[{i}]")
        if "name" in group:
            _typed(group["name"], "string", f"{where} field 'name'")
    return group


def _instance(inst):
    """The checked instance as the `_Spec` fields (family, group)."""
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
        if isinstance(name, str) and name in _families():
            return (name, _field(fam, "n", "integer", where)), ()
        if name == "subcube":
            mask = _field(fam, "mask", "list", where)
            for i, bit in enumerate(mask):
                if bit is not None and (_problem(bit, "integer")
                                        or bit not in (0, 1)):
                    raise SpecValidationError(
                        f"{where} mask[{i}] must be 0, 1 or null, "
                        f"got {bit!r}")
            return (name, mask), ()
        raise SpecValidationError(f"unknown family {name!r}")
    if "group" not in inst or "generators" not in inst:
        raise SpecValidationError("instance needs either a family or "
                                  "group + generators")
    group = _group_spec(inst["group"], "instance group")
    gens = _typed_list(inst["generators"], "integer", "instance generators")
    sel = inst.get("subgraph", "full")
    if sel == "full":
        return (), (group, gens, None)
    if isinstance(sel, list):
        return (), (group, gens, _typed_list(sel, "integer",
                                             "instance subgraph"))
    raise SpecValidationError(f"bad subgraph selector {sel!r}")


def _potential(pot):
    """The checked potential: None, "boundary", the list of values, or the
    quadratic formula's (c, center). The operator checks that values
    number |S|."""
    if pot is None or pot == "none":
        return None
    if pot == "boundary":
        return "boundary"
    if isinstance(pot, dict):
        if "values" in pot:
            _require_keys(pot, {"values"}, "potential")
            return _typed_list(pot["values"], "number", "potential values")
        if pot.get("formula") == "quadratic":
            _require_keys(pot, {"formula", "c", "center"}, "potential")
            return tuple(float(_field(pot, key, "number", "potential"))
                         for key in ("c", "center"))
    raise SpecValidationError(f"bad potential spec {pot!r}")


@dataclass(frozen=True)
class _Spec:
    """A spec that passed every check its JSON alone allows."""

    instance: dict            # as given: report.json echoes it
    family: tuple             # (name, n or subcube mask), or () for a group
    group: tuple              # (group, generators, vertex list or None), or ()
    potential: object         # see `_potential`
    analyses: list
    tol: ToleranceConfig


def load_spec(path) -> _Spec:
    """The spec file at `path`, checked whole before anything is built."""
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
    tol = DEFAULT_TOL.with_overrides(**_typed(
        spec.get("tolerances", {}), "object", "spec tolerances"))
    return _Spec(spec["instance"], *_instance(spec["instance"]),
                 _potential(spec.get("potential", "none")), analyses, tol)


def _build_subgraph(spec: _Spec):
    """The subgraph of a checked spec; ids are checked against the order
    of the group once it is built."""
    if spec.family:
        name, size = spec.family
        if name == "subcube":
            return subcube_instance(size)
        return _families()[name][0](size)
    group_spec, gens, vertices = spec.group
    group = build_group(group_spec)
    graph = build_cayley(group, generator_set(
        group, _ids(gens, group.order, "instance generators")))
    if vertices is None:
        return graph.full_subgraph()
    return induce_subgraph(graph, _ids(vertices, group.order,
                                       "instance subgraph"))


# -- report helpers -----------------------------------------------------------

def _numpy_json(obj):
    """json.dump hook for the numpy values in reports."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_file(path: Path, write):
    """write(fh) into a sibling temporary file, then move it onto `path`.

    A raise while writing removes the temporary file and leaves `path` as
    it was: the previous file, or none, never a truncated one.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path: Path, obj):
    """`obj` as sorted, indented JSON, encoded chunk by chunk into the file:
    the bytes of json.dumps with the same arguments, plus a newline."""
    def write(fh):
        json.dump(obj, fh, default=_numpy_json, sort_keys=True, indent=2)
        fh.write("\n")
    _write_file(path, write)


# every float in a CSV: 17 significant digits, enough to round-trip
_G17 = ".17g"


def _fmt(x: float) -> str:
    return format(float(x), _G17)


def write_eta_csv(path: Path, times, etas):
    """One ``s,t,eta`` line per s = 1..D and sample time; `etas` holds one
    eta(0..D) row per time.

    A sample's D lines are one template, with the time's digits in place
    of ``@``, formatted by one ``%`` over eta(1..D) and written before the
    next sample's; ``%`` and `_fmt` give the same digits.
    """
    def write(fh):
        fh.write("s,t,eta\n")
        template = None
        for t, row in zip(times, etas):
            values = row.tolist()[1:]
            if template is None:
                template = "".join(f"{s},@,%{_G17}\n"
                                   for s in range(1, len(values) + 1))
            fh.write(template.replace("@", _fmt(t)) % tuple(values))
    _write_file(path, write)


def write_spectrum_csv(path: Path, spec):
    """One ``index,eigenvalue`` line per eigenvalue, written as formatted."""
    def write(fh):
        fh.write("index,eigenvalue\n")
        for i, w in enumerate(spec.eigenvalues):
            fh.write(f"{i},{_fmt(w)}\n")
    _write_file(path, write)


# -- analyses -----------------------------------------------------------------

def _checked(label, failures, check, as_dict=asdict):
    """`as_dict` of what `check()` returns. A failed certificate gives the
    block {"ok": false, "error", "witness"} instead, and appends
    "<label>: <error>" to `failures`."""
    try:
        result = check()
    except CertificateFailure as exc:
        failures.append(f"{label}: {exc}")
        return {"ok": False, "error": str(exc), "witness": exc.witness}
    return as_dict(result)


def run_instance(spec: _Spec, out_dir: Path):
    sub = _build_subgraph(spec)
    potential = spec.potential
    if isinstance(potential, tuple):
        potential = quadratic_potential(sub, *potential)
    analyses, tol = spec.analyses, spec.tol

    report = {"schema": SCHEMA, "instance": spec.instance,
              "tolerances": tol.as_dict()}
    failures = []

    op = build_operator(sub, potential)
    spectrum = eigendecompose(op, tol)

    convexity = is_strongly_convex(sub)
    report["strongly_convex"] = convexity.convex
    if convexity.witness is not None:
        report["convexity_witness"] = list(convexity.witness)

    if "spectrum" in analyses:
        report["spectrum"] = {
            "eigenvalues": spectrum.eigenvalues,
            "max_residual": float(spectrum.residuals.max()),
            "certificate": _checked("spectrum certificate", failures,
                                    lambda: _certificate(spectrum)),
        }
        write_spectrum_csv(out_dir / "spectrum.csv", spectrum)

    if "bounds" in analyses:
        block = report["bounds"] = _checked(
            "bounds certificate", failures, lambda: verify_all(spectrum),
            GapReport.as_dict)
        failures += [f"{rec['theorem']}: bound {rec['bound']!r} exceeds gap "
                     f"{block['exact']['gap']!r}"
                     for rec in block.get("theorems", ())
                     if rec["holds"] is False]

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
        mu = bound_thm1(max(sub.diameter_S, 1))
        heat_info = {"decay": _checked("heat decay", failures,
                                       lambda: decay_rate_check(traj, mu))}
        if convexity.convex:
            heat_info["mocheat"] = _checked(
                "mocheat certificate", failures,
                lambda: mocheat_inequality_check(traj))
        if op.kind == "hamiltonian":
            heat_info["ratio"] = _checked(
                "ratio certificate", failures,
                lambda: ratio_evolution_check(spectrum, times[1:8]))
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
    build, smallest, largest, vertices = _families()[family]
    lo = max(lo, smallest)
    if lo > hi:
        raise SpecValidationError(f"empty size range {lo}..{hi} for {family}")
    if hi > largest:
        raise GroupTooLarge(f"{family}({hi}) exceeds the group order cap "
                            f"{ORDER_CAP}; the largest is {family}({largest})")
    sizes = list(range(lo, hi + 1))
    threads = _thread_count()
    # vertex counts grow with the size, so the small sizes are a prefix and
    # the tasks, taken in order, give the rows in size order
    k = sum(vertices(n) < _SERIAL_BELOW for n in sizes)
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
            if rec.bound is not None:
                row[f"{rec.theorem}_bound"] = rec.bound
                row[f"{rec.theorem}_slack"] = rec.slack
            if rec.holds is False:
                failures.append(f"{family}({n}) {rec.theorem}")
        table.append(row)
        reports[str(n)] = rep.as_dict()

    cols = sorted({k for row in table for k in row})

    def write(fh):
        fh.write(",".join(cols) + "\n")
        for row in table:
            fh.write(",".join(_fmt(row[c]) if isinstance(row.get(c), float)
                              else str(row.get(c, "")) for c in cols) + "\n")
    _write_file(out_dir / "sweep.csv", write)

    aggregate = {"schema": SCHEMA, "family": family, "sizes": sizes,
                 "table": table, "reports": reports,
                 "failures": failures, "ok": not failures,
                 "tolerances": tol.as_dict()}
    return aggregate


# -- entry points ---------------------------------------------------------------

def _tol_from_arg(arg, base=DEFAULT_TOL):
    if not arg:
        return base
    return base.with_overrides(**_typed(json.loads(arg), "object", "--tol"))


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
                         choices=tuple(_families()))
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
            spec = load_spec(args.spec)
            spec = replace(spec, tol=_tol_from_arg(args.tol, spec.tol))
            report = run_instance(spec, out_dir)
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
    except MemoryError as exc:
        # an instance too large for this machine is a size limit, not a
        # failed verification
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
