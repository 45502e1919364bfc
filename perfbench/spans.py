"""Span recorder that times gapbound's layers from outside the package.

``Tracer.install`` replaces each function named in ``LAYERS`` by a wrapper
at every module binding that refers to it (``cli``, ``bounds`` and ``heat``
import functions by name, so patching the defining module alone would miss
their calls). Each wrapper records a span, with its parent, thread and the
operation that caused it, and the counters listed in ``COUNTERS``. Spans
stay in memory until ``take`` hands them over.

Coverage is guarded, and a gap raises ``CoverageError`` instead of silently
dropping a layer from the table: every gapbound module must be a layer or
listed as holding no timed work, every public function of a layer module
must be timed or listed in ``UNTIMED``, and no reference to a timed
function may survive where patching cannot reach it.

A span's self time is its duration minus the union of its children's
intervals; children include spans that worker threads start while their
operation's thread waits, so a thread pool's tasks are charged to them.
"""

import contextlib
import functools
import importlib
import inspect
import itertools
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple, Optional

PACKAGE = "gapbound"

# layer module -> {function: per-layer metric charged with its self time}
LAYERS = {
    "jacobi": {"jacobi_eigh": "jacobi.solve_s"},
    "operators": {
        "laplacian": "operators.assemble_s",
        "dirichlet_hamiltonian": "operators.assemble_s",
        "boundary_potential": "operators.assemble_s",
        "path_lattice_laplacian": "operators.assemble_s",
        "eigendecompose": "operators.eigendecompose_self_s",
        "rayleigh_gap_check": "operators.certificate_s",
    },
    "moduli": {
        "modulus_of_continuity": "moduli.eta_s",
        "modulus_of_concavity": "moduli.omega_s",
        "grad_ops": "moduli.omega_s",
        "extremal_pairs": "moduli.extremal_s",
        "c_u0": "moduli.c_u0_s",
        "log_concavity": "moduli.log_concavity_s",
    },
    "heat": {
        "default_times": "heat.evolve_self_s",
        "gershgorin_max": "heat.evolve_self_s",
        "evolve": "heat.evolve_self_s",
        "spectral_state": "heat.spectral_state_s",
        "mocheat_inequality_check": "heat.mocheat_self_s",
        "eta2_contraction_check": "heat.mocheat_self_s",
        "decay_rate_check": "heat.decay_s",
        "ratio_evolution_check": "heat.ratio_s",
    },
    "bounds": {name: "bounds.verify_self_s" for name in (
        "verify_all", "build_operator", "mu_matched", "mu_unit", "bound_thm1",
        "bound_thm2", "bound_thm3", "bound_thm4", "bound_thm5", "bound_thm6",
        "is_hypercube", "is_path_graph")},
    "graphs": {
        "build_cayley": "graphs.build_s",
        "induce_subgraph": "graphs.build_s",
        "convex_closure": "graphs.build_s",
        "is_strongly_convex": "graphs.convexity_s",
    },
    "families": {name: "graphs.build_s" for name in (
        "cycle_graph", "hypercube_graph", "path_instance", "cycle_instance",
        "hypercube_instance", "subcube_instance", "vertex_coordinate",
        "quadratic_potential")},
    "groups": {name: "groups.build_s" for name in (
        "cyclic_group", "elementary_abelian_2", "direct_product",
        "group_from_table", "build_group", "generator_set", "word_lengths",
        "check_invariance")},
    "cli": {
        "main": "cli.run_self_s",
        "run_instance": "cli.run_self_s",
        "run_sweep": "cli.run_self_s",
        "load_spec": "cli.load_s",
        "write_json": "cli.write_s",
        "write_eta_csv": "cli.write_s",
        "write_spectrum_csv": "cli.write_s",
    },
}

# public functions that only select or look up, with no pipeline work
UNTIMED = {"jacobi": {"available_backends", "get_kernel"}}

# modules that hold no pipeline stage: settings, exception types, the
# Jacobi sweep kernels (run inside jacobi_eigh's span)
NON_LAYER = {"config", "errors", "_jacobi_py", "_jacobi_cy"}


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _count_jacobi(args, kwargs, result, exc):
    n = len(_arg(args, kwargs, 0, "matrix"))
    counts = {"jacobi.calls": 1, "jacobi.n3": n ** 3}
    if exc is None:
        counts["jacobi.sweeps"] = result[2].sweeps
    return counts


def _count_eta(args, kwargs, result, exc):
    sub = _arg(args, kwargs, 1, "sub")
    return {"moduli.eta_calls": 1,
            "moduli.eta_cells": sub.n_vertices ** 2 * sub.diameter_S}


def _count_c_u0(args, kwargs, result, exc):
    if exc is None:
        skipped = int(result.skipped.shape[0])
        scanned = int(result.pairs.shape[0]) + skipped
    else:
        # every pair was skipped (EmptyAfterSkips) or the call was invalid
        restrict = kwargs.get("restrict", args[3] if len(args) > 3 else "all")
        if restrict == "all":
            pairs = _arg(args, kwargs, 1, "xi")
        else:
            eta = kwargs["eta"] if "eta" in kwargs else args[5]
            pairs = eta.achievers[min(2, eta.diameter)]
        scanned = skipped = int(pairs.shape[0])
    return {"moduli.c_u0_pairs": scanned, "moduli.c_u0_skipped": skipped}


def _count_one(metric):
    return lambda args, kwargs, result, exc: {metric: 1}


COUNTERS = {
    ("jacobi", "jacobi_eigh"): _count_jacobi,
    ("operators", "rayleigh_gap_check"): _count_one("operators.certificate_calls"),
    ("moduli", "modulus_of_continuity"): _count_eta,
    ("moduli", "c_u0"): _count_c_u0,
    ("heat", "spectral_state"): _count_one("heat.spectral_state_calls"),
    ("bounds", "bound_thm3"): _count_one("bounds.ratio_bound_calls"),
    ("bounds", "bound_thm4"): _count_one("bounds.ratio_bound_calls"),
    ("graphs", "is_strongly_convex"): _count_one("graphs.convexity_calls"),
}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("jacobi.solve_s", "s", "lower"),
    ("jacobi.calls", "count", "lower"),
    ("jacobi.sweeps", "count", "lower"),
    ("jacobi.n3", "count", "lower"),
    ("jacobi.n3_per_s", "1/s", "higher"),
    ("operators.assemble_s", "s", "lower"),
    ("operators.eigendecompose_self_s", "s", "lower"),
    ("operators.certificate_s", "s", "lower"),
    ("operators.certificate_calls", "count", "lower"),
    ("moduli.eta_s", "s", "lower"),
    ("moduli.eta_calls", "count", "lower"),
    ("moduli.eta_cells", "count", "lower"),
    ("moduli.omega_s", "s", "lower"),
    ("moduli.extremal_s", "s", "lower"),
    ("moduli.c_u0_s", "s", "lower"),
    ("moduli.c_u0_pairs", "count", "lower"),
    ("moduli.c_u0_skipped", "count", "lower"),
    ("moduli.c_u0_skip_share", "share", "lower"),
    ("moduli.log_concavity_s", "s", "lower"),
    ("heat.evolve_self_s", "s", "lower"),
    ("heat.spectral_state_s", "s", "lower"),
    ("heat.spectral_state_calls", "count", "lower"),
    ("heat.mocheat_self_s", "s", "lower"),
    ("heat.decay_s", "s", "lower"),
    ("heat.ratio_s", "s", "lower"),
    ("bounds.verify_self_s", "s", "lower"),
    ("bounds.ratio_bound_calls", "count", "lower"),
    ("graphs.build_s", "s", "lower"),
    ("graphs.convexity_s", "s", "lower"),
    ("graphs.convexity_calls", "count", "lower"),
    ("groups.build_s", "s", "lower"),
    ("cli.load_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.run_self_s", "s", "lower"),
    ("cli.sweep_busy_ratio", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

SELF_TIME_METRICS = sorted({b for fns in LAYERS.values() for b in fns.values()})


class CoverageError(RuntimeError):
    """A gapbound function would run untimed, or a timed one is gone."""


class Span(NamedTuple):
    sid: int
    name: str                     # "<module>.<function>"
    metric: str                   # per-layer metric charged with self time
    start: float
    end: float
    parent: Optional[int]
    thread: int
    op: int
    counts: Optional[dict]


def _package_modules():
    """Import the package and every module in it; return their short names."""
    pkg = importlib.import_module(PACKAGE)
    names = sorted(m.name for m in pkgutil.iter_modules(pkg.__path__))
    for name in names:
        importlib.import_module(f"{PACKAGE}.{name}")
    return names


def _timed_functions():
    """{id(fn): (module, name, fn)} for every function named in LAYERS."""
    names = _package_modules()
    problems = [f"module {PACKAGE}.{n} is neither a layer in LAYERS nor "
                f"listed in NON_LAYER" for n in names
                if n not in LAYERS and n not in NON_LAYER]
    timed = {}
    for layer, fns in LAYERS.items():
        mod = sys.modules.get(f"{PACKAGE}.{layer}")
        if mod is None:
            problems.append(f"layer module {PACKAGE}.{layer} is not imported")
            continue
        for name in fns:
            fn = getattr(mod, name, None)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                problems.append(f"{layer}.{name} is no longer a function "
                                f"defined in {mod.__name__}")
                continue
            timed[id(fn)] = (layer, name, fn)
        for name, val in vars(mod).items():
            if (inspect.isfunction(val) and val.__module__ == mod.__name__
                    and not name.startswith("_") and name not in fns
                    and name not in UNTIMED.get(layer, ())):
                problems.append(f"public function {layer}.{name} is neither "
                                f"timed in LAYERS nor listed in UNTIMED")
    if problems:
        raise CoverageError("; ".join(problems))
    return timed


def _package_namespaces():
    for name, mod in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            yield name, mod


def _cells(fn):
    for cell in fn.__closure__ or ():
        try:
            yield cell.cell_contents
        except ValueError:        # a cell not yet filled
            pass


def _hidden_references(timed):
    """Places that hold a timed function where rebinding cannot reach it."""
    found = []

    def scan(where, values):
        for v in values:
            if id(v) in timed:
                layer, name, _ = timed[id(v)]
                found.append(f"{layer}.{name} referenced from {where}")

    for modname, mod in _package_namespaces():
        for name, val in vars(mod).items():
            where = f"{modname}.{name}"
            if isinstance(val, dict):
                scan(where, val.values())
            elif isinstance(val, (list, tuple, set, frozenset)):
                scan(where, val)
            elif inspect.isfunction(val):
                scan(f"defaults of {where}", val.__defaults__ or ())
                scan(f"defaults of {where}", (val.__kwdefaults__ or {}).values())
                scan(f"closure of {where}", _cells(val))
            elif inspect.isclass(val) and val.__module__ == modname:
                scan(f"class {where}", (inspect.unwrap(getattr(a, "__func__", a))
                                        for a in vars(val).values()))
    return found


class Tracer:
    """Collects spans from the wrappers it installs; see the module doc."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = 0
        self._op_stack = []
        self._patched = []        # (module, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: int):
        """Attribute the following spans, in any thread, to operation `op`."""
        self._op = op
        self._op_stack = self._stack()

    def _wrap(self, layer, name, fn):
        metric = LAYERS[layer][name]
        counter = COUNTERS.get((layer, name))
        span_name = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # a worker thread's first span hangs under whatever its
                # operation's thread is waiting in
                op_stack = self._op_stack
                parent = op_stack[-1] if op_stack and op_stack is not stack else None
            sid = next(self._ids)
            op = self._op
            stack.append(sid)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = counter(args, kwargs, result, exc) if counter else None
                self.spans.append(Span(sid, span_name, metric, start, end,
                                       parent, threading.get_ident(), op,
                                       counts))

        return wrapper

    def install(self):
        """Wrap every binding of every timed function; raise CoverageError
        (and leave nothing patched) if coverage is incomplete."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        timed = check_coverage()
        wrappers = {key: self._wrap(layer, name, fn)
                    for key, (layer, name, fn) in timed.items()}
        for _, mod in _package_namespaces():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
        left = [f"{modname}.{attr}" for modname, mod in _package_namespaces()
                for attr, val in vars(mod).items() if id(val) in timed]
        if left:
            self.uninstall()
            raise CoverageError(f"bindings left unwrapped: {left}")

    def uninstall(self):
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def take(self):
        """Hand over the spans recorded so far and start a new batch."""
        spans, self.spans = self.spans, []
        return spans


def check_coverage():
    """Raise CoverageError if a layer would be dropped; else return the
    timed functions as {id(fn): (module, name, fn)}."""
    timed = _timed_functions()
    hidden = _hidden_references(timed)
    if hidden:
        raise CoverageError("; ".join(hidden))
    return timed


def _covered(intervals, lo, hi):
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """{span id: duration minus the time its children cover}."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _covered(kids.get(s.sid, ()), s.start, s.end)
            for s in spans}


def layer_metrics(spans):
    """Per-layer metrics of one batch of spans (one pass of a workload),
    without the trace.* entries, which need the pass wall times."""
    out = {name: 0.0 for name, _, _ in PER_LAYER if not name.startswith("trace.")}
    selfs = self_times(spans)
    for s in spans:
        out[s.metric] += selfs[s.sid]
        for key, val in (s.counts or {}).items():
            out[key] += val
    if out["jacobi.solve_s"] > 0:
        out["jacobi.n3_per_s"] = out["jacobi.n3"] / out["jacobi.solve_s"]
    if out["moduli.c_u0_pairs"] > 0:
        out["moduli.c_u0_skip_share"] = (out["moduli.c_u0_skipped"]
                                         / out["moduli.c_u0_pairs"])
    sweeps = [s for s in spans if s.name == "cli.run_sweep"]
    sweep_wall = sum(s.end - s.start for s in sweeps)
    if sweep_wall > 0:
        # pool tasks are the spans other threads start under the sweep; their
        # time includes waiting for the interpreter lock
        ids = {s.sid: s.thread for s in sweeps}
        busy = sum(s.end - s.start for s in spans
                   if s.parent in ids and s.thread != ids[s.parent])
        out["cli.sweep_busy_ratio"] = busy / sweep_wall
    return out
