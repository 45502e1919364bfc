"""Gap lower bounds and their verification against exact spectra.

Each theorem gets a record stating whether its hypotheses verify, the bound
value, and the slack against the exact gap; bounds whose hypotheses fail are
reported as not applicable rather than evaluated speculatively.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import (BoundUnavailable, EmptyAfterSkips, HypothesisFailed,
                     NotHypercube)
from .graphs import ConvexSubgraph, is_strongly_convex
from .moduli import (ModulusOfConcavity, RatioFunction, _dcosh,
                     _ground_concavity, _ground_eta, _ground_omega,
                     _ground_ratio, c_u0, extremal_pairs,
                     modulus_of_continuity)
# TODO(next benchmark change): perfbench's
# test_every_binding_is_wrapped_and_restored reads bounds.eigendecompose,
# which nothing here calls; drop it from this import with that read.
from .operators import (Spectrum, _certificate, _source,
                        dirichlet_hamiltonian, eigendecompose, laplacian)


def mu_matched(d: int) -> float:
    """Smallest non-trivial eigenvalue of the parity path lattice on [-D, D]."""
    return 2.0 * (1.0 - math.cos(math.pi / (d + 1)))


def mu_unit(d: int) -> float:
    """Same for the unit-step lattice (2D+1 vertices)."""
    return 2.0 * (1.0 - math.cos(math.pi / (2 * d + 1)))


def bound_thm1(d: int) -> float:
    """Diameter bound for the Laplacian of a strongly convex subgraph."""
    if d < 1:
        raise ValueError("diameter must be >= 1")
    return mu_matched(d)


def is_hypercube(sub: ConvexSubgraph) -> bool:
    """Full Cayley graph of Z_2^n under n independent involutions."""
    if not sub.is_full:
        return False
    group = sub.group
    if group.order < 2:
        return False
    if not (group.inverse == np.arange(group.order)).all():
        return False
    return group.order == 1 << len(sub.gens)


def bound_thm2(sub: ConvexSubgraph) -> float:
    """Hypercube gap bound; the graph must structurally be a hypercube."""
    if not is_hypercube(sub):
        raise NotHypercube("graph is not a standard-generator hypercube")
    return 2.0


def bound_thm3(spec: Spectrum, which: int = 1):
    """2 C_{u0} (1 - cos(pi/(D+1))) from the ground-state-weighted constant
    of the spectrum's subgraph, under the spectrum's tolerances.

    Returns (value, RatioConstant). Raises BoundUnavailable when every
    extremal pair is skipped.
    """
    return _thm3(*_ratio_scan(spec, which), spec.tolerances)


def bound_thm4(spec: Spectrum, which: int = 1):
    """2 C_{u0} with the distance-<=2 restriction (hypercube-local bound)."""
    if not is_hypercube(_source(spec.operator)):
        raise NotHypercube("Theorem 4 requires a hypercube host")
    return _thm4(*_ratio_scan(spec, which), spec.tolerances)


def _ratio_scan(spec, which):
    """f = u_which / u0 and its modulus, shared by Theorems 3 and 4 (the
    modulus caches its extremal scan, the ratio its vertex sums)."""
    if which == 1:
        return _ground_ratio(spec), _ground_eta(spec)
    ratio = RatioFunction.from_spectrum(spec, which=which)
    return ratio, modulus_of_continuity(ratio.f, ratio.sub, spec.tolerances)


def _thm3(ratio, eta, tol):
    try:
        const = c_u0(ratio, extremal_pairs(eta), tol)
    except EmptyAfterSkips as exc:
        raise BoundUnavailable(str(exc)) from exc
    return const.value * mu_matched(eta.sub.diameter_S), const


def _thm4(ratio, eta, tol):
    try:
        const = c_u0(ratio, eta.achievers[min(2, eta.diameter)], tol)
    except EmptyAfterSkips as exc:
        raise BoundUnavailable(str(exc)) from exc
    return 2.0 * const.value, const


def bound_thm5(omega: ModulusOfConcavity, d: int,
               tol: ToleranceConfig = DEFAULT_TOL):
    """Log-concave path bound 4(2cosh(w) - 1)(1 - cos(pi/(2D+1))).

    Returns (value, weak_member) where the weak member drops the cosh
    factor. Requires a non-negative modulus.
    """
    if not omega.is_nonnegative(slack=tol.denominator_zero):
        raise HypothesisFailed(
            f"modulus of concavity dips to {np.nanmin(omega.values):.3e} < 0")
    weak = 2.0 * mu_unit(d)
    return (2.0 * math.cosh(omega.omega_bar) - 1.0) * weak, weak


def bound_thm6(omega: ModulusOfConcavity, d: int,
               tol: ToleranceConfig = DEFAULT_TOL):
    """Gradient-refined path bound using the backward cosh difference.

    Returns (value, eq1_value) where eq1_value = weak + 2(cosh(w)-1) is the
    convex-modulus form, or None when the modulus is not convex.
    """
    if not omega.is_nonnegative(slack=tol.denominator_zero):
        raise HypothesisFailed(
            f"modulus of concavity dips to {np.nanmin(omega.values):.3e} < 0")
    if not omega.defined.all():
        raise HypothesisFailed("some distance class admits no triple")
    weak = 2.0 * mu_unit(d)
    value = weak + 2.0 * float(_dcosh(omega, d).min())
    eq1 = None
    if omega.is_convex(slack=tol.denominator_zero):
        eq1 = weak + 2.0 * (math.cosh(omega.omega_bar) - 1.0)
    return value, eq1


@dataclass(frozen=True)
class TheoremRecord:
    theorem: str
    applicable: bool
    hypotheses: dict
    bound: Optional[float] = None
    slack: Optional[float] = None
    holds: Optional[bool] = None
    unavailable: Optional[str] = None
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class GapReport:
    n_vertices: int
    diameter: int
    degree: int
    lambda0: float
    lambda1: float
    gap: float
    records: tuple
    tolerances: dict
    certificate: dict

    def record(self, theorem: str) -> TheoremRecord:
        for r in self.records:
            if r.theorem == theorem:
                return r
        raise KeyError(theorem)

    def as_dict(self) -> dict:
        return {
            "graph": {"n_vertices": self.n_vertices, "diameter": self.diameter,
                      "degree": self.degree},
            "exact": {"lambda0": self.lambda0, "lambda1": self.lambda1,
                      "gap": self.gap},
            "theorems": [dict(vars(r)) for r in self.records],
            "tolerances": self.tolerances,
            "certificate": self.certificate,
        }


def is_path_graph(sub: ConvexSubgraph) -> bool:
    """Path: connected, tree with max internal degree 2, D = |S| - 1."""
    if sub.n_vertices < 2:
        return False
    degs = sub.degrees
    return bool(degs.max() <= 2 and sub.diameter_S == sub.n_vertices - 1)


def build_operator(sub: ConvexSubgraph, potential=None):
    """L for no potential, H = L + diag(W) otherwise."""
    if potential is None:
        return laplacian(sub)
    return dirichlet_hamiltonian(sub, potential)


def verify_all(spec: Spectrum) -> GapReport:
    """Evaluate every applicable bound against the exact gap.

    The instance is the spectrum's: its operator (L, or H = L + W) and the
    subgraph that operator was built on, checked under `spec.tolerances`.
    The certificate, which = 1 ratio scan and ground-state moduli are the
    ones kept on the spectrum. Per-bound failures (e.g. no usable extremal
    pair) are recorded, not raised.
    """
    op, tol = spec.operator, spec.tolerances
    sub = _source(op)
    if op.dim < 2:
        raise ValueError("gap verification needs at least two vertices")
    cert = _certificate(spec)
    gap = spec.gap
    tol_verify = tol.verify_factor * max(1.0, gap)
    d = sub.diameter_S
    k = sub.host.degree

    convexity = is_strongly_convex(sub)
    w = op.potential
    zero_w = w is None or (np.asarray(w) == 0).all()
    hypercube = is_hypercube(sub)
    path = is_path_graph(sub)

    def record(theorem, hyps, value=None, unavailable=None, detail=None):
        applicable = all(hyps.values())
        if not applicable or value is None:
            return TheoremRecord(theorem=theorem, applicable=applicable,
                                 hypotheses=hyps, unavailable=unavailable,
                                 detail=detail or {})
        slack = gap - value
        return TheoremRecord(theorem=theorem, applicable=True, hypotheses=hyps,
                             bound=value, slack=slack,
                             holds=bool(slack >= -tol_verify),
                             unavailable=unavailable, detail=detail or {})

    records = []

    # Theorem 1: diameter bound for the pure Laplacian on a convex subgraph
    hyps = {"strongly_convex": convexity.convex, "zero_potential": zero_w,
            "diameter_ge_1": d >= 1}
    detail = {}
    value = None
    if all(hyps.values()):
        value = bound_thm1(d)
        detail = {"normalized_laplacian_bound": value / k,
                  "neumann_reference": 1.0 / (8.0 * k * d * d)}
    records.append(record("thm1", hyps, value, detail=detail))

    # Theorem 2: hypercube tightness
    hyps = {"hypercube": hypercube, "zero_potential": zero_w}
    value = 2.0 if all(hyps.values()) else None
    detail = {"normalized_laplacian_bound": 2.0 / k} if value else {}
    records.append(record("thm2", hyps, value, detail=detail))

    # Theorems 3 and 4 scan every basis vector of a degenerate eigenspace;
    # the reported bound is the minimum (every member is a valid bound).
    # Both read one ratio scan per eigenvector; only which = 1 is kept.
    ratio_hyps = {
        "thm3": ({"strongly_convex": convexity.convex, "diameter_ge_1": d >= 1},
                 _thm3),
        "thm4": ({"hypercube": hypercube}, _thm4)}
    live = {name: evaluate for name, (hyps, evaluate) in ratio_hyps.items()
            if all(hyps.values())}
    outcomes = {name: [] for name in live}
    for which in spec.gap_indices if live else ():
        scan = _ratio_scan(spec, which)
        for name, evaluate in live.items():
            try:
                outcomes[name].append(evaluate(*scan, tol))
            except BoundUnavailable as exc:
                outcomes[name].append(exc)
    for name, (hyps, _) in ratio_hyps.items():
        records.append(_ratio_record(name, hyps, spec, outcomes.get(name)))

    # Theorems 5 and 6: path graphs with log-concave ground states
    hyps = {"path_graph": path, "diameter_ge_1": d >= 1}
    omega = None
    if all(hyps.values()):
        concave = _ground_concavity(spec)
        hyps["log_concave"] = concave.holds
        if concave.holds:
            omega = _ground_omega(spec)
            hyps["omega_nonnegative"] = omega.is_nonnegative(tol.denominator_zero)

    for name, fn, extra_key in (("thm5", bound_thm5, "weak_member"),
                                ("thm6", bound_thm6, "eq1_value")):
        h = dict(hyps)
        value = None
        detail = {}
        unavailable = None
        if all(h.values()) and omega is not None:
            try:
                value, extra = fn(omega, d, tol)
            except HypothesisFailed as exc:
                unavailable = str(exc)
            else:
                detail["omega_bar"] = omega.omega_bar
                detail["omega_convex"] = omega.is_convex(tol.denominator_zero)
                detail[extra_key] = extra
        records.append(record(name, h, value, unavailable=unavailable,
                              detail=detail))

    return GapReport(
        n_vertices=sub.n_vertices, diameter=d, degree=k,
        lambda0=spec.lambda0, lambda1=spec.lambda1, gap=gap,
        records=tuple(records), tolerances=tol.as_dict(),
        certificate={"recurrence_residual": cert.recurrence_residual,
                     "rayleigh_error": cert.rayleigh_error})


def _ratio_record(name, hyps, spec, outcomes):
    """Record from the per-eigenvector (value, RatioConstant) results, or the
    BoundUnavailable each raised; outcomes is None when hyps fail."""
    if outcomes is None:
        return TheoremRecord(theorem=name, applicable=False, hypotheses=hyps)
    values = []
    consts = []
    unavailable = None
    for outcome in outcomes:
        if isinstance(outcome, BoundUnavailable):
            unavailable = str(outcome)
            continue
        value, const = outcome
        values.append(value)
        consts.append(const)
    if not values:
        return TheoremRecord(theorem=name, applicable=True, hypotheses=hyps,
                             unavailable=unavailable or "no eigenvector evaluated")
    gap = spec.gap
    tol_verify = spec.tolerances.verify_factor * max(1.0, gap)
    value = min(values)
    worst_slack = gap - max(values)
    # the first eigenvector attaining the minimum up to tolerance, so rounding
    # cannot pick a different one among equal bounds
    best = consts[next(i for i, v in enumerate(values)
                       if v <= value + tol_verify)]
    detail = {
        "c_u0": [c.value for c in consts],
        "bounds_per_eigenvector": values,
        "pairs": int(best.pairs.shape[0]),
        "skipped_pairs": int(best.skipped.shape[0]),
    }
    return TheoremRecord(theorem=name, applicable=True, hypotheses=hyps,
                         bound=value, slack=gap - value,
                         holds=bool(worst_slack >= -tol_verify),
                         unavailable=unavailable, detail=detail)
