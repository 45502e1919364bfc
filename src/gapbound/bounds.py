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
from .errors import BoundUnavailable, HypothesisFailed, NotHypercube
from .graphs import ConvexSubgraph, is_strongly_convex
from .moduli import (ModulusOfConcavity, _dcosh, _eigenspace_scans,
                     _ground_concavity, _ground_omega, c_u0, extremal_pairs)
# TODO(next benchmark change): perfbench's
# test_every_binding_is_wrapped_and_restored reads bounds.eigendecompose,
# which nothing here calls; drop it from this import with that read.
from .operators import (Spectrum, _certificate, dirichlet_hamiltonian,
                        eigendecompose, laplacian)


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
    return sub.is_full and sub.host.is_hypercube


def bound_thm2(sub: ConvexSubgraph) -> float:
    """Hypercube gap bound; the graph must structurally be a hypercube."""
    if not is_hypercube(sub):
        raise NotHypercube("graph is not a standard-generator hypercube")
    return 2.0


def bound_thm3(spec: Spectrum, which: int = 1):
    """2 C_{u0} (1 - cos(pi/(D+1))) from the ground-state-weighted constant
    of the spectrum's subgraph, under the spectrum's tolerances.

    Returns (value, RatioConstant). Raises EmptyAfterSkips, a
    BoundUnavailable, when every extremal pair is skipped.
    """
    return _thm3(*_ratio_scan(spec, which), spec.tolerances)


def bound_thm4(spec: Spectrum, which: int = 1):
    """2 C_{u0} with the distance-<=2 restriction (hypercube-local bound)."""
    if not is_hypercube(spec.operator.source):
        raise NotHypercube("Theorem 4 requires a hypercube host")
    return _thm4(*_ratio_scan(spec, which), spec.tolerances)


def _ratio_scan(spec, which):
    """f = u_which / u0 and its modulus, shared by Theorems 3 and 4: row
    which - 1 of the lambda1 eigenspace block kept on the spectrum (the
    modulus keeps its extremal scan; the ratio carries its vertex sums).
    The theorems cover the lambda1 eigenvectors only, so a `which` outside
    gap_indices raises ValueError."""
    if which not in spec.gap_indices:
        raise ValueError(f"eigenvector {which} is outside the lambda1 "
                         f"eigenspace {list(spec.gap_indices)}")
    return _eigenspace_scans(spec)[which - 1]


def _thm3(ratio, eta, tol):
    const = c_u0(ratio, extremal_pairs(eta), tol)
    return const.value * mu_matched(eta.sub.diameter_S), const


def _thm4(ratio, eta, tol):
    const = c_u0(ratio, eta.achievers[min(2, eta.diameter)], tol)
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
    The certificate, lambda1 eigenspace scans and ground-state moduli are the
    ones kept on the spectrum. Per-bound failures (e.g. no usable extremal
    pair) are recorded, not raised.
    """
    op, tol = spec.operator, spec.tolerances
    sub = op.source
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

    def record(theorem, hyps, values, detail, unavailable=None):
        """A theorem's record from its bound values, one per eigenvector for
        Theorems 3-4 and none when unavailable: the bound is the least, and
        it holds when the greatest is within tolerance of the gap."""
        if not values:
            return TheoremRecord(theorem=theorem,
                                 applicable=all(hyps.values()),
                                 hypotheses=hyps, unavailable=unavailable,
                                 detail=detail)
        bound = min(values)
        return TheoremRecord(theorem=theorem, applicable=True, hypotheses=hyps,
                             bound=bound, slack=gap - bound,
                             holds=bool(gap - max(values) >= -tol_verify),
                             unavailable=unavailable, detail=detail)

    records = []

    # Theorem 1: diameter bound for the pure Laplacian on a convex subgraph
    hyps = {"strongly_convex": convexity.convex, "zero_potential": zero_w,
            "diameter_ge_1": d >= 1}
    values, detail = [], {}
    if all(hyps.values()):
        values = [bound_thm1(d)]
        detail = {"normalized_laplacian_bound": values[0] / k,
                  "neumann_reference": 1.0 / (8.0 * k * d * d)}
    records.append(record("thm1", hyps, values, detail))

    # Theorem 2: hypercube tightness
    hyps = {"hypercube": hypercube, "zero_potential": zero_w}
    values, detail = [], {}
    if all(hyps.values()):
        values = [bound_thm2(sub)]
        detail = {"normalized_laplacian_bound": values[0] / k}
    records.append(record("thm2", hyps, values, detail))

    # Theorems 3 and 4 scan every basis vector of a degenerate eigenspace;
    # the reported bound is the minimum (every member is a valid bound).
    for name, hyps, bound in (
            ("thm3", {"strongly_convex": convexity.convex,
                      "diameter_ge_1": d >= 1}, bound_thm3),
            ("thm4", {"hypercube": hypercube}, bound_thm4)):
        values, consts, unavailable, detail = [], [], None, {}
        for which in spec.gap_indices if all(hyps.values()) else ():
            try:
                value, const = bound(spec, which)
            except BoundUnavailable as exc:
                unavailable = str(exc)
            else:
                values.append(value)
                consts.append(const)
        if values:
            # the first eigenvector attaining the minimum up to tolerance, so
            # rounding cannot pick a different one among equal bounds; the
            # margin is never negative, so the minimum itself qualifies
            low = min(values) + tol_verify
            best = consts[next(i for i, v in enumerate(values) if v <= low)]
            detail = {"c_u0": [c.value for c in consts],
                      "bounds_per_eigenvector": values,
                      "pairs": int(best.pairs.shape[0]),
                      "skipped_pairs": int(best.skipped.shape[0])}
        records.append(record(name, hyps, values, detail, unavailable))

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
        values, detail, unavailable = [], {}, None
        if all(h.values()) and omega is not None:
            try:
                value, extra = fn(omega, d, tol)
            except HypothesisFailed as exc:
                unavailable = str(exc)
            else:
                values = [value]
                detail["omega_bar"] = omega.omega_bar
                detail["omega_convex"] = omega.is_convex(tol.denominator_zero)
                detail[extra_key] = extra
        records.append(record(name, h, values, detail, unavailable))

    return GapReport(
        n_vertices=sub.n_vertices, diameter=d, degree=k,
        lambda0=spec.lambda0, lambda1=spec.lambda1, gap=gap,
        records=tuple(records), tolerances=tol.as_dict(),
        certificate={"recurrence_residual": cert.recurrence_residual,
                     "rayleigh_error": cert.rayleigh_error})
