"""Heat-equation evolution and the decay certificates behind the gap proofs.

The spectral method is exact up to eigensolve accuracy and is the default;
explicit Euler stepping exists purely as an independent cross-check (its
stability limit comes from a Gershgorin bound, not from the spectrum, so
the two routes share no code path).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import CertificateFailure, InsufficientSpan, UnstableStep
from .graphs import ConvexSubgraph
from .moduli import RatioFunction, _eta_block, _ground_ratio, _moduli
from .operators import (Spectrum, SymmetricOperator, _source, eigendecompose,
                        path_lattice_laplacian)


@dataclass(frozen=True, eq=False)
class HeatTrajectory:
    operator: SymmetricOperator
    times: np.ndarray
    states: np.ndarray            # (len(times), dim)
    method: str
    eta_series: Optional[list]    # ModulusOfContinuity per sample, if graphed
    spectrum: Optional[Spectrum]


def default_times(lambda1: float, samples: int = 64) -> np.ndarray:
    """0 followed by log-spaced samples out to 10/lambda1."""
    horizon = 10.0 / lambda1
    grid = np.geomspace(horizon / 1000.0, horizon, samples - 1)
    return np.concatenate([[0.0], grid])


def gershgorin_max(op: SymmetricOperator) -> float:
    """Upper bound on the largest eigenvalue, independent of any eigensolve."""
    a = op.entries
    return float((np.diag(a) + np.abs(a).sum(axis=1) - np.abs(np.diag(a))).max())


def spectral_state(spec: Spectrum, phi0: np.ndarray, t: float) -> np.ndarray:
    """phi(t) = sum_i <u_i, phi0> e^{-lambda_i t} u_i."""
    return _spectral_states(spec, phi0, [t])[0]


def _spectral_states(spec: Spectrum, phi0: np.ndarray, times) -> np.ndarray:
    """phi(t) for each t, one row each.

    The coefficients U^T phi0 are computed once, and coeff * e^{-lambda t}
    for every sample time as one (T, n) grid; exp and the products are
    elementwise, so each row has the bits of its own time. Each row is then
    U times its grid row, one matrix-vector product per time: matmul of U
    with a stack of vectors runs them in turn, while one U @ grid^T for all
    times rounds differently.
    """
    u = spec.eigenvectors
    coeff = u.T @ phi0
    grid = coeff * np.exp(-np.multiply.outer(times, spec.eigenvalues))
    return np.matmul(u, grid[:, :, None])[:, :, 0]


_OFFSETS = (-2, -1, 0, 1, 2)


def _default_dt(spec: Spectrum) -> float:
    lam_max = float(spec.eigenvalues[-1])
    return 1e-3 / lam_max if lam_max > 0 else 1e-3


def _offset_states(spec: Spectrum, phi0: np.ndarray, times, dt: float,
                   offsets=_OFFSETS):
    """The sample times t >= -min(offsets) dt, and the states at
    t + k dt for k in offsets, (len(kept), len(offsets), dim)."""
    kept = [t for t in times if t >= -min(offsets) * dt]
    states = _spectral_states(spec, phi0,
                              [t + k * dt for t in kept for k in offsets])
    return kept, states.reshape(len(kept), len(offsets), phi0.size)


def _offset_etas(traj: HeatTrajectory, sub: ConvexSubgraph, dt: float):
    """The sample times t >= 2 dt, and eta(s), s = 0..D, of the trajectory's
    state at t + k dt for k = -2..2, (len(kept), 5, D + 1)."""
    kept, states = _offset_states(traj.spectrum, traj.states[0], traj.times, dt)
    etas = _eta_block(states.reshape(-1, sub.n_vertices), sub)
    return kept, etas.reshape(len(kept), len(_OFFSETS), sub.diameter_S + 1)


def evolve(op: SymmetricOperator, phi0, times, method: str = "spectral",
           dt: Optional[float] = None,
           spectrum: Optional[Spectrum] = None,
           tol: ToleranceConfig = DEFAULT_TOL) -> HeatTrajectory:
    """Solve d(phi)/dt = -Op phi with phi(0) = phi0 on the sample grid.

    A given `spectrum` must be one of `op` (built from it, or from an
    operator with the same entries), else ValueError. The eta series of a
    spectral trajectory reads the tolerances of its spectrum; `tol` builds
    the spectrum when none is given, and sets those of an Euler one."""
    phi0 = np.asarray(phi0, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if (times < 0).any() or (np.diff(times) <= 0).any():
        raise ValueError("times must be non-negative and strictly increasing")
    if phi0.shape != (op.dim,):
        raise ValueError("initial state has wrong length")
    if spectrum is not None and spectrum.operator is not op and \
            not np.array_equal(spectrum.operator.entries, op.entries):
        raise ValueError("spectrum was built from another operator")

    if method == "spectral":
        spec = spectrum if spectrum is not None else eigendecompose(op, tol)
        states = _spectral_states(spec, phi0, times)
    elif method == "euler":
        lam_max = gershgorin_max(op)
        limit = 1.0 / lam_max if lam_max > 0 else math.inf
        if dt is None:
            dt = 0.5 * limit if math.isfinite(limit) else 1e-2
        if dt >= limit:
            raise UnstableStep(
                f"dt = {dt:g} >= 1/lambda_max bound {limit:g}")
        spec = None
        states = [phi0.copy()]
        cur = phi0.copy()
        t_prev = 0.0
        a = op.entries
        for t in times:
            span = t - t_prev
            if span > 0:
                steps = max(1, int(math.ceil(span / dt)))
                h = span / steps
                for _ in range(steps):
                    cur = cur - h * (a @ cur)
            t_prev = t
            states.append(cur.copy())
        states = np.stack(states[1:])
    else:
        raise ValueError(f"unknown method {method!r}")

    eta_series = None
    if op.source is not None:
        eta_series = _moduli(states, op.source,
                             tol if spec is None else spec.tolerances)
    return HeatTrajectory(operator=op, times=times, states=states,
                          method=method, eta_series=eta_series, spectrum=spec)


@dataclass(frozen=True)
class DecayCertificate:
    fitted_rate: float
    mu: float
    decades: float
    ok: bool


def decay_rate_check(traj: HeatTrajectory, mu: float,
                     tol: ToleranceConfig = DEFAULT_TOL) -> DecayCertificate:
    """Fit the decay exponent of |eta|(t) and certify rate >= mu - margin.

    The trajectory must span at least three decades of decay; the fit is
    log-linear least squares on the l2 norm of the modulus table. The margin
    is that of the trajectory's spectrum; `tol` gives it for an Euler one.
    """
    if traj.eta_series is None:
        raise ValueError("trajectory has no modulus series (no graph source)")
    if traj.spectrum is not None:
        tol = traj.spectrum.tolerances
    norms = np.array([np.linalg.norm(e.values[1:]) for e in traj.eta_series])
    keep = norms > 0
    if keep.sum() < 3:
        raise InsufficientSpan("fewer than 3 samples with nonzero modulus")
    t = traj.times[keep]
    n = norms[keep]
    decades = math.log10(n.max() / n.min()) if n.min() > 0 else math.inf
    if decades < 3.0:
        raise InsufficientSpan(
            f"modulus decays over {decades:.2f} decades; need >= 3")
    slope, _ = np.polyfit(t, np.log(n), 1)
    rate = -float(slope)
    ok = rate >= mu - tol.decay_margin
    if not ok:
        raise CertificateFailure(
            f"fitted decay rate {rate:.9g} < mu - margin = "
            f"{mu - tol.decay_margin:.9g}", witness=rate)
    return DecayCertificate(fitted_rate=rate, mu=mu, decades=decades, ok=True)


@dataclass(frozen=True)
class InequalityCertificate:
    checked: int
    worst_margin: float
    ok: bool


def _margins(etas, rhs, dt: float) -> np.ndarray:
    """rhs + tolerance - d(eta)/dt for every sample at once.

    `etas` holds eta at the offsets _OFFSETS along axis 1. The time
    derivative is the centered difference over offsets -1 and 1, and its
    tolerance a third-difference estimate of the centered scheme's Taylor
    remainder, so a certificate on the margins is exact up to
    discretization.
    """
    em2, em1, _, ep1, ep2 = np.moveaxis(etas, 1, 0)
    deta = (ep1 - em1) / (2 * dt)
    third = (ep2 - 2 * ep1 + 2 * em1 - em2) / (2 * dt ** 3)
    tol_dt = np.abs(third) * dt * dt / 6.0 * 4.0 + 1e-12
    return rhs + tol_dt - deta


def mocheat_inequality_check(traj: HeatTrajectory,
                             dt: Optional[float] = None) -> InequalityCertificate:
    """Certify d(eta)/dt <= -L_P eta on the parity lattice at each sample.

    eta is the modulus over the trajectory operator's subgraph, whose
    diameter fixes the lattice; the margins are those of `_margins`.
    """
    sub = _source(traj.operator)
    if traj.spectrum is None:
        raise ValueError("certificate needs a spectral trajectory")
    spec = traj.spectrum
    d = sub.diameter_S
    if d < 1:
        return InequalityCertificate(checked=0, worst_margin=0.0, ok=True)
    parity = "even" if d % 2 == 0 else "odd"
    lattice = path_lattice_laplacian(d, parity)
    coords = lattice.coords
    lp = lattice.entries
    pos = coords > 0
    if dt is None:
        dt = _default_dt(spec)

    kept, etas = _offset_etas(traj, sub, dt)
    # eta.table()[coords + D] for every state: eta(|s|) with the sign of s
    lattice_etas = np.where(coords < 0, -etas[..., np.abs(coords)],
                            etas[..., np.abs(coords)])
    # matmul runs one L_P @ eta(t) per sample, rounding as the per-sample
    # product does; one GEMM over all samples would round differently
    rhs = -np.matmul(lp, lattice_etas[:, 2, :, None])[:, :, 0]
    margin = _margins(lattice_etas, rhs, dt)[:, pos]
    bad = np.argwhere(margin < 0)
    if bad.size:
        k, i = bad[0]
        s = int(coords[pos][i])
        raise CertificateFailure(
            f"d(eta)/dt > -L_P eta at s={s}, t={kept[k]:.6g} "
            f"(violation {-margin[k, i]:.3e})", witness=(s, float(kept[k])))
    worst = float(np.fmin.reduce(margin, axis=None)) if margin.size else 0.0
    return InequalityCertificate(checked=margin.size, worst_margin=worst,
                                 ok=True)


def eta2_contraction_check(traj: HeatTrajectory,
                           dt: Optional[float] = None) -> InequalityCertificate:
    """Hypercube-local certificate d(eta(2))/dt <= -2 eta(2) at each sample,
    eta over the trajectory operator's subgraph; see `_margins`."""
    sub = _source(traj.operator)
    if traj.spectrum is None:
        raise ValueError("certificate needs a spectral trajectory")
    s2 = min(2, sub.diameter_S)
    if dt is None:
        dt = _default_dt(traj.spectrum)

    kept, etas = _offset_etas(traj, sub, dt)
    eta2 = etas[:, :, s2]
    margin = _margins(eta2, -2.0 * eta2[:, 2], dt)
    bad = np.flatnonzero(margin < 0)
    if bad.size:
        t = kept[bad[0]]
        raise CertificateFailure(
            f"d(eta(2))/dt > -2 eta(2) at t={t:.6g}", witness=float(t))
    worst = float(np.fmin.reduce(margin)) if margin.size else 0.0
    return InequalityCertificate(checked=margin.size, worst_margin=worst,
                                 ok=True)


@dataclass(frozen=True)
class RatioCertificate:
    stationary_residual: float
    evolution_residual: float
    ok: bool


def ratio_evolution_check(spec: Spectrum, times,
                          dt: Optional[float] = None) -> RatioCertificate:
    """Certify the ground-state-weighted evolution law of the ratio u1/u0.

    (i) along the trajectory, d(f)/dt matches the weighted difference sum to
    discretization accuracy; (ii) at t = 0, -gamma f(x) equals that sum
    exactly up to ``spec.tolerances.ratio_identity``. The operator is the
    spectrum's own, and the t = 0 ratio is the one kept on the spectrum.
    """
    sub = _source(spec.operator)
    gamma = spec.gap
    ratio0 = _ground_ratio(spec)
    weighted0, _ = ratio0.vertex_sums()
    stationary = float(np.abs(-gamma * ratio0.f - weighted0).max())
    if stationary > spec.tolerances.ratio_identity:
        raise CertificateFailure(
            f"stationary ratio identity residual {stationary:.3e}",
            witness=int(np.argmax(np.abs(-gamma * ratio0.f - weighted0))))

    u0, u1 = spec.ground_state, spec.vector(1)
    if dt is None:
        dt = _default_dt(spec)

    worst = 0.0
    times = np.asarray(times, dtype=np.float64)
    kept, ground = _offset_states(spec, u0, times, dt, (-1, 0, 1))
    _, first = _offset_states(spec, u1, times, dt, (-1, 0, 1))
    for t, a, b in zip(kept, ground, first):
        rm, r0, rp = (RatioFunction.from_vectors(a[j], b[j], sub)
                      for j in range(3))
        dfdt = (rp.f - rm.f) / (2 * dt)
        weighted, _ = r0.vertex_sums()
        fscale = float(np.abs(r0.f).max())
        tol_dt = (gamma ** 3) * fscale * dt * dt / 6.0 * 4.0 + 1e-10
        resid = float(np.abs(dfdt - weighted).max())
        worst = max(worst, resid)
        if resid > tol_dt:
            raise CertificateFailure(
                f"ratio evolution residual {resid:.3e} > {tol_dt:.3e} at "
                f"t={t:.6g}", witness=float(t))
    return RatioCertificate(stationary_residual=stationary,
                            evolution_residual=worst, ok=True)
