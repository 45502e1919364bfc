"""Heat-equation evolution and the decay certificates behind the gap proofs.

Solutions are evolved spectrally from a validated `Spectrum`, so they are
exact up to eigensolve accuracy. The tests check them against an explicit
Euler integrator whose stability limit comes from `gershgorin_max`, not
from the spectrum, so the two routes share no code path.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CertificateFailure, InsufficientSpan
from .graphs import ConvexSubgraph, _ro
from .moduli import (_NOT_POSITIVE, _difference_sums, _eta_block,
                     _ground_ratio, _lead_positive)
# TODO(next benchmark change): perfbench's
# test_every_binding_is_wrapped_and_restored reads heat.eigendecompose,
# which nothing here calls; drop it from this import with that read.
from .operators import (Spectrum, SymmetricOperator, _source, eigendecompose,
                        path_lattice_laplacian)


@dataclass(frozen=True, eq=False)
class HeatTrajectory:
    spectrum: Spectrum
    times: np.ndarray
    states: np.ndarray            # (len(times), dim)
    etas: Optional[np.ndarray]    # (len(times), D + 1) eta(s) rows, if graphed


def default_times(lambda1: float) -> np.ndarray:
    """0 followed by 63 log-spaced samples out to 10/lambda1."""
    horizon = 10.0 / lambda1
    grid = np.geomspace(horizon / 1000.0, horizon, 63)
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


def _offset_etas(traj: HeatTrajectory, sub: ConvexSubgraph):
    """The sample times t >= 2 dt, and eta(s), s = 0..D, of the trajectory's
    state at t + k dt for k = -2..2, (len(kept), 5, D + 1); dt is
    `_default_dt` of the trajectory's spectrum."""
    dt = _default_dt(traj.spectrum)
    kept, states = _offset_states(traj.spectrum, traj.states[0], traj.times, dt)
    etas = _eta_block(states.reshape(-1, sub.n_vertices), sub)
    return dt, kept, etas.reshape(len(kept), len(_OFFSETS),
                                  sub.diameter_S + 1)


def evolve(spec: Spectrum, phi0, times) -> HeatTrajectory:
    """Solve d(phi)/dt = -Op phi with phi(0) = phi0 on the sample grid, Op
    the spectrum's operator. On a graph, `etas` holds eta(s), s = 0..D, of
    each state."""
    op = spec.operator
    phi0 = np.asarray(phi0, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if (times < 0).any() or (np.diff(times) <= 0).any():
        raise ValueError("times must be non-negative and strictly increasing")
    if phi0.shape != (op.dim,):
        raise ValueError("initial state has wrong length")
    states = _spectral_states(spec, phi0, times)
    etas = None if op.source is None else _ro(_eta_block(states, op.source))
    return HeatTrajectory(spectrum=spec, times=times, states=states,
                          etas=etas)


@dataclass(frozen=True)
class DecayCertificate:
    fitted_rate: float
    mu: float
    decades: float
    ok: bool


def decay_rate_check(traj: HeatTrajectory, mu: float) -> DecayCertificate:
    """Fit the decay exponent of |eta|(t) and certify rate >= mu - margin.

    The trajectory must span at least three decades of decay; the fit is
    log-linear least squares on the l2 norm of the modulus table. The margin
    is that of the trajectory's spectrum.
    """
    if traj.etas is None:
        raise ValueError("trajectory has no modulus series (no graph source)")
    tol = traj.spectrum.tolerances
    norms = np.array([np.linalg.norm(row[1:]) for row in traj.etas])
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


def mocheat_inequality_check(traj: HeatTrajectory) -> InequalityCertificate:
    """Certify d(eta)/dt <= -L_P eta on the parity lattice at each sample.

    eta is the modulus over the trajectory operator's subgraph, whose
    diameter fixes the lattice; the margins are those of `_margins`.
    """
    sub = _source(traj.spectrum.operator)
    d = sub.diameter_S
    if d < 1:
        return InequalityCertificate(checked=0, worst_margin=0.0, ok=True)
    parity = "even" if d % 2 == 0 else "odd"
    lattice = path_lattice_laplacian(d, parity)
    coords = lattice.coords
    lp = lattice.entries
    pos = coords > 0

    dt, kept, etas = _offset_etas(traj, sub)
    # eta at every lattice point s = -D..D of every state: eta(|s|) with
    # the sign of s
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


def eta2_contraction_check(traj: HeatTrajectory) -> InequalityCertificate:
    """Hypercube-local certificate d(eta(2))/dt <= -2 eta(2) at each sample,
    eta over the trajectory operator's subgraph; see `_margins`."""
    sub = _source(traj.spectrum.operator)
    s2 = min(2, sub.diameter_S)

    dt, kept, etas = _offset_etas(traj, sub)
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


def ratio_evolution_check(spec: Spectrum, times) -> RatioCertificate:
    """Certify the ground-state-weighted evolution law of the ratio u1/u0.

    (i) along the trajectory, d(f)/dt matches the weighted difference sum to
    discretization accuracy; (ii) at t = 0, -gamma f(x) equals that sum
    exactly up to ``spec.tolerances.ratio_identity``. The operator is the
    spectrum's own, and the t = 0 ratio is the one kept on the spectrum.
    The evolved states are sampled at t and t +- dt, dt = `_default_dt`.
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

    dt = _default_dt(spec)
    times = np.asarray(times, dtype=np.float64)
    kept, ground = _offset_states(spec, spec.ground_state, times, dt,
                                  (-1, 0, 1))
    _, first = _offset_states(spec, spec.vector(1), times, dt, (-1, 0, 1))
    ground = _lead_positive(ground)
    # the samples before the first with a non-positive ground state are
    # checked, so a failure among them is still the first in time order
    bad = (ground.min(axis=2) <= 0).any(axis=1)
    stop = int(bad.argmax()) if bad.any() else len(kept)
    u0 = ground[:stop]
    f = first[:stop] / u0
    dfdt = (f[:, 2] - f[:, 0]) / (2 * dt)
    weighted = _difference_sums(sub, f[:, 1], u0[:, 1])
    fscale = np.abs(f[:, 1]).max(axis=1)
    tol_dt = (gamma ** 3) * fscale * dt * dt / 6.0 * 4.0 + 1e-10
    resid = np.abs(dfdt - weighted).max(axis=1)
    fail = np.flatnonzero(resid > tol_dt)
    if fail.size:
        k = fail[0]
        raise CertificateFailure(
            f"ratio evolution residual {resid[k]:.3e} > {tol_dt[k]:.3e} at "
            f"t={kept[k]:.6g}", witness=float(kept[k]))
    if stop < len(kept):
        raise ValueError(_NOT_POSITIVE)
    worst = float(np.fmax.reduce(resid, initial=0.0))
    return RatioCertificate(stationary_residual=stationary,
                            evolution_residual=worst, ok=True)
