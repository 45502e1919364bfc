"""Heat-equation evolution and the decay certificates behind the gap proofs.

Solutions are evolved spectrally from a validated `Spectrum`, so they are
exact up to eigensolve accuracy. The tests check them against an explicit
Euler integrator whose stability limit comes from `gershgorin_max`, not
from the spectrum, so the two routes share no code path.

The mocheat and eta(2) certificates read eta at five offsets around each
sample time. `_offset_eta_blocks` builds and scans those states in blocks
of sample times whose whole working set (the states, what the eta scan
reads them through and their eta rows) keeps to _SCAN_CELLS, and the
certificates stream their margins block by block: only the count, the
running worst and the first failure in time order outlive a block. A
state's eta and margins do not depend on its block, so the certificates
give the bits of one whole-array pass.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateFailure, InsufficientSpan
from .graphs import _SCAN_CELLS, _ro
from .moduli import (_NOT_POSITIVE, _difference_sums, _dilates, _eta_block,
                     _ground_ratio)
# TODO(next benchmark change): perfbench's
# test_every_binding_is_wrapped_and_restored reads heat.eigendecompose,
# which nothing here calls; drop it from this import with that read.
from .operators import (Spectrum, SymmetricOperator, _lead_positive,
                        eigendecompose, path_lattice_laplacian)


@dataclass(frozen=True, eq=False)
class HeatTrajectory:
    spectrum: Spectrum
    times: np.ndarray
    states: np.ndarray            # (len(times), dim)
    etas: np.ndarray              # (len(times), D + 1) eta(s) rows


def default_times(lambda1: float) -> np.ndarray:
    """0 followed by 63 log-spaced samples out to 10/lambda1."""
    horizon = 10.0 / lambda1
    grid = np.geomspace(horizon / 1000.0, horizon, 63)
    return np.concatenate([[0.0], grid])


def gershgorin_max(op: SymmetricOperator) -> float:
    """Upper bound on the largest eigenvalue, independent of any eigensolve."""
    a = op.entries
    return float((np.diag(a) + np.abs(a).sum(axis=1) - np.abs(np.diag(a))).max())


def spectral_state(spec: Spectrum, phi0: np.ndarray, times) -> np.ndarray:
    """phi(t) = sum_i <u_i, phi0> e^{-lambda_i t} u_i for each t in `times`,
    one row each.

    The coefficients U^T phi0 times e^{-lambda t} for every sample time are
    one (T, n) grid, built in place; exp and the products are elementwise,
    so each row has the bits of its own time. Each row is then U times its
    grid row, one matrix-vector product per time: matmul of U with a stack
    of vectors runs them in turn, while one U @ grid^T for all times rounds
    differently.
    """
    u = spec.eigenvectors
    grid = np.multiply.outer(times, spec.eigenvalues)
    np.negative(grid, out=grid)
    np.exp(grid, out=grid)
    grid *= u.T @ phi0
    return np.matmul(u, grid[:, :, None])[:, :, 0]


_OFFSETS = (-2, -1, 0, 1, 2)


def _default_dt(spec: Spectrum) -> float:
    lam_max = float(spec.eigenvalues[-1])
    return 1e-3 / lam_max if lam_max > 0 else 1e-3


def _offset_states(spec: Spectrum, phi0: np.ndarray, times, dt: float,
                   offsets=_OFFSETS):
    """The states from phi0 at t + k dt for each t in `times` and k in
    offsets, (len(times), len(offsets), dim)."""
    states = spectral_state(spec, phi0,
                            [t + k * dt for t in times for k in offsets])
    return states.reshape(len(times), len(offsets), spec.dim)


def _block_times(sub) -> int:
    """Sample times per block of the stencil on `sub`.

    A block's whole working set is charged to _SCAN_CELLS. A state takes
    2 m cells while it is built (beside `spectral_state`'s coefficient
    grid) and while `_stencil_etas` copies it vertex-major, after which it
    is freed. Then the copy, its eta row (D + 1 <= m cells) and what the
    eta scan adds are live: for ball dilation its ball, grown ball and
    neighbour rows, 3 (m + 1); for the pair scan nothing, as its two
    gather buffers are a pass of their own, of at most _SCAN_CELLS cells.
    """
    m, d = sub.n_vertices, sub.diameter_S
    cells = m + 3 * (m + 1) + d + 1 if _dilates(sub) else 2 * m
    return max(1, _SCAN_CELLS // (len(_OFFSETS) * cells))


def _stencil_etas(spec: Spectrum, phi0: np.ndarray, since, dt: float):
    """eta(s), s = 0..D, of phi0 evolved for t + k dt, for each t in
    `since` and k = -2..2, (len(since), 5, D + 1); eta is over the
    spectrum operator's subgraph."""
    sub = spec.operator.source
    states = _offset_states(spec, phi0, since, dt).reshape(-1, sub.n_vertices)
    # both eta scans read the transpose of a vertex-major block in place;
    # rebinding frees the time-major states once it exists
    states = np.ascontiguousarray(states.T).T
    return _eta_block(states, sub).reshape(len(since), len(_OFFSETS), -1)


def _offset_eta_blocks(traj: HeatTrajectory):
    """Per block of the sample times t >= 2 dt, in time order: those times
    and eta(s), s = 0..D, of the trajectory's state at t + k dt for
    k = -2..2, (len(times), 5, D + 1). dt is `_default_dt` of the
    trajectory's spectrum and eta is over its operator's subgraph. The
    state at t + k dt is the trajectory's first state evolved for
    t - times[0] + k dt.

    Each block holds `_block_times` sample times, and its states are freed
    before it is handed over; a state's eta does not depend on the block
    it is scanned in.
    """
    spec = traj.spectrum
    dt = _default_dt(spec)
    kept = [t for t in traj.times if t >= 2 * dt]
    step = _block_times(spec.operator.source)
    for lo in range(0, len(kept), step):
        times = kept[lo:lo + step]
        yield times, _stencil_etas(spec, traj.states[0],
                                   [t - traj.times[0] for t in times], dt)


def evolve(spec: Spectrum, phi0, times) -> HeatTrajectory:
    """Solve d(phi)/dt = -Op phi with phi(0) = phi0 on the sample grid, Op
    the spectrum's operator; `etas` holds eta(s), s = 0..D, of each state
    over the operator's subgraph."""
    op = spec.operator
    phi0 = np.asarray(phi0, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if (times < 0).any() or (np.diff(times) <= 0).any():
        raise ValueError("times must be non-negative and strictly increasing")
    if phi0.shape != (op.dim,):
        raise ValueError("initial state has wrong length")
    states = spectral_state(spec, phi0, times)
    return HeatTrajectory(spectrum=spec, times=times, states=states,
                          etas=_ro(_eta_block(states, op.source)))


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
    diameter fixes the lattice; the margins are those of `_margins`, at the
    lattice points s > 0. They stream over `_offset_eta_blocks`: each block
    gathers its lattice once, and only the count, the running worst
    (np.fmin, so a NaN margin is passed over as in one whole-array
    reduction) and the first failure in time order outlive it.
    """
    d = traj.spectrum.operator.source.diameter_S
    if d < 1:
        return InequalityCertificate(checked=0, worst_margin=0.0, ok=True)
    coords, lp = path_lattice_laplacian(d)
    # coords ascend from -D: s < 0 before `neg`, s > 0 from `pos` on
    neg, pos = np.searchsorted(coords, 0), np.searchsorted(coords, 0, "right")
    dt = _default_dt(traj.spectrum)
    checked, worst = 0, np.nan
    for times, etas in _offset_eta_blocks(traj):
        # eta at every lattice point s = -D..D of every state: eta(|s|),
        # negated for s < 0 (exact)
        lattice = etas.take(np.abs(coords), axis=2)
        del etas        # each block's arrays are freed before the next's
        np.negative(lattice[..., :neg], out=lattice[..., :neg])
        # matmul runs one L_P @ eta(t) per sample, rounding as the
        # per-sample product does; one GEMM over all samples would round
        # differently
        rhs = -np.matmul(lp, lattice[:, 2, :, None])[:, :, 0]
        margin = _margins(lattice[..., pos:], rhs[:, pos:], dt)
        del lattice, rhs
        bad = np.argwhere(margin < 0)
        if bad.size:
            k, i = bad[0]
            s = int(coords[pos + i])
            raise CertificateFailure(
                f"d(eta)/dt > -L_P eta at s={s}, t={times[k]:.6g} "
                f"(violation {-margin[k, i]:.3e})",
                witness=(s, float(times[k])))
        checked += margin.size
        worst = np.fmin.reduce(margin, axis=None, initial=worst)
    return InequalityCertificate(checked=checked,
                                 worst_margin=float(worst) if checked else 0.0,
                                 ok=True)


def eta2_contraction_check(traj: HeatTrajectory) -> InequalityCertificate:
    """Hypercube-local certificate d(eta(2))/dt <= -2 eta(2) at each sample,
    eta over the trajectory operator's subgraph; see `_margins`. The
    margins stream over `_offset_eta_blocks` as in
    `mocheat_inequality_check`."""
    s2 = min(2, traj.spectrum.operator.source.diameter_S)
    dt = _default_dt(traj.spectrum)
    checked, worst = 0, np.nan
    for times, etas in _offset_eta_blocks(traj):
        eta2 = etas[:, :, s2]
        margin = _margins(eta2, -2.0 * eta2[:, 2], dt)
        del etas, eta2
        bad = np.flatnonzero(margin < 0)
        if bad.size:
            t = times[bad[0]]
            raise CertificateFailure(
                f"d(eta(2))/dt > -2 eta(2) at t={t:.6g}", witness=float(t))
        checked += margin.size
        worst = np.fmin.reduce(margin, initial=worst)
    return InequalityCertificate(checked=checked,
                                 worst_margin=float(worst) if checked else 0.0,
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
    sub = spec.operator.source
    gamma = spec.gap
    ratio0 = _ground_ratio(spec)
    weighted0, _ = ratio0.vertex_sums()
    stationary = float(np.abs(-gamma * ratio0.f - weighted0).max())
    if stationary > spec.tolerances.ratio_identity:
        raise CertificateFailure(
            f"stationary ratio identity residual {stationary:.3e}",
            witness=int(np.argmax(np.abs(-gamma * ratio0.f - weighted0))))

    dt = _default_dt(spec)
    kept = [t for t in np.asarray(times, dtype=np.float64) if t >= dt]
    ground = _offset_states(spec, spec.ground_state, kept, dt, (-1, 0, 1))
    first = _offset_states(spec, spec.vector(1), kept, dt, (-1, 0, 1))
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
