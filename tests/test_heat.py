import dataclasses
import inspect
import math

import numpy as np
import pytest

from gapbound.bounds import bound_thm1, mu_matched, mu_unit
from gapbound.config import DEFAULT_TOL
import gapbound.errors
from gapbound import heat
from gapbound.errors import CertificateFailure, InsufficientSpan
from gapbound.families import (cycle_instance, hypercube_instance,
                               path_instance, quadratic_potential,
                               subcube_instance)
from gapbound.heat import (HeatTrajectory, decay_rate_check, default_times,
                           eta2_contraction_check, evolve, gershgorin_max,
                           mocheat_inequality_check, ratio_evolution_check)
from gapbound.moduli import (RatioFunction, modulus_of_concavity,
                             modulus_of_continuity)
from gapbound.operators import (dirichlet_hamiltonian, eigendecompose,
                                laplacian, path_lattice_laplacian)

from conftest import euler_states, traced_peak


def test_eigenvector_decays_exponentially():
    sub = path_instance(4)
    lap = laplacian(sub)
    spec = eigendecompose(lap)
    times = np.array([0.0, 0.3, 1.0, 2.5])
    traj = evolve(spec, spec.vector(1), times)
    for j, t in enumerate(times):
        expected = spec.vector(1) * math.exp(-spec.lambda1 * t)
        assert np.abs(traj.states[j] - expected).max() <= 1e-12


def test_constant_state_is_stationary():
    sub = cycle_instance(5)
    lap = laplacian(sub)
    times = np.array([0.0, 1.0, 4.0])
    traj = evolve(eigendecompose(lap), np.ones(5), times)
    assert np.abs(traj.states - 1.0).max() <= 1e-10


def test_reproduces_initial_state():
    sub = path_instance(6)
    lap = laplacian(sub)
    phi0 = np.sin(np.arange(6.0))
    traj = evolve(eigendecompose(lap), phi0, np.array([0.0, 0.1]))
    assert np.abs(traj.states[0] - phi0).max() <= 1e-10


def test_mass_conservation_for_laplacian(rng):
    sub = cycle_instance(7)
    lap = laplacian(sub)
    phi0 = rng.normal(size=7)
    traj = evolve(eigendecompose(lap), phi0, np.array([0.0, 0.5, 2.0, 5.0]))
    sums = traj.states.sum(axis=1)
    assert np.abs(sums - phi0.sum()).max() <= 1e-9


def test_semigroup_property(rng):
    sub = path_instance(5)
    lap = laplacian(sub)
    spec = eigendecompose(lap)
    phi0 = rng.normal(size=5)
    t, s = 0.7, 1.1
    one = evolve(spec, phi0, np.array([t + s])).states[-1]
    half = evolve(spec, phi0, np.array([t])).states[-1]
    two = evolve(spec, half, np.array([s])).states[-1]
    assert np.abs(one - two).max() <= 1e-9


def test_spectral_vs_euler_cross_check(rng):
    sub = path_instance(5)
    w = rng.uniform(0, 2, size=5)
    ham = dirichlet_hamiltonian(sub, w)
    lam = gershgorin_max(ham)
    times = np.array([0.1, 0.25, 0.5]) / lam
    phi0 = rng.normal(size=5)
    spectral = evolve(eigendecompose(ham), phi0, times)
    euler = euler_states(ham, phi0, times, dt=times[-1] / 200000)
    assert np.abs(spectral.states - euler).max() <= 1e-6


def test_eta_series_monotone_for_eigenvector():
    sub = path_instance(5)
    lap = laplacian(sub)
    spec = eigendecompose(lap)
    traj = evolve(spec, spec.vector(1), default_times(spec.lambda1))
    tops = traj.etas[:, -1]
    assert all(b <= a + 1e-12 for a, b in zip(tops, tops[1:]))


def test_decay_rate_three_path():
    sub = path_instance(3)
    lap = laplacian(sub)
    spec = eigendecompose(lap)
    traj = evolve(spec, spec.vector(1), default_times(spec.lambda1))
    cert = decay_rate_check(traj, mu=bound_thm1(2))
    assert cert.fitted_rate >= 1.0 - 1e-6
    assert abs(cert.fitted_rate - 1.0) <= 1e-6


def test_decay_rate_hypercube():
    sub = hypercube_instance(2)
    lap = laplacian(sub)
    spec = eigendecompose(lap)
    traj = evolve(spec, spec.vector(1), default_times(spec.gap))
    cert = decay_rate_check(traj, mu=2.0)
    assert cert.fitted_rate >= 2.0 - 1e-6


def test_decay_rate_cycle_oracle():
    sub = cycle_instance(6)
    lap = laplacian(sub)
    spec = eigendecompose(lap)
    # cycle spectrum oracle: lambda_1 = 2(1 - cos(2 pi / 6)) = 1
    assert abs(spec.lambda1 - 1.0) <= 1e-10
    traj = evolve(spec, spec.vector(1), default_times(spec.lambda1))
    mu = 2 * (1 - math.cos(math.pi / 4))  # D = 3 bound
    cert = decay_rate_check(traj, mu=mu)
    assert cert.fitted_rate >= mu - 1e-6


def test_insufficient_span():
    sub = path_instance(3)
    lap = laplacian(sub)
    spec = eigendecompose(lap)
    times = np.array([0.0, 0.01, 0.02]) / spec.lambda1
    traj = evolve(spec, spec.vector(1), times)
    with pytest.raises(InsufficientSpan):
        decay_rate_check(traj, mu=1.0)


def test_decay_margin_fails_at_its_default_and_passes_at_1000x():
    # path(5) from phi0 = u1 checked against mu = fitted rate + 1e-5: the
    # rate falls short by 1e-5, between the default margin and 1000 times it
    lap = laplacian(path_instance(5))

    def check(margin):
        spec = eigendecompose(lap, DEFAULT_TOL.with_overrides(
            decay_margin=margin))
        traj = evolve(spec, spec.vector(1), default_times(spec.gap))
        rate = decay_rate_check(traj, mu=0.0).fitted_rate
        return decay_rate_check(traj, mu=rate + 1e-5)
    with pytest.raises(CertificateFailure, match="mu - margin"):
        check(DEFAULT_TOL.decay_margin)
    check(DEFAULT_TOL.decay_margin * 1000)


def test_mocheat_constant_initial_state():
    sub = path_instance(5)
    lap = laplacian(sub)
    traj = evolve(eigendecompose(lap), np.ones(5), np.array([0.0, 0.5, 1.0]))
    cert = mocheat_inequality_check(traj)
    assert cert.ok


def test_mocheat_five_path():
    sub = path_instance(5)
    lap = laplacian(sub)
    spec = eigendecompose(lap)
    traj = evolve(spec, spec.vector(1), default_times(spec.lambda1))
    cert = mocheat_inequality_check(traj)
    assert cert.ok and cert.checked > 0


@pytest.mark.parametrize("n,slow,extra,s,t,message", [
    # every eigenvalue halved: eta decays too slowly from the first sample
    (5, slice(None), None, 2, 0.02618033988749893,
     "d(eta)/dt > -L_P eta at s=2, t=0.0261803 (violation 1.413e-01)"),
    # lambda7 halved and u7 mixed in: s=2 holds, the first violation is s=4
    (9, 7, 7, 4, 1.6790017993103288,
     "d(eta)/dt > -L_P eta at s=4, t=1.679 (violation 1.112e-02)"),
])
def test_mocheat_failure_witness(n, slow, extra, s, t, message):
    sub = path_instance(n)
    lap = laplacian(sub)
    spec = eigendecompose(lap)
    w = spec.eigenvalues.copy()
    w[slow] *= 0.5
    phi0 = spec.vector(1) if extra is None \
        else spec.vector(1) + spec.vector(extra)
    traj = evolve(dataclasses.replace(spec, eigenvalues=w),
                  phi0, default_times(spec.gap))
    with pytest.raises(CertificateFailure) as exc:
        mocheat_inequality_check(traj)
    assert str(exc.value) == message
    assert exc.value.witness[0] == s
    assert exc.value.witness[1] in traj.times
    assert exc.value.witness[1] == pytest.approx(t, rel=1e-12)


def test_eta2_contraction_q3():
    sub = hypercube_instance(3)
    lap = laplacian(sub)
    spec = eigendecompose(lap)
    traj = evolve(spec, spec.vector(1), default_times(spec.gap))
    cert = eta2_contraction_check(traj)
    assert cert.ok and cert.checked > 0


def test_pathop_inequality_at_t0(rng):
    # -gamma eta(s) <= -2 L_P eta(s) - 4 (cosh(omega(s)) - 1) grad eta(s)
    # on log-concave path instances, unit lattice over [-D, D]
    for _ in range(8):
        n = int(rng.integers(2, 9))
        sub = path_instance(n)
        w = quadratic_potential(sub, float(rng.uniform(0.1, 1.0)),
                                float(rng.uniform(0, n - 1)))
        spec = eigendecompose(dirichlet_hamiltonian(sub, w))
        ratio = RatioFunction.from_spectrum(spec)
        eta = modulus_of_continuity(ratio.f, sub)
        omega = modulus_of_concavity(np.log(spec.vector(0) *
                                            np.sign(spec.vector(0)[0])), sub)
        if not omega.is_nonnegative(1e-12):
            continue
        d = sub.diameter_S
        gamma = spec.gap
        for s in range(1, d + 1):
            lp_eta = (2 * eta.at(s) - eta.at(s - 1) - eta.at(s + 1))
            grad = eta.at(s) - eta.at(s - 1)
            lhs = -gamma * eta.at(s)
            rhs = -2 * lp_eta - 4 * (math.cosh(omega.at(s)) - 1) * grad
            assert lhs <= rhs + 1e-10


def test_ratio_evolution_zero_potential():
    sub = path_instance(4)
    lap = laplacian(sub)
    ham = dirichlet_hamiltonian(sub, np.zeros(4))
    spec = eigendecompose(ham)
    cert = ratio_evolution_check(spec, default_times(spec.gap)[1:6])
    assert cert.ok
    assert cert.stationary_residual <= 1e-8


def test_ratio_evolution_single_edge_closed_form():
    sub = path_instance(2)
    ham = dirichlet_hamiltonian(sub, np.array([0.0, 1.0]))
    spec = eigendecompose(ham)
    # closed form: gamma = sqrt(5)
    assert abs(spec.gap - math.sqrt(5.0)) <= 1e-12
    cert = ratio_evolution_check(spec, np.array([0.05, 0.2, 0.6]))
    assert cert.ok


def test_ratio_evolution_random_paths(rng):
    for _ in range(5):
        n = int(rng.integers(3, 7))
        sub = path_instance(n)
        ham = dirichlet_hamiltonian(sub, rng.uniform(0, 4, size=n))
        spec = eigendecompose(ham)
        cert = ratio_evolution_check(spec, np.array([0.1, 0.4]))
        assert cert.ok
        assert cert.stationary_residual <= 1e-8


# -- per-state references ------------------------------------------------------
# The functions below are the per-state routes that the block code replaced:
# one coefficient vector, one matvec and one modulus per state. The block
# results must equal them exactly.

def ref_state(spec, phi0, t):
    coeff = spec.eigenvectors.T @ phi0
    return spec.eigenvectors @ (coeff * np.exp(-spec.eigenvalues * t))


def ref_default_dt(spec):
    lam_max = float(spec.eigenvalues[-1])
    return 1e-3 / lam_max if lam_max > 0 else 1e-3


def eta_table(eta):
    """eta over [-D, D] as a vector (index i -> s = i - D)."""
    pos = eta.values[1:]
    return np.concatenate([-pos[::-1], [0.0], pos])


def path_laplacian(coords, step):
    """degree - adjacency of the points `coords`, joined at distance `step`."""
    adj = (np.abs(np.subtract.outer(coords, coords)) == step).astype(float)
    return np.diag(adj.sum(axis=1)) - adj


def ref_lattice(d):
    """(coords, L_P) from the definition: the points s in [-D, D] with the
    parity of D, joined at distance 2."""
    coords = np.array([s for s in range(-d, d + 1) if (s - d) % 2 == 0])
    return coords, path_laplacian(coords, 2)


@pytest.mark.parametrize("d", range(1, 13))
def test_path_lattice_is_the_matched_lattice(d):
    coords, lp = path_lattice_laplacian(d)
    want_coords, want = ref_lattice(d)
    assert np.array_equal(coords, want_coords)
    assert np.array_equal(lp, want)
    assert not coords.flags.writeable and not lp.flags.writeable
    assert abs(np.linalg.eigvalsh(lp)[1] - mu_matched(d)) <= 1e-12


@pytest.mark.parametrize("d", range(1, 41))
def test_stencil_is_the_dense_lattice_product(d, rng):
    # random non-decreasing eta rows with eta(0) = 0 against L_P @ eta on
    # the whole lattice (eta(-s) = -eta(s)) at the points s > 0: two
    # additions in two orders, so within 2 eps (2|eta(s)| + |eta(s - 2)| +
    # |eta(s + 2)|)
    eta = np.zeros((6, d + 1))
    eta[:, 1:] = np.cumsum(rng.exponential(size=(6, d)), axis=1)
    coords, lp = path_lattice_laplacian(d)
    lattice = np.sign(coords) * eta[:, np.abs(coords)]
    pos = coords > 0
    want = -(lp @ lattice.T).T[:, pos]
    got = heat._minus_lp(eta)
    s = coords[pos]
    above = np.where(s < d, eta[:, np.minimum(s + 2, d)], 0.0)
    bound = 2 * np.finfo(float).eps * (2 * eta[:, s] + eta[:, abs(s - 2)]
                                       + above)
    assert np.all(np.abs(got - want) <= bound)
    if d == 1:          # the end row alone, with eta(-1) = -eta(1)
        assert np.array_equal(got[:, 0], -2 * eta[:, 1])
    if d == 2:          # the end row alone, with eta(0) = 0
        assert np.array_equal(got[:, 0], eta[:, 0] - eta[:, 2])


@pytest.mark.parametrize("d", range(1, 9))
def test_mu_unit_is_the_unit_step_path_gap(d):
    # Theorems 5-6 compare against the (2D + 1)-point unit-step path
    lp = path_laplacian(np.arange(-d, d + 1), 1)
    assert abs(np.linalg.eigvalsh(lp)[1] - mu_unit(d)) <= 1e-12


def ref_minus_lp(coords, eta):
    """-L_P eta at each lattice point from the definition of L_P: the
    values at the point's neighbours (s - 2, then s + 2, where they are
    on the lattice) summed, less its degree times eta(s)."""
    at = dict(zip(coords.tolist(), eta.tolist()))
    out = []
    for s in coords.tolist():
        nbrs = [at[r] for r in (s - 2, s + 2) if r in at]
        total = nbrs[0]
        for value in nbrs[1:]:
            total += value
        out.append(total - len(nbrs) * at[s])
    return np.array(out)


def ref_mocheat(traj, sub, tol=DEFAULT_TOL):
    """(checked, worst_margin) of the per-state loop; raises like the check."""
    spec = traj.spectrum
    d = sub.diameter_S
    coords, _ = ref_lattice(d)
    slot, pos = coords + d, coords > 0
    phi0, start = traj.states[0], traj.times[0]
    dt = ref_default_dt(spec)
    checked, worst = 0, math.inf
    for t in traj.times:
        if t < 2 * dt:
            continue
        em2, em1, e0, ep1, ep2 = [
            eta_table(modulus_of_continuity(
                ref_state(spec, phi0, t - start + k * dt), sub, tol))[slot]
            for k in (-2, -1, 0, 1, 2)]
        deta = (ep1 - em1) / (2 * dt)
        third = (ep2 - 2 * ep1 + 2 * em1 - em2) / (2 * dt ** 3)
        tol_dt = np.abs(third) * dt * dt / 6.0 * 4.0 + 1e-12
        margin = (ref_minus_lp(coords, e0) + tol_dt - deta)[pos]
        bad = np.flatnonzero(margin < 0)
        if bad.size:
            i = bad[0]
            s = int(coords[pos][i])
            raise CertificateFailure(
                f"d(eta)/dt > -L_P eta at s={s}, t={t:.6g} "
                f"(violation {-margin[i]:.3e})", witness=(s, float(t)))
        checked += margin.size
        worst = min(worst, float(np.fmin.reduce(margin)))
    return checked, worst if checked else 0.0


def ref_eta2(traj, sub, tol=DEFAULT_TOL):
    """(checked, worst_margin) of the per-state loop; raises like the check."""
    spec = traj.spectrum
    s2 = min(2, sub.diameter_S)
    phi0, start = traj.states[0], traj.times[0]
    dt = ref_default_dt(spec)
    checked, worst = 0, math.inf
    for t in traj.times:
        if t < 2 * dt:
            continue
        vals = [modulus_of_continuity(ref_state(spec, phi0, t - start + k * dt),
                                      sub, tol).at(s2)
                for k in (-2, -1, 0, 1, 2)]
        deta = (vals[3] - vals[1]) / (2 * dt)
        third = (vals[4] - 2 * vals[3] + 2 * vals[1] - vals[0]) / (2 * dt ** 3)
        tol_dt = abs(third) * dt * dt / 6.0 * 4.0 + 1e-12
        margin = -2.0 * vals[2] + tol_dt - deta
        if margin < 0:
            raise CertificateFailure(
                f"d(eta(2))/dt > -2 eta(2) at t={t:.6g}", witness=float(t))
        checked += 1
        worst = min(worst, margin)
    return checked, worst if checked else 0.0


def ref_ratio_check(h, spec, times):
    """evolution_residual of the per-state loop; raises like the check."""
    u0, u1 = spec.vector(0), spec.vector(1)
    if u0[np.argmax(np.abs(u0))] < 0:
        u0 = -u0
    dt = ref_default_dt(spec)

    def ratio_at(t):
        return RatioFunction.from_vectors(ref_state(spec, u0, t),
                                          ref_state(spec, u1, t), h.source)

    worst = 0.0
    for t in times:
        if t < dt:
            continue
        rm, r0, rp = ratio_at(t - dt), ratio_at(t), ratio_at(t + dt)
        weighted, _ = r0.vertex_sums()
        resid = float(np.abs((rp.f - rm.f) / (2 * dt) - weighted).max())
        tol_dt = (spec.gap ** 3) * float(np.abs(r0.f).max()) * dt * dt \
            / 6.0 * 4.0 + 1e-10
        if resid > tol_dt:
            raise CertificateFailure(
                f"ratio evolution residual {resid:.3e} > {tol_dt:.3e} at "
                f"t={t:.6g}", witness=float(t))
        worst = max(worst, resid)
    return worst


def float_bits(x):
    return np.float64(x).tobytes()


HEAT_INSTANCES = {
    "Q5": lambda: (hypercube_instance(5), None),
    "Q6[x5=0]-boundary": lambda: (subcube_instance([None] * 5 + [0]),
                                  "boundary"),
    "Q8[x7=0]-boundary": lambda: (subcube_instance([None] * 7 + [0]),
                                  "boundary"),
    "path12-boundary": lambda: (path_instance(12), "boundary"),
    "cycle9": lambda: (cycle_instance(9), None),
    # the run-path instances whose heat blocks take the pair scan
    "path160-boundary": lambda: (path_instance(160), "boundary"),
    "cycle64": lambda: (cycle_instance(64), None),
}


@pytest.mark.parametrize("name", sorted(HEAT_INSTANCES))
def test_heat_matches_per_state_reference(name):
    sub, pot = HEAT_INSTANCES[name]()
    op = laplacian(sub) if pot is None else dirichlet_hamiltonian(sub, pot)
    spec = eigendecompose(op)
    times = default_times(spec.gap)
    traj = evolve(spec, spec.vector(1), times)
    ref = np.stack([ref_state(spec, spec.vector(1), t) for t in times])
    assert np.array_equal(traj.states, ref)
    assert not traj.etas.flags.writeable
    for state, row in zip(ref, traj.etas):
        want = modulus_of_continuity(state, sub)
        assert row.tobytes() == want.values.tobytes()

    cert = mocheat_inequality_check(traj)
    checked, worst = ref_mocheat(traj, sub)
    assert cert.checked == checked > 0
    assert float_bits(cert.worst_margin) == float_bits(worst)

    if name.startswith("Q"):      # the eta(2) certificate is hypercube-local
        cert = eta2_contraction_check(traj)
        checked, worst = ref_eta2(traj, sub)
        assert cert.checked == checked > 0
        assert float_bits(cert.worst_margin) == float_bits(worst)

    if pot is not None:
        cert = ratio_evolution_check(spec, times[1:8])
        assert float_bits(cert.evolution_residual) == \
            float_bits(ref_ratio_check(op, spec, times[1:8]))


@pytest.mark.parametrize("n,slow,extra", [(5, slice(None), None), (9, 7, 7)])
def test_mocheat_failure_matches_per_state_reference(n, slow, extra):
    # the two failing trajectories of test_mocheat_failure_witness
    sub = path_instance(n)
    lap = laplacian(sub)
    spec = eigendecompose(lap)
    w = spec.eigenvalues.copy()
    w[slow] *= 0.5
    phi0 = spec.vector(1) if extra is None \
        else spec.vector(1) + spec.vector(extra)
    traj = evolve(dataclasses.replace(spec, eigenvalues=w),
                  phi0, default_times(spec.gap))
    with pytest.raises(CertificateFailure) as want:
        ref_mocheat(traj, sub)
    with pytest.raises(CertificateFailure) as got:
        mocheat_inequality_check(traj)
    assert str(got.value) == str(want.value)
    assert got.value.witness == want.value.witness


@pytest.mark.parametrize("check,ref", [(mocheat_inequality_check, ref_mocheat),
                                       (eta2_contraction_check, ref_eta2)],
                         ids=["mocheat", "eta2"])
@pytest.mark.parametrize("start", ["u1", "delta"])
def test_stencil_over_two_blocks_matches_per_state_reference(start, check,
                                                             ref):
    # Q8 takes ball dilation, so a block of heat's own rule holds the
    # states, their three dilation buffers and their eta rows: the 63 kept
    # times take more than two blocks, each built and scanned on its own
    sub = hypercube_instance(8)
    spec = eigendecompose(laplacian(sub))
    phi0 = spec.vector(1) if start == "u1" else np.eye(spec.dim)[5]
    traj = evolve(spec, phi0, default_times(spec.gap))
    kept = [t for t in traj.times if t >= 2 * ref_default_dt(spec)]
    assert 2 * heat._block_times(sub) < len(kept)
    cert = check(traj)
    checked, worst = ref(traj, sub)
    assert cert.checked == checked > 0
    assert float_bits(cert.worst_margin) == float_bits(worst)


def test_stencil_evolves_from_the_trajectory_start():
    # times that start after 0: the stencil's states are the trajectory's
    # first state evolved for t - times[0] + k dt, so its centre row is the
    # trajectory's own eta at each kept time
    sub = path_instance(9)
    spec = eigendecompose(laplacian(sub))
    times = default_times(spec.gap)[5:]
    traj = evolve(spec, spec.vector(1) + spec.vector(7), times)
    blocks = list(heat._offset_eta_blocks(traj))
    kept = [t for times_, _ in blocks for t in times_]
    etas = np.concatenate([etas for _, etas in blocks])
    assert np.array_equal(kept, times)
    assert np.allclose(etas[:, 2], traj.etas, rtol=0, atol=1e-14)
    cert = mocheat_inequality_check(traj)
    checked, worst = ref_mocheat(traj, sub)
    assert cert.checked == checked > 0
    assert float_bits(cert.worst_margin) == float_bits(worst)


def u1_trajectory(name):
    """(sub, trajectory from u1 on the default times) of a HEAT_INSTANCES
    entry, of Q8 or of path(1024)+boundary."""
    sub, pot = {"Q8": lambda: (hypercube_instance(8), None),
                "path1024-boundary": lambda: (path_instance(1024), "boundary"),
                **HEAT_INSTANCES}[name]()
    op = laplacian(sub) if pot is None else dirichlet_hamiltonian(sub, pot)
    spec = eigendecompose(op)
    return sub, evolve(spec, spec.vector(1), default_times(spec.gap))


def verdict(check, traj):
    """What a heat certificate reports: (checked, worst_margin bits), or
    the message and witness of its failure."""
    try:
        cert = check(traj)
        return cert.checked, float_bits(cert.worst_margin)
    except CertificateFailure as exc:
        return str(exc), exc.witness


def ref_verdict(ref, traj, sub):
    try:
        checked, worst = ref(traj, sub)
        return checked, float_bits(worst)
    except CertificateFailure as exc:
        return str(exc), exc.witness


def test_streamed_certificates_match_per_state_reference(monkeypatch):
    # the margins stream block by block: over at least three blocks of
    # heat's own rule (a budget cut in half, as path(160)+boundary's 63
    # kept times take two blocks of the full one) the count, the worst
    # margin's bits and the verdict are the per-state loop's. mocheat
    # passes and eta(2) fails; Q8 is test_stencil_over_two_blocks'
    sub, traj = u1_trajectory("path160-boundary")
    monkeypatch.setattr(heat, "_SCAN_CELLS", heat._SCAN_CELLS // 2)
    kept = [t for t in traj.times if t >= 2 * ref_default_dt(traj.spectrum)]
    assert 2 * heat._block_times(sub) < len(kept)
    want = [ref_verdict(ref, traj, sub) for ref in (ref_mocheat, ref_eta2)]
    assert [verdict(mocheat_inequality_check, traj),
            verdict(eta2_contraction_check, traj)] == want
    assert isinstance(want[0][0], int) and isinstance(want[1][0], str)


def later_block_failure(monkeypatch, sub, traj, check, ref):
    """check's failure on `traj` in blocks of four sample times, asserted
    equal to ref's (message and witness); and the index of its time among
    the kept times."""
    per_time = heat._SCAN_CELLS // heat._block_times(sub)
    monkeypatch.setattr(heat, "_SCAN_CELLS", 4 * per_time)
    assert heat._block_times(sub) == 4
    with pytest.raises(CertificateFailure) as want:
        ref(traj, sub)
    with pytest.raises(CertificateFailure) as got:
        check(traj)
    assert str(got.value) == str(want.value)
    assert got.value.witness == want.value.witness
    dt = ref_default_dt(traj.spectrum)
    kept = [t for t in traj.times if t >= 2 * dt]
    return got.value, kept.index(np.ravel(got.value.witness)[-1])


def test_mocheat_failure_in_a_later_block(monkeypatch):
    # the second case of test_mocheat_failure_witness in blocks of four
    # sample times: its first violation lies in a later block, and the
    # earlier blocks pass
    sub = path_instance(9)
    spec = eigendecompose(laplacian(sub))
    w = spec.eigenvalues.copy()
    w[7] *= 0.5
    traj = evolve(dataclasses.replace(spec, eigenvalues=w),
                  spec.vector(1) + spec.vector(7), default_times(spec.gap))
    exc, k = later_block_failure(monkeypatch, sub, traj,
                                 mocheat_inequality_check, ref_mocheat)
    assert str(exc) == \
        "d(eta)/dt > -L_P eta at s=4, t=1.679 (violation 1.112e-02)"
    assert k >= 4


def test_eta2_failure_in_a_later_block(monkeypatch):
    # Q3 with its top eigenvalue cut to a fifth and a tenth of u7 mixed in:
    # eta(2) contracts fast enough until t = 2.29, which lies in a later
    # block of four sample times
    sub = hypercube_instance(3)
    spec = eigendecompose(laplacian(sub))
    w = spec.eigenvalues.copy()
    w[7] *= 0.2
    traj = evolve(dataclasses.replace(spec, eigenvalues=w),
                  spec.vector(1) + 0.1 * spec.vector(7),
                  default_times(spec.gap))
    exc, k = later_block_failure(monkeypatch, sub, traj,
                                 eta2_contraction_check, ref_eta2)
    assert str(exc) == "d(eta(2))/dt > -2 eta(2) at t=2.29224"
    assert k >= 4


def test_heat_certificates_keep_to_the_scan_budget():
    # per block the states, their vertex-major copy or dilation buffers,
    # and their eta rows are charged to _SCAN_CELLS, and the margins
    # stream with -L_P eta from its stencil. Measured peaks, whole-array
    # passes -> blocks -> stencil: path(160)+boundary 2.24 -> 1.22 -> 1.02
    # MiB, Q8 1.21 -> 0.48 -> 0.48 MiB; path(1024)+boundary, whose dense
    # L_P took 8 MiB, 9.22 MiB with blocks -> 1.20 MiB
    for name, limit in (("path160-boundary", 1.5), ("Q8", 0.75),
                        ("path1024-boundary", 1.5)):
        _, traj = u1_trajectory(name)
        cert, peak = traced_peak(lambda: mocheat_inequality_check(traj))
        assert cert.ok and peak <= limit * 2 ** 20, name


def test_eta2_failure_matches_per_state_reference():
    # Q3 with every eigenvalue halved: eta(2) decays too slowly
    sub = hypercube_instance(3)
    lap = laplacian(sub)
    spec = eigendecompose(lap)
    slow = dataclasses.replace(spec, eigenvalues=0.5 * spec.eigenvalues)
    traj = evolve(slow, spec.vector(1), default_times(spec.gap))
    with pytest.raises(CertificateFailure) as want:
        ref_eta2(traj, sub)
    with pytest.raises(CertificateFailure) as got:
        eta2_contraction_check(traj)
    assert str(got.value) == str(want.value)
    assert got.value.witness == want.value.witness


def ratio_spectrum(case):
    """path(6)+boundary under a loose stationary bar, with one change."""
    sub = path_instance(6)
    op = dirichlet_hamiltonian(sub, "boundary")
    spec = eigendecompose(op, DEFAULT_TOL.with_overrides(ratio_identity=1e3))
    w, v = spec.eigenvalues.copy(), spec.eigenvectors.copy()
    if case == "gap-doubled":           # fails at the first sample
        w[1] *= 2.0
    elif case == "lambda2-negative":    # fails only at t = 1.94
        w[2] = -8.0
    elif case == "ground-mixed":        # the evolved u0 changes sign
        v[:, 2] = 10.0 * v[:, 2] + v[:, 0]
    elif case == "ground-mixed-late":   # fails at t = 0.018, and the
        w[2] = -8.0                     # evolved u0 changes sign by t = 0.64
        v[:, 2] = v[:, 2] + 0.01 * v[:, 0]
    return op, dataclasses.replace(spec, eigenvalues=w, eigenvectors=v)


@pytest.mark.parametrize("case", ["exact", "gap-doubled", "lambda2-negative",
                                  "ground-mixed", "ground-mixed-late"])
def test_ratio_check_matches_per_state_reference(case):
    # the whole-array check reports what the per-state loop reports: the
    # worst residual, the first failure in time order, or the ValueError
    # of a non-positive ground state
    op, spec = ratio_spectrum(case)
    times = default_times(spec.gap)[1:]
    try:
        want = ref_ratio_check(op, spec, times)
    except (CertificateFailure, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            ratio_evolution_check(spec, times)
        assert str(got.value) == str(exc)
        assert getattr(got.value, "witness", None) == \
            getattr(exc, "witness", None)
        assert case != "exact"
    else:
        cert = ratio_evolution_check(spec, times)
        assert float_bits(cert.evolution_residual) == float_bits(want)
        assert case == "exact"


def test_spectral_trajectory_reads_its_spectrum_tolerances():
    # the decay margin is the spectrum's, and the spectrum is the only
    # instance argument: evolve takes no operator, method or step
    sub = path_instance(6)
    lap = laplacian(sub)
    tol = DEFAULT_TOL.with_overrides(decay_margin=-10.0)
    spec = eigendecompose(lap, tol)
    traj = evolve(spec, spec.vector(1), default_times(spec.gap))
    assert traj.spectrum is spec
    with pytest.raises(CertificateFailure, match="mu - margin"):
        decay_rate_check(traj, mu=bound_thm1(sub.diameter_S))
    assert list(inspect.signature(evolve).parameters) == \
        ["spec", "phi0", "times"]
    assert [f.name for f in dataclasses.fields(HeatTrajectory)] == \
        ["spectrum", "times", "states", "etas"]
    assert not hasattr(gapbound.errors, "UnstableStep")
    assert "tol" not in inspect.signature(decay_rate_check).parameters
