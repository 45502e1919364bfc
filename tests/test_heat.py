import dataclasses
import math

import numpy as np
import pytest

from gapbound.bounds import bound_thm1
from gapbound.errors import CertificateFailure, InsufficientSpan, UnstableStep
from gapbound.families import (cycle_instance, hypercube_instance,
                               path_instance, quadratic_potential)
from gapbound.heat import (decay_rate_check, default_times,
                           eta2_contraction_check, evolve, gershgorin_max,
                           mocheat_inequality_check, ratio_evolution_check)
from gapbound.moduli import (RatioFunction, modulus_of_concavity,
                             modulus_of_continuity)
from gapbound.operators import (dirichlet_hamiltonian, eigendecompose,
                                laplacian)


def test_eigenvector_decays_exponentially():
    sub = path_instance(4)
    lap = laplacian(sub)
    spec = eigendecompose(lap)
    times = np.array([0.0, 0.3, 1.0, 2.5])
    traj = evolve(lap, spec.vector(1), times, spectrum=spec)
    for j, t in enumerate(times):
        expected = spec.vector(1) * math.exp(-spec.lambda1 * t)
        assert np.abs(traj.states[j] - expected).max() <= 1e-12


def test_constant_state_is_stationary():
    sub = cycle_instance(5)
    lap = laplacian(sub)
    times = np.array([0.0, 1.0, 4.0])
    traj = evolve(lap, np.ones(5), times)
    assert np.abs(traj.states - 1.0).max() <= 1e-10


def test_reproduces_initial_state():
    sub = path_instance(6)
    lap = laplacian(sub)
    phi0 = np.sin(np.arange(6.0))
    traj = evolve(lap, phi0, np.array([0.0, 0.1]))
    assert np.abs(traj.states[0] - phi0).max() <= 1e-10


def test_mass_conservation_for_laplacian(rng):
    sub = cycle_instance(7)
    lap = laplacian(sub)
    phi0 = rng.normal(size=7)
    traj = evolve(lap, phi0, np.array([0.0, 0.5, 2.0, 5.0]))
    sums = traj.states.sum(axis=1)
    assert np.abs(sums - phi0.sum()).max() <= 1e-9


def test_semigroup_property(rng):
    sub = path_instance(5)
    lap = laplacian(sub)
    spec = eigendecompose(lap)
    phi0 = rng.normal(size=5)
    t, s = 0.7, 1.1
    one = evolve(lap, phi0, np.array([t + s]), spectrum=spec).states[-1]
    half = evolve(lap, phi0, np.array([t]), spectrum=spec).states[-1]
    two = evolve(lap, half, np.array([s]), spectrum=spec).states[-1]
    assert np.abs(one - two).max() <= 1e-9


def test_spectral_vs_euler_cross_check(rng):
    sub = path_instance(5)
    w = rng.uniform(0, 2, size=5)
    ham = dirichlet_hamiltonian(sub, w)
    lam = gershgorin_max(ham)
    times = np.array([0.1, 0.25, 0.5]) / lam
    phi0 = rng.normal(size=5)
    spectral = evolve(ham, phi0, times)
    euler = evolve(ham, phi0, times, method="euler", dt=times[-1] / 200000)
    assert np.abs(spectral.states - euler.states).max() <= 1e-6


def test_euler_stability_guard():
    sub = path_instance(4)
    lap = laplacian(sub)
    lam = gershgorin_max(lap)
    with pytest.raises(UnstableStep):
        evolve(lap, np.ones(4), np.array([1.0]), method="euler", dt=2.0 / lam)


def test_eta_series_monotone_for_eigenvector():
    sub = path_instance(5)
    lap = laplacian(sub)
    spec = eigendecompose(lap)
    traj = evolve(lap, spec.vector(1), default_times(spec.lambda1),
                  spectrum=spec)
    tops = [eta.values[-1] for eta in traj.eta_series]
    assert all(b <= a + 1e-12 for a, b in zip(tops, tops[1:]))


def test_decay_rate_three_path():
    sub = path_instance(3)
    lap = laplacian(sub)
    spec = eigendecompose(lap)
    traj = evolve(lap, spec.vector(1), default_times(spec.lambda1),
                  spectrum=spec)
    cert = decay_rate_check(traj, mu=bound_thm1(2))
    assert cert.fitted_rate >= 1.0 - 1e-6
    assert abs(cert.fitted_rate - 1.0) <= 1e-6


def test_decay_rate_hypercube():
    sub = hypercube_instance(2)
    lap = laplacian(sub)
    spec = eigendecompose(lap)
    traj = evolve(lap, spec.vector(1), default_times(spec.gap), spectrum=spec)
    cert = decay_rate_check(traj, mu=2.0)
    assert cert.fitted_rate >= 2.0 - 1e-6


def test_decay_rate_cycle_oracle():
    sub = cycle_instance(6)
    lap = laplacian(sub)
    spec = eigendecompose(lap)
    # cycle spectrum oracle: lambda_1 = 2(1 - cos(2 pi / 6)) = 1
    assert abs(spec.lambda1 - 1.0) <= 1e-10
    traj = evolve(lap, spec.vector(1), default_times(spec.lambda1),
                  spectrum=spec)
    mu = 2 * (1 - math.cos(math.pi / 4))  # D = 3 bound
    cert = decay_rate_check(traj, mu=mu)
    assert cert.fitted_rate >= mu - 1e-6


def test_insufficient_span():
    sub = path_instance(3)
    lap = laplacian(sub)
    spec = eigendecompose(lap)
    times = np.array([0.0, 0.01, 0.02]) / spec.lambda1
    traj = evolve(lap, spec.vector(1), times, spectrum=spec)
    with pytest.raises(InsufficientSpan):
        decay_rate_check(traj, mu=1.0)


def test_mocheat_constant_initial_state():
    sub = path_instance(5)
    lap = laplacian(sub)
    traj = evolve(lap, np.ones(5), np.array([0.0, 0.5, 1.0]))
    cert = mocheat_inequality_check(traj, sub)
    assert cert.ok


def test_mocheat_five_path():
    sub = path_instance(5)
    lap = laplacian(sub)
    spec = eigendecompose(lap)
    traj = evolve(lap, spec.vector(1), default_times(spec.lambda1),
                  spectrum=spec)
    cert = mocheat_inequality_check(traj, sub)
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
    traj = evolve(lap, phi0, default_times(spec.gap),
                  spectrum=dataclasses.replace(spec, eigenvalues=w))
    with pytest.raises(CertificateFailure) as exc:
        mocheat_inequality_check(traj, sub)
    assert str(exc.value) == message
    assert exc.value.witness[0] == s
    assert exc.value.witness[1] in traj.times
    assert exc.value.witness[1] == pytest.approx(t, rel=1e-12)


def test_eta2_contraction_q3():
    sub = hypercube_instance(3)
    lap = laplacian(sub)
    spec = eigendecompose(lap)
    traj = evolve(lap, spec.vector(1), default_times(spec.gap), spectrum=spec)
    cert = eta2_contraction_check(traj, sub)
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
        ratio = RatioFunction.from_spectrum(spec, sub)
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
    cert = ratio_evolution_check(ham, spec, default_times(spec.gap)[1:6])
    assert cert.ok
    assert cert.stationary_residual <= 1e-8


def test_ratio_evolution_single_edge_closed_form():
    sub = path_instance(2)
    ham = dirichlet_hamiltonian(sub, np.array([0.0, 1.0]))
    spec = eigendecompose(ham)
    # closed form: gamma = sqrt(5)
    assert abs(spec.gap - math.sqrt(5.0)) <= 1e-12
    cert = ratio_evolution_check(ham, spec, np.array([0.05, 0.2, 0.6]))
    assert cert.ok


def test_ratio_evolution_random_paths(rng):
    for _ in range(5):
        n = int(rng.integers(3, 7))
        sub = path_instance(n)
        ham = dirichlet_hamiltonian(sub, rng.uniform(0, 4, size=n))
        spec = eigendecompose(ham)
        cert = ratio_evolution_check(ham, spec, np.array([0.1, 0.4]))
        assert cert.ok
        assert cert.stationary_residual <= 1e-8
