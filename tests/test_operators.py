import dataclasses
import math

import numpy as np
import pytest

from gapbound import operators
from gapbound.bounds import verify_all
from gapbound.config import DEFAULT_TOL
from gapbound.errors import (CertificateFailure, NegativePotential,
                             SpectrumInvariantError)
from gapbound.families import (cycle_graph, cycle_instance,
                               hypercube_instance, path_instance)
from gapbound.graphs import induce_subgraph
from gapbound.heat import (default_times, evolve, mocheat_inequality_check,
                           ratio_evolution_check)
from gapbound.operators import (Spectrum, SymmetricOperator,
                                _apply_by_adjacency, _canonical_basis,
                                _certificate, _validate_spectrum,
                                boundary_potential,
                                dirichlet_hamiltonian, eigendecompose,
                                laplacian, path_lattice_laplacian,
                                rayleigh_gap_check)

from conftest import traced_peak


def test_laplacian_single_edge():
    sub = path_instance(2)
    lap = laplacian(sub)
    assert np.array_equal(lap.entries, [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_three_path():
    sub = path_instance(3)
    lap = laplacian(sub)
    expected = np.array([[1., -1., 0.], [-1., 2., -1.], [0., -1., 2. - 1.]])
    expected[2, 2] = 1.0
    assert np.array_equal(lap.entries, expected)


def test_laplacian_q3_from_adjacency_oracle():
    sub = hypercube_instance(3)
    lap = laplacian(sub)
    adj = np.zeros((8, 8))
    for x in range(8):
        for b in range(3):
            adj[x, x ^ (1 << b)] = 1.0
    assert np.array_equal(lap.entries, 3.0 * np.eye(8) - adj)


def test_boundary_potential_interior_vertex():
    # S = {1} inside the arc of a cycle: two boundary edges
    graph = cycle_graph(6)
    sub = induce_subgraph(graph, [1])
    ham = dirichlet_hamiltonian(sub, "boundary")
    assert ham.entries.shape == (1, 1)
    assert ham.entries[0, 0] == 2.0


def test_zero_potential_is_laplacian():
    sub = path_instance(4)
    ham = dirichlet_hamiltonian(sub, np.zeros(4))
    lap = laplacian(sub)
    assert np.array_equal(ham.entries, lap.entries)
    s1 = eigendecompose(ham)
    s2 = eigendecompose(lap)
    assert abs(s1.gap - s2.lambda1) <= 1e-12


def test_three_path_dirichlet_matches_five_path_interior():
    # interior of a 5-path with Dirichlet boundary = 3-path + W (1,0,1)
    sub3 = path_instance(3)
    ham = dirichlet_hamiltonian(sub3, np.array([1.0, 0.0, 1.0]))
    host = cycle_graph(10)
    arc5 = induce_subgraph(host, range(5))
    interior = induce_subgraph(host, [1, 2, 3])
    dirichlet = dirichlet_hamiltonian(interior, "boundary")
    assert np.array_equal(ham.entries, dirichlet.entries)
    w1 = eigendecompose(ham).eigenvalues
    w2 = eigendecompose(dirichlet).eigenvalues
    assert np.abs(w1 - w2).max() <= 1e-12


def test_negative_potential_rejected():
    sub = path_instance(3)
    with pytest.raises(NegativePotential):
        dirichlet_hamiltonian(sub, np.array([0.0, -0.1, 0.0]))
    # the operator checks its potential, however it is built
    with pytest.raises(NegativePotential):
        SymmetricOperator(source=sub, potential=np.array([0.0, -0.1, 0.0]))
    for bad in (np.zeros(4), np.zeros((3, 1))):
        with pytest.raises(ValueError, match="^potential length must match"):
            SymmetricOperator(source=sub, potential=bad)
        with pytest.raises(ValueError, match="^potential length must match"):
            dirichlet_hamiltonian(sub, bad)


def test_non_finite_potential_is_named():
    sub = path_instance(3)
    for bad in ("inf", "nan"):
        with pytest.raises(ValueError, match=f"^potential entry 1 is {bad}; "
                           "a potential must be finite$"):
            dirichlet_hamiltonian(sub, [0.0, float(bad), 0.0])
    # -inf is negative before it is non-finite
    with pytest.raises(NegativePotential):
        dirichlet_hamiltonian(sub, [0.0, -math.inf, 0.0])


def test_a_one_way_edge_fails_the_residual():
    # LAPACK reads one triangle of the dense matrix, the residuals every
    # neighbour row, so a subgraph whose adjacency is not symmetric fails
    for sub in (path_instance(6), hypercube_instance(3)):
        nbr = sub.nbr_local.copy()
        x = int(np.flatnonzero(nbr[0] >= 0)[0])
        nbr[0, x] = -1          # x -> a x dropped, a x -> x kept
        broken = dataclasses.replace(sub, nbr_local=nbr)
        for op in (laplacian(broken), dirichlet_hamiltonian(broken)):
            with pytest.raises(SpectrumInvariantError,
                               match="^residual") as exc:
                eigendecompose(op)
            assert float(str(exc.value).split()[1]) > 0.1


def test_path_lattice_shapes_and_mu():
    coords, lp = path_lattice_laplacian(1)
    assert coords.tolist() == [-1, 1]
    assert abs(np.linalg.eigvalsh(lp)[1] - 2.0) <= 1e-12

    coords, lp = path_lattice_laplacian(4)
    assert coords.tolist() == [-4, -2, 0, 2, 4]
    mu = np.linalg.eigvalsh(lp)[1]
    assert abs(mu - 2 * (1 - math.cos(math.pi / 5))) <= 1e-12


def test_eigendecompose_trivial():
    graph = cycle_graph(6)
    sub = induce_subgraph(graph, [0])
    spec = eigendecompose(laplacian(sub))
    assert spec.eigenvalues[0] == 0.0


def test_three_path_spectrum():
    spec = eigendecompose(laplacian(path_instance(3)))
    assert np.abs(spec.eigenvalues - [0.0, 1.0, 3.0]).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hypercube_spectrum_structure(n):
    # eigenvalues 2m with multiplicity C(n, m), from the product structure
    spec = eigendecompose(laplacian(hypercube_instance(n)))
    expected = sorted(2 * bin(mask).count("1") for mask in range(1 << n))
    assert np.abs(spec.eigenvalues - expected).max() <= 1e-10


def test_gap_eigenspace_basis_is_canonical(rng):
    # any orthonormal basis of the lambda1 eigenspace maps to the same one
    spec = eigendecompose(laplacian(hypercube_instance(5)))
    idx = spec.gap_indices
    assert list(idx) == [1, 2, 3, 4, 5]
    rot, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    v = spec.eigenvectors.copy()
    v[:, idx] = v[:, idx] @ rot
    _canonical_basis(v, idx)
    assert np.abs(v - spec.eigenvectors).max() <= 1e-12


@pytest.mark.parametrize("delta", [5e-10, 2e-10, 1e-10, 5e-11, 1e-12, 0.0])
def test_near_degenerate_gap_passes_validation(delta):
    # C3 with W = (0, 0, 1.5 delta): spectrum {~delta/2, 3, 3 + delta}, so
    # lambda1 and lambda2 are delta apart (to 1e-5 relative); whether or not
    # the lambda1 cluster merges them, every column must stay within the
    # residual bound
    spec = eigendecompose(dirichlet_hamiltonian(cycle_instance(3),
                                                [0.0, 0.0, 1.5 * delta]))
    gap12 = spec.eigenvalues[2] - spec.eigenvalues[1]
    assert abs(gap12 - delta) <= 1e-4 * delta + 1e-14
    assert spec.residuals.max() <= spec.tolerances.spectrum_residual
    # the cluster width is half the residual bar at scale |lambda|max ~ 3
    width = 0.5 * spec.tolerances.spectrum_residual * 3.0
    assert len(spec.gap_indices) == (2 if delta < width else 1)


def test_rayleigh_certificates():
    # constant vector: quotient zero on any Laplacian
    lap = laplacian(path_instance(4))
    spec = eigendecompose(lap)
    cert = rayleigh_gap_check(spec)
    assert cert.ok
    u1 = spec.vector(1)
    quad = sum((u1[i] - u1[j]) ** 2
               for i in range(4) for j in range(4)
               if lap.entries[i, j] == -1.0) / 2
    assert abs(quad / (u1 @ u1) - spec.lambda1) <= 1e-9

    spec3 = eigendecompose(laplacian(path_instance(3)))
    assert abs(spec3.lambda1 - 1.0) <= 1e-12

    q3 = eigendecompose(laplacian(hypercube_instance(3)))
    assert abs(q3.lambda1 - 2.0) <= 1e-12
    rayleigh_gap_check(q3)


def test_certificate_failure_surfaces_witness():
    lap = laplacian(path_instance(4))
    spec = eigendecompose(lap)
    broken = spec.eigenvectors.copy()
    broken[:, 1] = broken[:, 0]
    bad = type(spec)(eigenvalues=spec.eigenvalues, eigenvectors=broken,
                     operator=spec.operator, tolerances=spec.tolerances)
    with pytest.raises(CertificateFailure):
        rayleigh_gap_check(bad)


@pytest.mark.parametrize("make", [
    lambda: dirichlet_hamiltonian(
        induce_subgraph(cycle_graph(12), range(5)), "boundary"),
    lambda: laplacian(hypercube_instance(3)),
], ids=["arc-hamiltonian", "Q3"])
def test_apply_by_adjacency_block_equals_columns(make, rng):
    op = make()
    block = rng.normal(size=(op.dim, 5))
    cols = np.stack([_apply_by_adjacency(op, block[:, j])
                     for j in range(5)], axis=1)
    assert np.array_equal(_apply_by_adjacency(op, block), cols)


def test_block_certificate_matches_pair_loop():
    # Q7's 128 eigenpairs are one column block; see
    # test_residuals_over_column_blocks_match_each_pair for several
    lap = laplacian(hypercube_instance(7))
    spec = eigendecompose(lap)
    worst = max(float(np.abs(_apply_by_adjacency(lap, spec.vector(i))
                             - spec.eigenvalues[i] * spec.vector(i)).max())
                for i in range(spec.dim))
    assert rayleigh_gap_check(spec).recurrence_residual == worst

    # break pairs 100 and 70: the error names the first
    broken = spec.eigenvectors.copy()
    broken[:, 100] = broken[:, 3]
    broken[:, 70] = broken[:, 2]
    bad = dataclasses.replace(spec, eigenvectors=broken)
    r = np.abs(_apply_by_adjacency(lap, broken[:, 70])
               - spec.eigenvalues[70] * broken[:, 70])
    with pytest.raises(CertificateFailure) as exc:
        rayleigh_gap_check(bad)
    assert str(exc.value) == (f"eigen-recurrence fails for pair 70 "
                              f"(residual {float(r.max()):.3e})")
    assert exc.value.witness == int(np.argmax(r))


def test_spectrum_fields_hold_no_residuals():
    # the residuals are derived from the eigenpairs, never handed in
    assert [f.name for f in dataclasses.fields(Spectrum)] == [
        "eigenvalues", "eigenvectors", "operator", "tolerances"]


def test_residuals_follow_the_eigenvectors():
    spec = eigendecompose(laplacian(path_instance(6)))
    broken = spec.eigenvectors.copy()
    broken[:, 2] = broken[:, 3]
    bad = dataclasses.replace(spec, eigenvectors=broken)
    r = np.abs(_apply_by_adjacency(spec.operator, broken[:, 2])
               - spec.eigenvalues[2] * broken[:, 2])
    assert bad.residuals[2] == r.max() > 0.1
    keep = np.arange(spec.dim) != 2
    assert np.array_equal(bad.residuals[keep], spec.residuals[keep])
    with pytest.raises(SpectrumInvariantError, match="residual"):
        _validate_spectrum(bad)


def test_residual_above_its_bar_fails_construction():
    tol = DEFAULT_TOL.with_overrides(spectrum_residual=1e-20)
    with pytest.raises(SpectrumInvariantError, match="residual .* exceeds"):
        eigendecompose(laplacian(hypercube_instance(3)), tol)


def rotated(v, angle):
    """v with u1 and u2 rotated by `angle` in their plane."""
    v = v.copy()
    c, s = math.cos(angle), math.sin(angle)
    v[:, 1], v[:, 2] = c * v[:, 1] + s * v[:, 2], c * v[:, 2] - s * v[:, 1]
    return v


def u1_scaled(v):
    v = v.copy()
    v[:, 1] *= 1 + 1e-8
    return v


# bar -> (perturbation of path(8)'s eigenvectors, other overrides, check,
# its error): the perturbation's measured quantity lies between the bar's
# default and 1000 times it (residual 2.1e-9, Gram error 2e-8, residual
# 2.1e-9, Rayleigh-quotient error 4.3e-9, stationary ratio residual
# 5.7e-8; no sample times, since the rotated vectors also fail the
# evolution half at 1000x)
SPECTRUM_BARS = {
    "spectrum_residual": (lambda v: rotated(v, 1e-8), {}, _validate_spectrum,
                          "residual .* exceeds bound"),
    "orthonormality": (u1_scaled, {}, _validate_spectrum,
                       "not orthonormal"),
    "recurrence": (lambda v: rotated(v, 1e-8), {}, rayleigh_gap_check,
                   "eigen-recurrence fails for pair 1"),
    "rayleigh": (lambda v: rotated(v, 1e-4), {"recurrence": 1e-3},
                 rayleigh_gap_check, "Rayleigh quotient"),
    "ratio_identity": (lambda v: rotated(v, 1e-7), {},
                       lambda s: ratio_evolution_check(s, []),
                       "stationary ratio identity"),
}


@pytest.mark.parametrize("bar", SPECTRUM_BARS)
def test_spectrum_bar_fails_at_its_default_and_passes_at_1000x(bar):
    perturb, others, check, error = SPECTRUM_BARS[bar]
    spec = eigendecompose(laplacian(path_instance(8)))
    vectors = perturb(spec.eigenvectors)

    def perturbed(factor):
        value = getattr(DEFAULT_TOL, bar) * factor
        return dataclasses.replace(spec, eigenvectors=vectors, tolerances=(
            DEFAULT_TOL.with_overrides(**others, **{bar: value})))
    with pytest.raises((SpectrumInvariantError, CertificateFailure),
                       match=error):
        check(perturbed(1))
    check(perturbed(1000))


def test_certificate_reads_the_kept_residuals(monkeypatch):
    # the construction check computed every pair's residual; the
    # certificate applies the operator once more, for the Rayleigh quotient
    spec = eigendecompose(laplacian(hypercube_instance(7)))
    calls = []
    real = operators._apply_by_adjacency

    def counted(op, u):
        calls.append(u.shape)
        return real(op, u)
    monkeypatch.setattr(operators, "_apply_by_adjacency", counted)
    cert = rayleigh_gap_check(spec)
    assert calls == [(spec.dim,)]
    assert cert.recurrence_residual == spec.residuals.max()


def test_trace_identity_and_nonnegativity(rng):
    for _ in range(10):
        n = int(rng.integers(3, 9))
        sub = path_instance(n)
        w = rng.uniform(0, 5, size=n)
        ham = dirichlet_hamiltonian(sub, w)
        spec = eigendecompose(ham)
        tr = float(np.trace(ham.entries))
        assert abs(spec.eigenvalues.sum() - tr) <= 1e-8 * max(1.0, abs(tr))
        lap_spec = eigendecompose(laplacian(sub))
        assert lap_spec.eigenvalues.min() >= -1e-10


def test_gap_invariant_under_constant_shift(rng):
    sub = path_instance(5)
    w = rng.uniform(0, 3, size=5)
    base = eigendecompose(dirichlet_hamiltonian(sub, w))
    for _ in range(5):
        c = float(rng.uniform(0, 4))
        shifted = eigendecompose(dirichlet_hamiltonian(sub, w + c))
        assert abs(shifted.gap - base.gap) <= 1e-9


def test_boundary_potential_values():
    graph = cycle_graph(8)
    sub = induce_subgraph(graph, range(4))
    assert boundary_potential(sub).tolist() == [1.0, 0.0, 0.0, 1.0]


def test_failed_certificate_raises_on_every_call():
    # only a success is kept on the spectrum, so a failure is never cached
    lap = laplacian(path_instance(6))
    spec = eigendecompose(lap)
    w = spec.eigenvalues.copy()
    w[2] += 1e-3
    bad = dataclasses.replace(spec, eigenvalues=w)
    for _ in range(2):
        with pytest.raises(CertificateFailure, match="pair 2"):
            _certificate(bad)
        with pytest.raises(CertificateFailure, match="pair 2"):
            verify_all(bad)
    assert _certificate(spec) is _certificate(spec)


def test_ground_state_is_positive_and_read_only():
    ham = dirichlet_hamiltonian(path_instance(7), "boundary")
    spec = eigendecompose(ham)
    flipped = dataclasses.replace(spec, eigenvectors=-spec.eigenvectors)
    for s in (spec, flipped):
        u0 = s.ground_state
        assert u0 is s.ground_state
        assert not u0.flags.writeable
        assert np.array_equal(u0, spec.eigenvectors[:, 0])


def test_residuals_over_column_blocks_match_each_pair():
    # Q9 has 512 eigenpairs: four blocks of _SCAN_CELLS // 512 columns;
    # broken pairs in the third and fourth blocks
    spec = eigendecompose(laplacian(hypercube_instance(9)))
    cols = operators._SCAN_CELLS // spec.dim
    assert 2 * cols < 300 and 3 * cols < 500
    broken = spec.eigenvectors.copy()
    broken[:, 500] = broken[:, 3]
    broken[:, 300] = broken[:, 2]
    for s in (spec, dataclasses.replace(spec, eigenvectors=broken)):
        v = s.eigenvectors
        want = np.array([np.abs(_apply_by_adjacency(s.operator, v[:, i])
                                - v[:, i] * s.eigenvalues[i]).max()
                         for i in range(s.dim)])
        assert np.array_equal(s.residuals, want)
    with pytest.raises(CertificateFailure, match="pair 300 "):
        rayleigh_gap_check(dataclasses.replace(spec, eigenvectors=broken))


def test_stage_scratch_is_bounded_by_the_scan_budget():
    # Q9: a 2 MiB operator and blocks of _SCAN_CELLS float64 cells (512
    # KiB). Measured peaks, whole-array passes -> blocks: operator build
    # 6.30 -> 2.30 MB, verify_all 8.60 -> 4.36 MB, mocheat 3.43 -> 1.25 MB
    sub = hypercube_instance(9)
    block = 8 * operators._SCAN_CELLS
    op, peak = traced_peak(lambda: laplacian(sub))
    assert peak <= block
    matrix = 8 * op.dim ** 2
    spec = eigendecompose(op)
    _, peak = traced_peak(lambda: verify_all(spec))
    assert peak <= 2.5 * matrix
    traj = evolve(spec, spec.vector(1), default_times(spec.gap))
    _, peak = traced_peak(lambda: mocheat_inequality_check(traj))
    assert peak <= 3 * block


def test_validation_keeps_one_matrix_of_scratch():
    # Q9: the Gram check works in place on vᵀv, and the residual pass of a
    # fresh spectrum stays inside it. Measured: 2.00 -> 1.01 matrices
    spec = eigendecompose(laplacian(hypercube_instance(9)))
    fresh = dataclasses.replace(spec)
    _, peak = traced_peak(lambda: _validate_spectrum(fresh))
    assert peak <= 1.5 * spec.operator.entries.nbytes
    assert np.array_equal(fresh.residuals, spec.residuals)
