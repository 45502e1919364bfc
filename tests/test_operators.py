import dataclasses
import math

import numpy as np
import pytest

from gapbound.bounds import verify_all
from gapbound.errors import CertificateFailure, NegativePotential
from gapbound.families import (cycle_graph, hypercube_instance,
                               path_instance)
from gapbound.graphs import induce_subgraph
from gapbound.operators import (SymmetricOperator, _apply_by_adjacency,
                                _canonical_basis, _certificate,
                                boundary_potential,
                                dirichlet_hamiltonian, eigendecompose,
                                laplacian, path_lattice_laplacian,
                                rayleigh_gap_check)


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


def test_path_lattice_shapes_and_mu():
    op = path_lattice_laplacian(1, "odd")
    assert op.coords.tolist() == [-1, 1]
    assert abs(eigendecompose(op).eigenvalues[1] - 2.0) <= 1e-12

    op = path_lattice_laplacian(4, "even")
    assert op.coords.tolist() == [-4, -2, 0, 2, 4]
    mu = eigendecompose(op).eigenvalues[1]
    assert abs(mu - 2 * (1 - math.cos(math.pi / 5))) <= 1e-12

    op = path_lattice_laplacian(3, "unit")
    assert op.coords.tolist() == [-3, -2, -1, 0, 1, 2, 3]
    mu = eigendecompose(op).eigenvalues[1]
    assert abs(mu - 2 * (1 - math.cos(math.pi / 7))) <= 1e-12

    # a plain Laplacian; a single point has a +0.0 diagonal, not -0.0
    op = path_lattice_laplacian(1, "even")
    assert op.kind == "laplacian"
    assert op.entries.tobytes() == np.zeros((1, 1)).tobytes()


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
    # lambda1 and lambda2 delta apart: whether or not the lambda1 cluster
    # merges them, every column must stay within the residual bound
    r = 1 / math.sqrt(2)
    q = np.array([[1, 0, 0], [0, r, r], [0, r, -r]])
    a = q @ np.diag([0.0, 0.5, 0.5 + delta]) @ q.T
    spec = eigendecompose(SymmetricOperator(entries=(a + a.T) / 2,
                                            kind="custom"))
    assert spec.residuals.max() <= spec.tolerances.spectrum_residual
    assert len(spec.gap_indices) == (2 if delta < 1e-11 else 1)


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
                     residuals=spec.residuals, operator=spec.operator,
                     tolerances=spec.tolerances)
    with pytest.raises(CertificateFailure):
        rayleigh_gap_check(bad)


@pytest.mark.parametrize("make", [
    lambda: dirichlet_hamiltonian(
        induce_subgraph(cycle_graph(12), range(5)), "boundary"),
    lambda: laplacian(hypercube_instance(3)),
    lambda: path_lattice_laplacian(5, "odd"),
    lambda: path_lattice_laplacian(1, "even"),
    lambda: SymmetricOperator(
        entries=laplacian(path_instance(6)).entries.copy(), kind="laplacian"),
], ids=["arc-hamiltonian", "Q3", "lattice", "lattice-point", "no-source"])
def test_apply_by_adjacency_block_equals_columns(make, rng):
    op = make()
    block = rng.normal(size=(op.dim, 5))
    cols = np.stack([_apply_by_adjacency(op, block[:, j])
                     for j in range(5)], axis=1)
    assert np.array_equal(_apply_by_adjacency(op, block), cols)


def test_block_certificate_matches_pair_loop():
    # Q7 has 128 eigenpairs, so the certificate runs two column blocks
    lap = laplacian(hypercube_instance(7))
    spec = eigendecompose(lap)
    worst = max(float(np.abs(_apply_by_adjacency(lap, spec.vector(i))
                             - spec.eigenvalues[i] * spec.vector(i)).max())
                for i in range(spec.dim))
    assert rayleigh_gap_check(spec).recurrence_residual == worst

    # break pairs 100 and 70: the error names the first, in the second block
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
