import dataclasses
import itertools
import math

import numpy as np
import pytest

from gapbound import moduli
from gapbound.bounds import (bound_thm1, bound_thm2, bound_thm3, bound_thm4,
                             bound_thm5, bound_thm6, build_operator,
                             is_hypercube, is_path_graph, verify_all)
from gapbound.config import DEFAULT_TOL
from gapbound.errors import HypothesisFailed, NotHypercube
from gapbound.families import (cycle_instance, hypercube_instance,
                               path_instance, quadratic_potential)
from gapbound.graphs import build_cayley, induce_subgraph, is_strongly_convex
from gapbound.groups import generator_set, group_from_table
from gapbound.moduli import (ModulusOfConcavity, _ground_eta,
                             modulus_of_concavity)
from gapbound.operators import dirichlet_hamiltonian, eigendecompose, laplacian


def verify(sub, potential=None):
    """verify_all on the spectrum of build_operator(sub, potential)."""
    return verify_all(eigendecompose(build_operator(sub, potential)))


def test_bound_thm1_values():
    assert abs(bound_thm1(1) - 2.0) <= 1e-15
    assert abs(bound_thm1(2) - 1.0) <= 1e-15
    assert abs(bound_thm1(5) - 2 * (1 - math.cos(math.pi / 6))) <= 1e-15
    with pytest.raises(ValueError):
        bound_thm1(0)


def test_bound_thm2_tightness():
    for n in (1, 3, 6):
        sub = hypercube_instance(n)
        assert bound_thm2(sub) == 2.0
        spec = eigendecompose(laplacian(sub))
        ref = np.linalg.eigvalsh(laplacian(sub).entries)  # dense oracle
        assert abs(spec.lambda1 - ref[1]) <= 1e-10
        assert abs(spec.gap - 2.0) <= 1e-10


def test_not_hypercube_detection():
    assert not is_hypercube(cycle_instance(6))
    assert not is_hypercube(induce_subgraph(
        hypercube_instance(3).host, [0, 1, 2, 3]))
    with pytest.raises(NotHypercube):
        bound_thm2(cycle_instance(4))
    # C4 is isomorphic to Q2 as a graph, but cyclic(4) is not Z2^2
    assert is_hypercube(hypercube_instance(2))


def test_thm3_reduces_to_thm1_for_zero_potential():
    for sub in (path_instance(5), cycle_instance(7)):
        spec = eigendecompose(laplacian(sub))
        value, const = bound_thm3(spec)
        assert abs(value - bound_thm1(sub.diameter_S)) <= 1e-12


def test_thm3_single_edge_hand_oracle():
    sub = path_instance(2)
    v = 2.3
    spec = eigendecompose(dirichlet_hamiltonian(sub, np.array([0.0, v])))
    value, const = bound_thm3(spec)
    lam0 = (2 + v - math.sqrt(v * v + 4)) / 2
    r = 1 - lam0
    expected_c = (r + 1 / r) / 2
    assert abs(value - 2 * expected_c * (1 - math.cos(math.pi / 2))) <= 1e-10
    assert spec.gap >= value - 1e-9


def test_thm3_soundness_random_paths(rng):
    for _ in range(25):
        n = int(rng.integers(2, 7))
        sub = path_instance(n)
        w = rng.uniform(0, 3, size=n)
        ham = dirichlet_hamiltonian(sub, w)
        spec = eigendecompose(ham)
        ref = np.linalg.eigvalsh(ham.entries)  # dense oracle
        assert abs(spec.gap - (ref[1] - ref[0])) <= 1e-10
        value, _ = bound_thm3(spec)
        assert value <= spec.gap + 1e-9


def test_thm4_zero_potential_matches_thm2():
    for n in (2, 3, 4):
        sub = hypercube_instance(n)
        spec = eigendecompose(laplacian(sub))
        value, const = bound_thm4(spec)
        assert abs(value - 2.0) <= 1e-10
        assert abs(const.value - 1.0) <= 1e-12


def test_thm4_q2_example_against_dense_oracle():
    sub = hypercube_instance(2)
    w = np.array([0.0, 0.0, 0.0, 2.0])
    ham = dirichlet_hamiltonian(sub, w)
    spec = eigendecompose(ham)
    ref = np.linalg.eigvalsh(ham.entries)
    assert abs(spec.gap - (ref[1] - ref[0])) <= 1e-10
    value, _ = bound_thm4(spec)
    assert value <= spec.gap + 1e-9


def test_thm4_soundness_random_q3(rng):
    sub = hypercube_instance(3)
    for _ in range(15):
        w = rng.uniform(0, 5, size=8)
        spec = eigendecompose(dirichlet_hamiltonian(sub, w))
        value, _ = bound_thm4(spec)
        assert value <= spec.gap + 1e-9


def test_thm5_weak_member_and_single_edge():
    sub = path_instance(2)
    omega = ModulusOfConcavity(sub=sub, values=np.zeros(1))
    value, weak = bound_thm5(omega, 1)
    assert value == weak == 4 * (1 - math.cos(math.pi / 3))
    assert abs(value - 2.0) <= 1e-15  # exact single-edge gap with W = 0
    spec = eigendecompose(laplacian(sub))
    assert abs(spec.gap - 2.0) <= 1e-12


def test_thm5_rejects_negative_modulus():
    sub = path_instance(4)
    omega = ModulusOfConcavity(sub=sub, values=np.array([0.0, -0.2, 0.1]))
    with pytest.raises(HypothesisFailed):
        bound_thm5(omega, 3)


def test_thm6_zero_modulus_matches_thm5():
    sub = path_instance(5)
    omega = ModulusOfConcavity(sub=sub, values=np.zeros(4))
    v5, _ = bound_thm5(omega, 4)
    v6, eq1 = bound_thm6(omega, 4)
    assert v6 == v5
    assert eq1 == v5   # zero modulus is convex; Eq-1 form collapses too


def test_thm6_constant_modulus_arithmetic():
    # D = 1: single class, backward difference reaches the boundary value
    sub = path_instance(2)
    c = 0.8
    omega = ModulusOfConcavity(sub=sub, values=np.array([c]))
    v6, eq1 = bound_thm6(omega, 1)
    weak = 4 * (1 - math.cos(math.pi / 3))
    assert abs(v6 - (weak + 2 * (math.cosh(c) - 1.0))) <= 1e-15
    # D = 4: interior differences vanish, infimum is 0 at s < D
    sub = path_instance(5)
    omega = ModulusOfConcavity(sub=sub, values=np.full(4, c))
    v6, eq1 = bound_thm6(omega, 4)
    assert abs(v6 - 4 * (1 - math.cos(math.pi / 9))) <= 1e-15
    assert eq1 is None  # constant-then-drop is not convex


def test_thm56_pipeline_on_convex_potential(rng):
    sub = path_instance(6)
    w = quadratic_potential(sub, 0.5, 2.5)
    spec = eigendecompose(dirichlet_hamiltonian(sub, w))
    u0 = spec.vector(0)
    omega = modulus_of_concavity(np.log(u0), sub)
    assert omega.is_nonnegative(1e-12)
    v5, weak = bound_thm5(omega, sub.diameter_S)
    v6, eq1 = bound_thm6(omega, sub.diameter_S)
    assert v5 <= spec.gap + 1e-9
    assert v6 <= spec.gap + 1e-9
    # omega(1) = 0 forces the cosh factor to collapse on genuine instances
    assert omega.omega_bar == 0.0
    assert v5 == weak


def test_verify_all_path_tight():
    rep = verify(path_instance(5))
    rec = rep.record("thm1")
    assert rec.applicable and rec.holds
    assert abs(rec.slack) <= 1e-9
    assert rep.record("thm2").applicable is False
    assert abs(rep.record("thm3").bound - rec.bound) <= 1e-12
    assert rep.record("thm5").applicable and rep.record("thm5").holds


def test_verify_all_hypercube_tight():
    rep = verify(hypercube_instance(4))
    rec = rep.record("thm2")
    assert rec.applicable and rec.holds
    assert abs(rec.slack) <= 1e-9
    assert abs(rep.gap - 2.0) <= 1e-9
    # normalized-Laplacian corollary and Neumann reference value in thm1
    t1 = rep.record("thm1")
    assert abs(t1.detail["normalized_laplacian_bound"] - t1.bound / 4) <= 1e-15
    assert abs(t1.detail["neumann_reference"] - 1 / (8 * 4 * 16)) <= 1e-15


def test_verify_all_cycle_sound():
    rep = verify(cycle_instance(6))
    rec = rep.record("thm1")
    assert abs(rep.gap - 1.0) <= 1e-10  # cycle oracle: 2(1 - cos(2 pi/6))
    assert rec.bound <= rep.gap + 1e-9
    assert rec.holds
    assert not rep.record("thm5").applicable  # cycle is not a path


def test_verify_all_report_invariants(rng):
    sub = path_instance(7)
    w = rng.uniform(0, 5, size=7)
    rep = verify(sub, w)
    tol_verify = 1e-9 * max(1.0, rep.gap)
    for rec in rep.records:
        if rec.applicable and rec.bound is not None:
            assert rec.holds == (rec.slack >= -tol_verify)
            assert rec.slack == rep.gap - rec.bound
    assert rep.certificate["recurrence_residual"] <= 1e-9
    d = rep.as_dict()
    assert {"graph", "exact", "theorems", "tolerances", "certificate"} <= set(d)


def test_verify_all_soundness_sweep(rng):
    # random instances: every applicable bound sits below the exact gap
    for _ in range(15):
        kind = rng.integers(0, 3)
        if kind == 0:
            sub = path_instance(int(rng.integers(2, 9)))
        elif kind == 1:
            sub = cycle_instance(int(rng.integers(3, 11)))
        else:
            sub = hypercube_instance(int(rng.integers(1, 4)))
        w = rng.uniform(0, 4, size=sub.n_vertices) if rng.random() < 0.6 else None
        rep = verify(sub, w)
        for rec in rep.records:
            if rec.applicable and rec.bound is not None:
                assert rec.slack >= -1e-9, (kind, rec)


def test_is_path_graph():
    assert is_path_graph(path_instance(4))
    assert not is_path_graph(cycle_instance(5))
    assert not is_path_graph(hypercube_instance(2))
    assert not is_path_graph(path_instance(1))


@pytest.mark.parametrize("n,potential", [(4, None), (5, None), (4, "random")])
def test_verify_all_shares_one_scan_per_eigenvector(n, potential, monkeypatch):
    # thm3 and thm4 read one extremal scan per eigenvector, and their
    # records equal standalone bound_thm3 / bound_thm4 calls bit for bit
    sub = hypercube_instance(n)
    if potential == "random":
        potential = np.random.default_rng(n).uniform(0, 3, size=sub.n_vertices)
    op = laplacian(sub) if potential is None \
        else dirichlet_hamiltonian(sub, potential)
    spec = eigendecompose(op)
    passes = []

    def spy(eta, real=moduli._extremal):
        passes.append(eta)
        return real(eta)
    monkeypatch.setattr(moduli, "_extremal", spy)
    report = verify_all(spec)
    basis = list(spec.gap_indices)
    assert len(passes) == len(basis) == (n if potential is None else 1)
    assert len({id(eta) for eta in passes}) == len(basis)

    for name, bound in (("thm3", bound_thm3), ("thm4", bound_thm4)):
        rec = report.record(name)
        standalone = [bound(spec, which=which) for which in basis]
        values = [v for v, _ in standalone]
        assert np.array(rec.detail["bounds_per_eigenvector"]).tobytes() == \
            np.array(values).tobytes()
        assert np.array(rec.detail["c_u0"]).tobytes() == \
            np.array([c.value for _, c in standalone]).tobytes()
        assert np.float64(rec.bound).tobytes() == np.float64(min(values)).tobytes()
        # the first eigenvector within the verify tolerance of the minimum
        bar = rec.bound + DEFAULT_TOL.verify_factor * max(1.0, spec.gap)
        best = next(c for v, c in standalone if v <= bar)
        assert rec.detail["pairs"] == best.pairs.shape[0]
        assert rec.detail["skipped_pairs"] == best.skipped.shape[0]


def lowered_gap_spectrum(**overrides):
    """path(6) Laplacian spectrum with lambda1 lowered by 1e-6, under
    certificate bars that admit the shift, so the tight Theorem 1 bound
    exceeds the gap by about 1e-6."""
    tol = DEFAULT_TOL.with_overrides(recurrence=1e-5, rayleigh=1e-5,
                                     **overrides)
    spec = eigendecompose(laplacian(path_instance(6)), tol)
    w = spec.eigenvalues.copy()
    w[1] -= 1e-6
    return dataclasses.replace(spec, eigenvalues=w)


def test_verify_all_reads_the_spectrum_tolerances():
    spec = lowered_gap_spectrum(verify_factor=1e-5, tie_factor=1e-4)
    report = verify_all(spec)
    assert report.tolerances == spec.tolerances.as_dict()
    thm1 = report.record("thm1")
    assert -1e-5 <= thm1.slack < 0 and thm1.holds
    assert not verify_all(lowered_gap_spectrum()).record("thm1").holds
    eta = _ground_eta(spec)
    assert eta.tie_tol == 1e-4 * max(1.0, abs(eta.values[-1]))
    verify_all(spec)
    # one entry per quantity, not one per tolerance set
    assert set(spec._kept) == {"gap_indices", "ground_state", "residuals",
                               "certificate", "eigenspace_ratios",
                               "eigenspace_scans", "log_ground_state",
                               "log_concavity", "omega"}


def test_verify_all_records_unavailable_and_failing_bounds():
    # thm3 applies, but c_u0 skips every extremal pair: the record keeps
    # the message and has no bound
    tol = DEFAULT_TOL.with_overrides(denominator_zero=1e6)
    spec = eigendecompose(build_operator(path_instance(6), "boundary"), tol)
    rec = verify_all(spec).record("thm3")
    assert rec.applicable
    assert (rec.bound, rec.slack, rec.holds, rec.detail) == \
        (None, None, None, {})
    assert rec.unavailable == "all 7 extremal pairs had |denominator| < 1e+06"
    # the tight hypercube bound sits a rounding above Q4's computed gap, so
    # it fails with no tolerance
    tol = DEFAULT_TOL.with_overrides(verify_factor=0)
    report = verify_all(eigendecompose(laplacian(hypercube_instance(4)), tol))
    rec = report.record("thm2")
    assert rec.applicable and rec.bound == 2.0
    assert rec.slack == report.gap - 2.0 < 0
    assert rec.holds is False


# -- exact non-abelian oracles on Cay(S_n, transpositions) -----------------

def transposition_graph(transpositions, n):
    """(Cay(S_n, transpositions), the permutations in table order)."""
    table, gens = transpositions(n)
    group = group_from_table(table, name=f"S{n}")
    graph = build_cayley(group, generator_set(group, gens))
    return graph, list(itertools.permutations(range(n)))


@pytest.mark.parametrize("n,k", [(n, k) for n in (4, 5) for k in range(1, n)])
def test_young_subgroups_with_the_boundary_potential(transpositions, n, k):
    # S_k x S_{n-k}, the permutations that keep {0..k-1}: a convex set, as
    # the transpositions of a geodesic between two of its members join
    # points of one cycle of their quotient, so of one block. It induces
    # Cay(S_k) x Cay(S_{n-k}), whose gap is the smallest block size >= 2
    # (Cay(S_j, transpositions) has gap j), and each member has the
    # k(n - k) transpositions across the blocks as its boundary edges
    graph, perms = transposition_graph(transpositions, n)
    sub = induce_subgraph(graph, [i for i, p in enumerate(perms)
                                  if max(p[:k]) < k])
    assert sub.n_vertices == math.factorial(k) * math.factorial(n - k)
    assert is_strongly_convex(sub)
    op = dirichlet_hamiltonian(sub, "boundary")
    assert (op.potential == k * (n - k)).all()
    report = verify_all(eigendecompose(op))
    want = min(j for j in (k, n - k) if j >= 2)
    assert abs(report.gap - want) <= \
        DEFAULT_TOL.verify_factor * max(1.0, report.gap)
    applicable = [r for r in report.records if r.applicable]
    assert applicable and all(r.holds for r in applicable)


def test_transposition_graph_with_a_random_potential(transpositions, mp_eigh):
    # S4's whole graph with a seeded uniform [0, 5] potential: the spectrum
    # and the positive ground state against mpmath at 30 digits
    graph, _ = transposition_graph(transpositions, 4)
    sub = graph.full_subgraph()
    pot = np.random.default_rng(4).uniform(0.0, 5.0, sub.n_vertices)
    op = dirichlet_hamiltonian(sub, pot)
    spec = eigendecompose(op)
    wref, vref = mp_eigh(op.entries)
    scale = max(1.0, np.abs(wref).max())
    assert np.abs(spec.eigenvalues - wref).max() <= 1e-12 * scale
    ref = np.abs(vref[:, 0])
    assert np.abs(spec.ground_state - ref).max() <= 1e-12 * ref.min()
