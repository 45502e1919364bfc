import math

import numpy as np
import pytest

from conftest import traced_peak, transposition_cayley
from gapbound import moduli
from gapbound.bounds import (_ratio_scan, _thm3, _thm4, bound_thm3, bound_thm4,
                             is_hypercube)
from gapbound.config import DEFAULT_TOL
from gapbound.errors import BoundUnavailable, EmptyAfterSkips
from gapbound.families import (cycle_graph, hypercube_graph,
                               hypercube_instance, path_instance)
from gapbound.graphs import build_cayley, induce_subgraph
from gapbound.groups import generator_set, group_from_table
from gapbound.heat import default_times, evolve
from gapbound.moduli import (ModulusOfConcavity, RatioFunction, _eta_block,
                             _eta_dilation, _eta_pairs, c_u0, extremal_pairs,
                             grad_ops, log_concavity, modulus_of_concavity,
                             modulus_of_continuity)
from gapbound.operators import (dirichlet_hamiltonian, eigendecompose,
                                laplacian)


def brute_eta(f, sub):
    """Exhaustive supremum per distance class, python loops only."""
    d = sub.diameter_S
    dist = sub.dist_S
    m = len(f)
    values = [0.0] * (d + 1)
    for s in range(1, d + 1):
        best = values[s - 1]
        for y in range(m):
            for x in range(m):
                if 0 < dist[y, x] <= s:
                    best = max(best, f[y] - f[x])
        values[s] = best
    return np.array(values)


def brute_omega(g, sub):
    """Exhaustive infimum over shortest-path-step triples, python loops."""
    d = sub.diameter_S
    hd = sub.host_dist
    m = sub.n_vertices
    gens = list(sub.gens)
    group = sub.group
    out = [math.inf] * d
    for y in range(m):
        for x in range(m):
            s = hd[y, x]
            if s < 1:
                continue
            for ai, a in enumerate(gens):
                ax = sub.nbr_local[ai, x]
                if ax < 0 or hd[ax, y] != s - 1:
                    continue
                inv_ai = gens.index(group.inv(a))
                ainv_y = sub.nbr_local[inv_ai, y]
                if ainv_y < 0:
                    continue
                val = 0.5 * ((g[ainv_y] - g[y]) + (g[ax] - g[x]))
                out[s - 1] = min(out[s - 1], val)
    return np.array([v if v < math.inf else np.nan for v in out])


def test_eta_constant_function():
    sub = path_instance(5)
    eta = modulus_of_continuity(np.zeros(5), sub)
    assert np.array_equal(eta.values, np.zeros(5))
    # every ordered distinct pair achieves the (zero) supremum
    assert extremal_pairs(eta).shape[0] == 5 * 4


def test_eta_single_edge():
    sub = path_instance(2)
    eta = modulus_of_continuity(np.array([0.0, 1.0]), sub)
    assert eta.at(1) == 1.0
    assert eta.at(-1) == -1.0
    assert eta.at(2) == 1.0   # extension eta(D+1) = eta(D)
    assert eta.at(3) == 1.0   # extension eta(D+2) = eta(D)
    xi = extremal_pairs(eta)
    assert xi.tolist() == [[1, 0]]


def test_eta_five_path_eigenvector_oracle(rng):
    sub = path_instance(5)
    spec = eigendecompose(laplacian(sub))
    f = spec.vector(1)
    eta = modulus_of_continuity(f, sub)
    assert np.allclose(eta.values, brute_eta(f, sub), atol=0)
    # monotone and dominating every pair
    assert (np.diff(eta.values) >= 0).all()
    for y in range(5):
        for x in range(5):
            assert f[y] - f[x] <= eta.at(int(sub.dist_S[y, x])) + 1e-15
    # random functions as well
    for _ in range(5):
        f = rng.normal(size=5)
        eta = modulus_of_continuity(f, sub)
        assert np.allclose(eta.values, brute_eta(f, sub), atol=0)


def test_omega_constant_and_linear_g():
    sub = path_instance(6)
    omega = modulus_of_concavity(np.zeros(6), sub)
    assert np.abs(omega.values).max() == 0.0
    # linear g: opposing first differences cancel exactly
    omega = modulus_of_concavity(0.7 * np.arange(6), sub)
    assert np.abs(omega.values).max() <= 1e-15


def test_omega_quadratic_closed_form():
    # g(x) = -c x^2 on a path: the inward difference pair telescopes to
    # c(s-1) per distance class (zero at s = 1), matching the exhaustive scan
    sub = path_instance(6)
    c = 0.3
    g = -c * np.arange(6.0) ** 2
    omega = modulus_of_concavity(g, sub)
    expected = np.array([c * (s - 1) for s in range(1, 6)])
    assert np.allclose(omega.values, expected, atol=1e-12)
    assert np.allclose(omega.values, brute_omega(g, sub), atol=0)
    assert omega.at(1) == 0.0
    assert omega.at(6) == 0.0   # boundary convention omega(D+1) = 0
    assert omega.omega_bar == 0.0


def test_extremal_pairs_five_path_oracle():
    sub = path_instance(5)
    spec = eigendecompose(laplacian(sub))
    ratio = RatioFunction.from_spectrum(spec)
    eta = modulus_of_continuity(ratio.f, sub)
    xi = set(map(tuple, extremal_pairs(eta).tolist()))
    brute = set()
    for y in range(5):
        for x in range(5):
            s = int(sub.dist_S[y, x])
            if s > 0 and ratio.f[y] - ratio.f[x] >= eta.values[s] - eta.tie_tol:
                brute.add((y, x))
    assert xi == brute


def test_ratio_orthogonality_invariant(rng):
    sub = path_instance(6)
    w = rng.uniform(0, 4, size=6)
    spec = eigendecompose(dirichlet_hamiltonian(sub, w))
    ratio = RatioFunction.from_spectrum(spec)
    assert abs(np.sum(ratio.f * ratio.u0 ** 2)) <= 1e-9


def test_ratio_delta_boundary_convention():
    # Delta_a f(x) = f(ax) - f(x), and 0 where ax leaves the subgraph: each
    # path end has one in-S neighbour, so one of its terms drops out
    sub = path_instance(3)
    spec = eigendecompose(dirichlet_hamiltonian(sub, "boundary"))
    ratio = RatioFunction.from_spectrum(spec)
    f, u0 = ratio.f, ratio.u0
    assert (sub.nbr_local < 0).sum() == 2
    plain = np.zeros(3)
    weighted = np.zeros(3)
    for cols in sub.nbr_local:
        for x, j in enumerate(cols):
            delta = f[j] - f[x] if j >= 0 else 0.0
            plain[x] += delta
            weighted[x] += delta * (u0[j] / u0[x] if j >= 0 else 0.0)
    assert np.array_equal(ratio.vertex_sums()[0], weighted)
    assert np.array_equal(ratio.vertex_sums()[1], plain)


def test_c_u0_is_one_for_zero_potential():
    for sub in (path_instance(5),
                induce_subgraph(hypercube_graph(3), [0, 1, 2, 3])):
        spec = eigendecompose(laplacian(sub))
        ratio = RatioFunction.from_spectrum(spec)
        eta = modulus_of_continuity(ratio.f, sub)
        const = c_u0(ratio, extremal_pairs(eta))
        assert abs(const.value - 1.0) <= 1e-12


def test_c_u0_single_edge_hand_oracle():
    # H = [[1, -1], [-1, 1+v]]: gamma = sqrt(v^2+4), u0 = (1, 1-lambda0),
    # and the one extremal pair gives C = (r + 1/r)/2 with r = 1 - lambda0
    sub = path_instance(2)
    v = 1.7
    ham = dirichlet_hamiltonian(sub, np.array([0.0, v]))
    spec = eigendecompose(ham)
    lam0 = (2 + v - math.sqrt(v * v + 4)) / 2
    assert abs(spec.lambda0 - lam0) <= 1e-12
    ratio = RatioFunction.from_spectrum(spec)
    eta = modulus_of_continuity(ratio.f, sub)
    const = c_u0(ratio, extremal_pairs(eta))
    r = 1 - lam0
    assert abs(const.value - (r + 1 / r) / 2) <= 1e-10
    # Theorem-3 soundness on this instance: gamma >= 2 C
    assert spec.gap >= 2 * const.value - 1e-12


def test_c_u0_four_path_brute_oracle():
    sub = path_instance(4)
    ham = dirichlet_hamiltonian(sub, np.array([0.0, 0.0, 0.0, 3.0]))
    spec = eigendecompose(ham)
    ratio = RatioFunction.from_spectrum(spec)
    eta = modulus_of_continuity(ratio.f, sub)
    xi = extremal_pairs(eta)
    const = c_u0(ratio, xi)

    # independent evaluation straight from the definition
    gens_nbrs = sub.nbr_local
    def sums(v):
        wtot, ptot = 0.0, 0.0
        for ai in range(gens_nbrs.shape[0]):
            j = gens_nbrs[ai, v]
            if j >= 0:
                df = ratio.f[j] - ratio.f[v]
                ptot += df
                wtot += df * ratio.u0[j] / ratio.u0[v]
        return wtot, ptot
    best = math.inf
    for y, x in xi:
        wy, py = sums(y)
        wx, px = sums(x)
        if abs(py - px) < DEFAULT_TOL.denominator_zero:
            continue
        best = min(best, (wy - wx) / (py - px))
    assert abs(const.value - best) <= 1e-13
    mu = 2 * (1 - math.cos(math.pi / (sub.diameter_S + 1)))
    assert spec.gap >= const.value * mu - 1e-9


def test_c_u0_empty_after_skips():
    sub = path_instance(3)
    u0 = np.ones(3) / math.sqrt(3)
    ratio = RatioFunction.from_vectors(u0, u0, sub)  # constant f: all dens 0
    eta = modulus_of_continuity(ratio.f, sub)
    with pytest.raises(EmptyAfterSkips):
        c_u0(ratio, extremal_pairs(eta))


def test_c_u0_given_no_pairs_says_so():
    # no pair was skipped, so the skip message would name a false cause
    sub = path_instance(3)
    u0 = np.ones(3) / math.sqrt(3)
    ratio = RatioFunction.from_vectors(u0, np.array([1.0, 0.0, -1.0]), sub)
    with pytest.raises(BoundUnavailable) as exc:
        c_u0(ratio, np.empty((0, 2), dtype=np.int64))
    assert not isinstance(exc.value, EmptyAfterSkips)
    assert str(exc.value) == "no extremal pairs were given"


def test_c_u0_distance_le_2_restriction():
    sub = hypercube_graph(3).full_subgraph()
    rng = np.random.default_rng(3)
    ham = dirichlet_hamiltonian(sub, rng.uniform(0, 5, size=8))
    spec = eigendecompose(ham)
    ratio = RatioFunction.from_spectrum(spec)
    eta = modulus_of_continuity(ratio.f, sub)
    const = c_u0(ratio, eta.achievers[2])
    for y, x in const.pairs:
        assert 0 < sub.dist_S[y, x] <= 2
        assert ratio.f[y] - ratio.f[x] >= eta.values[2] - eta.tie_tol


def test_grad_ops_linear_eta_constant_gradient():
    sub = path_instance(5)
    f = 0.5 * np.arange(5.0)
    eta = modulus_of_continuity(f, sub)
    omega = modulus_of_concavity(np.zeros(5), sub)
    tables = grad_ops(eta, omega)
    assert np.allclose(tables.grad_eta, 0.5, atol=1e-15)
    assert np.abs(tables.dcosh_omega).max() == 0.0


def test_grad_ops_decreasing_omega_arithmetic():
    # omega(s) = c (D+1-s): backward cosh difference straight arithmetic
    sub = path_instance(5)
    d = sub.diameter_S
    c = 0.4
    vals = np.array([c * (d + 1 - s) for s in range(1, d + 1)])
    omega = ModulusOfConcavity(sub=sub, values=vals)
    eta = modulus_of_continuity(np.arange(5.0), sub)
    tables = grad_ops(eta, omega)
    expected = [math.cosh(c * (d + 1 - s)) - math.cosh(c * (d - s))
                for s in range(1, d + 1)]
    assert np.allclose(tables.dcosh_omega, expected, atol=1e-15)
    # infimum sits at s = D and equals cosh(omega_bar) - 1
    assert abs(tables.dcosh_omega.min()
               - (math.cosh(omega.omega_bar) - 1.0)) <= 1e-15
    assert omega.is_convex()


def test_omega_convexity_flag():
    sub = path_instance(5)
    zero = ModulusOfConcavity(sub=sub, values=np.zeros(4))
    assert zero.is_convex()
    rising = ModulusOfConcavity(sub=sub,
                                values=np.array([0.0, 0.3, 0.6, 0.9]))
    # increasing then forced back to 0 at D+1: not convex
    assert not rising.is_convex()


def test_log_concavity_predicate():
    sub = path_instance(6)
    # convex potential: ground state is log-concave
    w = 0.5 * (np.arange(6.0) - 2.5) ** 2
    spec = eigendecompose(dirichlet_hamiltonian(sub, w))
    u0 = spec.vector(0)
    assert log_concavity(np.log(np.abs(u0)), sub).holds
    # center barrier: bimodal ground state violates concavity at the middle
    barrier = np.array([0.0, 0.0, 6.0, 6.0, 0.0, 0.0])
    spec = eigendecompose(dirichlet_hamiltonian(sub, barrier))
    u0 = spec.vector(0)
    report = log_concavity(np.log(np.abs(u0)), sub)
    assert not report.holds
    assert report.witness is not None


def near_tie_pairs(tol):
    # f = 0..7 on path(8) with f[7] lowered by 1e-7: the pairs ending at
    # vertex 7 fall short of eta by 1e-7 and tie only under a wide bar
    f = np.arange(8.0)
    f[7] -= 1e-7
    return len(extremal_pairs(modulus_of_continuity(f, path_instance(8), tol)))


def tiny_denominator_kept(tol):
    # u0 = 1, f = (0, 0, 0, 1e-10) on path(4): the pair (3, 0) has the
    # plain-difference denominator -1e-10
    ratio = RatioFunction.from_vectors(
        np.ones(4), np.array([0.0, 0.0, 0.0, 1e-10]), path_instance(4))
    try:
        return c_u0(ratio, np.array([[3, 0]]), tol).pairs.shape[0] == 1
    except EmptyAfterSkips:
        return False


def slightly_convex_log_holds(tol):
    # g = 0 but g[2] = -1e-8 on path(5): the difference sum at vertex 2 is
    # 2e-8
    g = np.zeros(5)
    g[2] = -1e-8
    return log_concavity(g, path_instance(5), tol).holds


# bar -> (what it decides on a constructed input whose measured quantity
# lies between the default and 1000 times it, at the default, at 1000x)
MODULI_BARS = {
    "tie_factor": (near_tie_pairs, 22, 28),
    "denominator_zero": (tiny_denominator_kept, True, False),
    "concavity_slack": (slightly_convex_log_holds, False, True),
}


@pytest.mark.parametrize("bar", MODULI_BARS)
def test_moduli_bar_decides_differently_at_1000x(bar):
    decide, at_default, at_1000x = MODULI_BARS[bar]
    assert decide(DEFAULT_TOL) == at_default
    wide = DEFAULT_TOL.with_overrides(**{bar: getattr(DEFAULT_TOL, bar) * 1000})
    assert decide(wide) == at_1000x


def _achieving_pairs(u, sub, eta):
    pairs = []
    for s in range(1, sub.diameter_S + 1):
        for y, x in eta.achievers[s]:
            if sub.dist_S[y, x] == s and u[y] >= u[x]:
                pairs.append((y, x, s))
    return pairs


@pytest.mark.parametrize("make_sub", [
    lambda: induce_subgraph(cycle_graph(9), range(4)),
    lambda: induce_subgraph(hypercube_graph(4),
                            [v for v in range(16) if v & 1 == 0]),
])
def test_boundary_comparison_props(make_sub, rng):
    # the two boundary comparison facts and the reduction inequality used
    # by the lattice-comparison proof, checked on convex instances
    sub = make_sub()
    spec = eigendecompose(laplacian(sub))
    lap = laplacian(sub).entries
    gens = list(sub.gens)
    for u in (spec.vector(1), rng.normal(size=sub.n_vertices)):
        eta = modulus_of_continuity(u, sub)
        # BCs: for y, x, ay in S: ax in S or |u(ay) - u(x)| <= eta(d(y,x))
        for y in range(sub.n_vertices):
            for x in range(sub.n_vertices):
                for ai in range(len(gens)):
                    ay = sub.nbr_local[ai, y]
                    ax = sub.nbr_local[ai, x]
                    if ay < 0 or ax >= 0:
                        continue
                    s = int(sub.dist_S[y, x])
                    assert abs(u[ay] - u[x]) <= eta.at(s) + 1e-12 if s > 0 \
                        else True
        # BCs2 and reduce at achieving pairs
        for y, x, s in _achieving_pairs(u, sub, eta):
            ky = set(np.nonzero(sub.nbr_local[:, y] >= 0)[0])
            kx = set(np.nonzero(sub.nbr_local[:, x] >= 0)[0])
            for ai in ky - kx:
                assert u[sub.nbr_local[ai, y]] - u[y] <= 1e-12
            for ai in kx - ky:
                assert u[sub.nbr_local[ai, x]] - u[x] >= -1e-12
            lhs = -lap[y] @ u + lap[x] @ u
            common = sorted(ky & kx)
            for _ in range(4):
                take = [ai for ai in common if rng.random() < 0.5]
                jy = [ai for ai in sorted(ky - kx) if rng.random() < 0.5]
                jx = [ai for ai in sorted(kx - ky) if rng.random() < 0.5]
                rhs = sum(u[sub.nbr_local[ai, y]] - u[y] for ai in take + jy) \
                    - sum(u[sub.nbr_local[ai, x]] - u[x] for ai in take + jx)
                assert lhs <= rhs + 1e-12


# -- bit-identity oracles ------------------------------------------------------
# The reference functions below are the per-distance-class scans that the
# one-pass code replaced: one full m x m mask pass per class. The one-pass
# results must equal them exactly (np.array_equal, not allclose).

def loop_eta(f, sub, tol=DEFAULT_TOL):
    """(values, tie_tol): running max of the per-class max of f(y) - f(x)."""
    d = sub.diameter_S
    dist = sub.dist_S
    diff = f[:, None] - f[None, :]
    values = np.zeros(d + 1)
    for s in range(1, d + 1):
        cls = diff[dist == s]
        here = cls.max() if cls.size else -np.inf
        values[s] = max(values[s - 1], here)
    return values, tol.tie_factor * max(1.0, abs(values[d]))


def loop_extremal(f, sub, values, tie):
    dist = sub.dist_S
    diff = f[:, None] - f[None, :]
    mask = (dist > 0) & (diff >= values[dist] - tie)
    return np.argwhere(mask).astype(np.int32)


def loop_eta_achievers(f, sub, values, tie):
    dist = sub.dist_S
    diff = f[:, None] - f[None, :]
    return {s: np.argwhere((dist <= s) & (dist > 0)
                           & (diff >= values[s] - tie)).astype(np.int32)
            for s in range(1, sub.diameter_S + 1)}


def loop_omega(g, sub):
    """omega(1..D): per generator, one mask pass per class."""
    sub_d = sub.diameter_S
    host = sub.host
    gens = list(host.gens)
    hd = sub.host_dist
    m = sub.n_vertices
    per_gen = []
    for ai, a in enumerate(gens):
        ax = sub.nbr_local[ai]
        ainv_y = sub.nbr_local[gens.index(host.group.inv(a))]
        ok_x = ax >= 0
        dax = np.full((m, m), -2, dtype=np.int64)
        dax[:, ok_x] = hd[:, ax[ok_x]]
        admit = dax == hd - 1
        admit = admit & (ainv_y >= 0)[:, None] & (hd >= 1)
        val = np.full((m, m), np.nan)
        yy, xx = np.nonzero(admit)
        val[yy, xx] = 0.5 * ((g[ainv_y[yy]] - g[yy]) + (g[ax[xx]] - g[xx]))
        per_gen.append((admit, val))
    best = np.full(sub_d, np.nan)
    for admit, val in per_gen:
        for s in range(1, sub_d + 1):
            sel = admit & (hd == s)
            if sel.any():
                vmin = val[sel].min()
                if np.isnan(best[s - 1]) or vmin < best[s - 1]:
                    best[s - 1] = vmin
    return best


ORACLE_INSTANCES = {
    "path1": lambda: path_instance(1),
    "path2": lambda: path_instance(2),
    "path3": lambda: path_instance(3),
    "path17": lambda: path_instance(17),
    "path40": lambda: path_instance(40),
    "cycle3": lambda: cycle_graph(3).full_subgraph(),
    "cycle8": lambda: cycle_graph(8).full_subgraph(),
    "cycle11": lambda: cycle_graph(11).full_subgraph(),
    "C12-arc": lambda: induce_subgraph(cycle_graph(12), range(5)),
    "Q1": lambda: hypercube_graph(1).full_subgraph(),
    "Q3": lambda: hypercube_graph(3).full_subgraph(),
    "Q5": lambda: hypercube_graph(5).full_subgraph(),
    "Q5-subcube": lambda: induce_subgraph(
        hypercube_graph(5), [v for v in range(32) if v & 0b10100 == 0b00100]),
}


def oracle_functions(sub, rng):
    """Smooth, random and tie-heavy vertex functions on `sub`."""
    m = sub.n_vertices
    funcs = [rng.normal(size=m), np.round(rng.normal(size=m), 1),
             rng.integers(-2, 3, size=m).astype(float), np.zeros(m),
             # near-ties far above 1, inside the relative tie tolerances
             1e3 * np.round(rng.normal(size=m), 1) + 1e-10 * rng.normal(size=m)]
    if m >= 2:
        spec = eigendecompose(dirichlet_hamiltonian(sub, "boundary"))
        funcs.append(spec.vector(1) / spec.vector(0))
        funcs.append(np.log(spec.vector(0)))
    return funcs


@pytest.mark.parametrize("name", sorted(ORACLE_INSTANCES))
def test_eta_matches_class_loop_bit_for_bit(name, rng):
    sub = ORACLE_INSTANCES[name]()
    for f in oracle_functions(sub, rng):
        eta = modulus_of_continuity(f, sub)
        values, tie = loop_eta(f, sub)
        assert np.array_equal(eta.values, values)
        assert eta.tie_tol == tie
        assert np.array_equal(extremal_pairs(eta),
                              loop_extremal(f, sub, values, tie))
        assert extremal_pairs(eta).dtype == np.int32
        ref = loop_eta_achievers(f, sub, values, tie)
        assert eta.achievers.keys() == ref.keys()
        for s in ref:
            assert eta.achievers[s].dtype == ref[s].dtype
            assert np.array_equal(eta.achievers[s], ref[s])


# the ids name the admissibility the loop checks: one step along a geodesic
@pytest.mark.parametrize("name", sorted(ORACLE_INSTANCES),
                         ids=lambda name: f"{name}-step")
def test_omega_matches_class_loop_bit_for_bit(name, rng):
    sub = ORACLE_INSTANCES[name]()
    for g in oracle_functions(sub, rng):
        omega = modulus_of_concavity(g, sub)
        assert np.array_equal(omega.values, loop_omega(g, sub),
                              equal_nan=True)


@pytest.mark.parametrize("name", ["path40", "cycle11", "C12-arc", "Q5",
                                  "Q5-subcube"])
def test_omega_over_row_blocks_matches_class_loop(name, rng, monkeypatch):
    # blocks of three or more rows y (three when every x has ax in S):
    # np.minimum.at meets the triples in the order of one whole-matrix
    # pass, so no bit moves, signed zeros included
    sub = ORACLE_INSTANCES[name]()
    monkeypatch.setattr(moduli, "_SCAN_CELLS", 8 * 3 * sub.n_vertices)
    for g in oracle_functions(sub, rng):
        omega = modulus_of_concavity(g, sub)
        assert same_bits(omega.values, loop_omega(g, sub))


def test_omega_keeps_to_the_scan_budget():
    # path(512)+boundary, log of its ground state: the admissible-triple
    # masks are built per row block. Measured peak 8.74 -> 0.46 MiB
    m = 512
    sub = path_instance(m)
    g = np.log(np.sin(np.pi * np.arange(1, m + 1) / (m + 1)))
    omega, peak = traced_peak(lambda: modulus_of_concavity(g, sub))
    assert peak <= 2 ** 20
    assert same_bits(omega.values, loop_omega(g, sub))


# -- block eta: both algorithms against the class loop -------------------------

def same_bits(a, b):
    """Equal dtype, shape and bytes, so -0.0 differs from +0.0."""
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def eta_blocks(sub, rng):
    """Blocks of several rows: random, rounded, all-zero with signed zeros,
    near-tie and heat-trajectory rows."""
    m = sub.n_vertices
    zeros = np.zeros((3, m))
    zeros[1, ::2] = -0.0
    zeros[2] = -0.0
    blocks = [rng.normal(size=(4, m)), np.round(rng.normal(size=(4, m)), 1),
              zeros,
              1e3 * np.round(rng.normal(size=(4, m)), 1)
              + 1e-10 * rng.normal(size=(4, m))]
    if m >= 2:
        op = dirichlet_hamiltonian(sub, "boundary")
        spec = eigendecompose(op)
        blocks.append(evolve(spec, spec.vector(1) + spec.vector(m - 1),
                             default_times(spec.gap)[::5]).states)
    return blocks


def loop_eta_rows(block, sub):
    return np.array([loop_eta(f, sub)[0] for f in block])


@pytest.mark.parametrize("name", sorted(ORACLE_INSTANCES))
def test_block_eta_matches_class_loop_bit_for_bit(name, rng):
    sub = ORACLE_INSTANCES[name]()
    for block in eta_blocks(sub, rng):
        ref = loop_eta_rows(block, sub)
        assert same_bits(_eta_pairs(block, sub), ref)
        assert same_bits(_eta_dilation(block, sub), ref)
        assert same_bits(_eta_block(block, sub), ref)


def test_block_eta_spans_several_dilation_blocks(rng, monkeypatch):
    # more rows than one block of _SCAN_CELLS cells, with a short last block
    monkeypatch.setattr(moduli, "_SCAN_CELLS", 3 * 32)
    sub = ORACLE_INSTANCES["Q5"]()
    block = np.round(rng.normal(size=(7, 32)), 1)
    assert same_bits(_eta_dilation(block, sub), loop_eta_rows(block, sub))


@pytest.mark.parametrize("b", [1, 2, 315])
@pytest.mark.parametrize("name", ["path40", "Q5"])
def test_pair_scan_over_runs_matches_class_loop_bit_for_bit(name, b, rng,
                                                           monkeypatch):
    # runs of 24 pairs: path(40)'s class 1 (39 pairs) and Q5's classes (16
    # to 160 pairs) span several runs, and some runs meet several classes;
    # B = 1 and 2 reduce by reduceat, B = 315 by the per-class loop
    monkeypatch.setattr(moduli, "_SCAN_CELLS", 2 * 24 * b)
    sub = ORACLE_INSTANCES[name]()
    _, _, starts = sub._distance_classes()
    runs = sub._class_chunks(24)
    assert any(edges.size > 1 for _, _, _, edges in runs)
    assert any(starts[c] < 24 * i for i, (_, _, c, _) in enumerate(runs))
    m = sub.n_vertices
    zeros = np.zeros((b, m))
    zeros[:, ::3] = -0.0
    # a NaN at vertex 30 falls in the second run of path(40)'s class 1
    # (pairs 29 and 30), and in every class of Q5
    nan = rng.normal(size=(b, m))
    nan[0, 30] = np.nan
    blocks = [rng.normal(size=(b, m)), np.round(rng.normal(size=(b, m)), 1),
              zeros, nan]
    for block in blocks:
        values = _eta_pairs(block, sub)
        assert same_bits(values, loop_eta_rows(block, sub))
        assert np.signbit(values).sum() == 0
        assert same_bits(values[0], modulus_of_continuity(block[0], sub).values)


@pytest.fixture
def eta_spy(monkeypatch):
    """Names of the eta algorithms _eta_block runs, in call order."""
    calls = []
    for name in ("_eta_pairs", "_eta_dilation"):
        def spy(states, sub, real=getattr(moduli, name), name=name):
            calls.append(name)
            return real(states, sub)
        monkeypatch.setattr(moduli, name, spy)
    return calls


def test_block_eta_selection(eta_spy, rng):
    q8 = hypercube_graph(8).full_subgraph()
    block = rng.normal(size=(3, q8.n_vertices))
    assert same_bits(_eta_block(block, q8), loop_eta_rows(block, q8))
    assert same_bits(_eta_block(block[:1], q8), loop_eta_rows(block[:1], q8))
    path = path_instance(40)
    assert same_bits(_eta_block(block[:, :40], path),
                     loop_eta_rows(block[:, :40], path))
    assert eta_spy == ["_eta_dilation", "_eta_pairs", "_eta_pairs"]


def test_block_eta_with_nan_keeps_pair_scan(eta_spy, rng):
    # a NaN class leaves eta unchanged, as in the single-row scan
    q8 = hypercube_graph(8).full_subgraph()
    block = rng.normal(size=(3, q8.n_vertices))
    block[1, 17] = np.nan
    values = _eta_block(block, q8)
    assert eta_spy == ["_eta_pairs"]
    assert same_bits(values, loop_eta_rows(block, q8))
    for f, row in zip(block, values):
        assert same_bits(modulus_of_continuity(f, q8).values, row)


# -- the lambda1 eigenspace block against the one-vector route ----------------

def transposition_graph(n):
    table, gens = transposition_cayley(n)
    group = group_from_table(table, name=f"S{n}")
    return build_cayley(group, generator_set(group, gens)).full_subgraph()


# Q6 and S5 take ball dilation for the block, the others the pair scan
EIGENSPACE_INSTANCES = {
    **{f"Q{n}": (lambda n=n: laplacian(hypercube_graph(n).full_subgraph()))
       for n in range(3, 7)},
    "Q5-subcube-boundary": lambda: dirichlet_hamiltonian(
        induce_subgraph(hypercube_graph(6), range(32)), "boundary"),
    "cycle20": lambda: laplacian(cycle_graph(20).full_subgraph()),
    # not convex, and its lambda1 is simple: a one-row block
    "C8-long-arc": lambda: laplacian(induce_subgraph(cycle_graph(8), range(6))),
    "S4": lambda: laplacian(transposition_graph(4)),
    "S5": lambda: laplacian(transposition_graph(5)),
}


def per_vector_scan(spec, which):
    """The one-vector route: u_which / u0, its own modulus and sums."""
    ratio = RatioFunction.from_spectrum(spec, which)
    return ratio, modulus_of_continuity(ratio.f, ratio.sub, spec.tolerances)


def outcome(theorem, scan, tol):
    """(value, c_u0) of Theorem 3 or 4 on a scan, or the reason it is
    unavailable."""
    try:
        value, const = theorem(*scan, tol)
    except BoundUnavailable as exc:
        return str(exc)
    return value, const.value


def test_extremal_scan_over_row_blocks_matches_the_mask(rng):
    # Q9 has 512 vertices, so the scan takes its rows y in four blocks of
    # _SCAN_CELLS // 512 = 128; the rounded vector ties many pairs, in
    # every block
    sub = hypercube_instance(9)
    m = sub.n_vertices
    rows = moduli._SCAN_CELLS // m
    assert rows < m
    spec = eigendecompose(laplacian(sub))
    for f in (spec.vector(1), np.round(rng.normal(size=m), 1)):
        eta = modulus_of_continuity(f, sub)
        pairs, dist, diff = moduli._extremal(eta)
        want = loop_extremal(f, sub, eta.values, eta.tie_tol)
        assert np.unique(want[:, 0] // rows).size > 1
        assert same_bits(pairs, want)
        assert same_bits(dist, sub.dist_S[want[:, 0], want[:, 1]])
        assert same_bits(diff, f[want[:, 0]] - f[want[:, 1]])


def assert_same_scan(got, want, tol):
    (ratio, eta), (ref_ratio, ref_eta) = got, want
    f, sub = ref_ratio.f, ref_ratio.sub
    assert same_bits(ratio.f, f) and same_bits(eta.f, f)
    assert same_bits(ratio.u0, ref_ratio.u0)
    assert same_bits(eta.values, ref_eta.values)
    assert eta.tie_tol == ref_eta.tie_tol
    # the references are the three-mask scans, so the dtype is int32
    assert same_bits(extremal_pairs(eta),
                     loop_extremal(f, sub, ref_eta.values, ref_eta.tie_tol))
    achievers = loop_eta_achievers(f, sub, ref_eta.values, ref_eta.tie_tol)
    assert eta.achievers.keys() == achievers.keys()
    for s, pairs in achievers.items():
        assert same_bits(eta.achievers[s], pairs), s
    for table, ref_table in zip(ratio.vertex_sums(), ref_ratio.vertex_sums()):
        assert same_bits(table, ref_table)
    for theorem in (_thm3, _thm4):
        assert outcome(theorem, got, tol) == outcome(theorem, want, tol)


@pytest.mark.parametrize("name", EIGENSPACE_INSTANCES)
def test_eigenspace_block_matches_per_vector_route(name):
    spec = eigendecompose(EIGENSPACE_INSTANCES[name]())
    basis = spec.gap_indices
    assert (len(basis) == 1) == (name == "C8-long-arc")
    block = moduli._eigenspace_scans(spec)
    assert len(block) == len(basis)
    assert moduli._ground_ratio(spec) is block[0][0]
    assert moduli._ground_eta(spec) is block[0][1]
    for which in basis:
        scan = _ratio_scan(spec, which)
        assert scan is block[which - 1]
        assert_same_scan(scan, per_vector_scan(spec, which), spec.tolerances)


@pytest.mark.parametrize("name", ["Q4", "S4", "C8-long-arc"])
def test_ratio_bounds_outside_the_eigenspace_raise(name):
    # Theorems 3 and 4 cover the lambda1 eigenvectors only; Theorem 4
    # rejects a non-hypercube host before it reads the eigenvector
    spec = eigendecompose(EIGENSPACE_INSTANCES[name]())
    which = spec.gap_indices.stop
    hypercube = is_hypercube(spec.operator.source)
    for bound in [bound_thm3] + [bound_thm4] * hypercube:
        with pytest.raises(ValueError, match="outside the lambda1 eigenspace"):
            bound(spec, which)
    assert "eigenspace_scans" not in spec._kept
