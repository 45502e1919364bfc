import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapbound import graphs
from gapbound.errors import DisconnectedSubgraph, NotInvariant
from gapbound.graphs import (build_cayley, convex_closure, induce_subgraph,
                             is_strongly_convex)
from gapbound.groups import (cyclic_group, direct_product,
                             elementary_abelian_2, generator_set,
                             group_from_table)
from gapbound.families import (cycle_graph, cycle_instance, hypercube_graph,
                               hypercube_instance, path_instance,
                               subcube_instance)

from test_groups import FAMILY_CASES, s3_table


def k_x(sub, i):
    """Generator elements a with a*v_i inside S (the set K_x)."""
    keep = sub.nbr_local[:, i] >= 0
    return [a for a, k in zip(sub.host.gens, keep) if k]


def bfs_dist_oracle(graph):
    """Per-source BFS, independent of the word-metric shortcut."""
    n = graph.n_vertices
    nbrs = [[int(graph.act[a, x]) for a in range(graph.degree)]
            for x in range(n)]
    dist = np.full((n, n), -1, dtype=int)
    for s in range(n):
        dist[s, s] = 0
        frontier = [s]
        level = 0
        while frontier:
            level += 1
            nxt = []
            for x in frontier:
                for y in nbrs[x]:
                    if dist[s, y] < 0:
                        dist[s, y] = level
                        nxt.append(y)
            frontier = nxt
    return dist


def s3_transposition_graph():
    table, perms, index = s3_table()
    g = group_from_table(table, name="S3")
    transpositions = [index[p] for p in perms
                      if sum(p[i] != i for i in range(3)) == 2]
    k = generator_set(g, transpositions)
    return build_cayley(g, k)


def test_single_edge():
    g = cyclic_group(2)
    graph = build_cayley(g, generator_set(g, [1]))
    assert graph.n_vertices == 2
    assert graph.diameter == 1


def test_hypercube_hamming_metric():
    for n in (2, 3, 4):
        graph = hypercube_graph(n)
        ids = np.arange(1 << n)
        hamming = np.array([[bin(x ^ y).count("1") for y in ids] for x in ids])
        assert np.array_equal(graph.dist, hamming)
        assert graph.diameter == n


def test_cycle_distance_oracle():
    graph = cycle_graph(6)
    oracle = np.array([[min(abs(i - j), 6 - abs(i - j)) for j in range(6)]
                       for i in range(6)])
    assert np.array_equal(graph.dist, oracle)
    assert graph.diameter == 3


def family_graph(name):
    """The Cayley graph of a family group of test_groups on its invariant
    generating set."""
    make, *_, gens = FAMILY_CASES[name]
    g = make()
    return build_cayley(g, generator_set(g, gens))


@pytest.mark.parametrize("make", [
    lambda: cycle_graph(6),
    lambda: hypercube_graph(3),
    s3_transposition_graph,
] + [pytest.param(lambda name=name: family_graph(name), id=name)
     for name, case in FAMILY_CASES.items() if case[-1] is not None])
def test_dist_matches_per_source_bfs(make):
    graph = make()
    assert np.array_equal(graph.dist, bfs_dist_oracle(graph))


def bfs_within(sub):
    """Per-source BFS over the edges inside S, in plain python."""
    m = sub.n_vertices
    nbrs = [[int(j) for j in sub.nbr_local[:, x] if j >= 0] for x in range(m)]
    dist = np.full((m, m), -1, dtype=int)
    for s in range(m):
        dist[s, s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for x in frontier:
                for y in nbrs[x]:
                    if dist[s, y] < 0:
                        dist[s, y] = dist[s, x] + 1
                        nxt.append(y)
            frontier = nxt
    return dist


def torus_square():
    """The 2x2 square {(0,0), (0,1), (1,0), (1,1)} of the torus C4 x C3."""
    g = direct_product(cyclic_group(4), cyclic_group(3))   # (a, b) -> 3a + b
    host = build_cayley(g, generator_set(g, [1, 2, 3, 9]))
    return induce_subgraph(host, [0, 1, 3, 4])


SUBGRAPHS = {
    "C12-arc": lambda: induce_subgraph(cycle_graph(12), range(5)),
    "Q4-subcube": lambda: induce_subgraph(
        hypercube_graph(4), [v for v in range(16) if v & 0b0110 == 0b0010]),
    # the half arc of C6 and a long arc of C8 are not convex; in the long
    # arc the distance within S exceeds the host distance
    "C6-half-arc": lambda: induce_subgraph(cycle_graph(6), [0, 1, 2, 3]),
    "C8-long-arc": lambda: induce_subgraph(cycle_graph(8), range(6)),
    "S3-point": lambda: induce_subgraph(s3_transposition_graph(), [0]),
    "Z4xZ3-square": torus_square,
}


@pytest.mark.parametrize("make", SUBGRAPHS.values(), ids=SUBGRAPHS.keys())
def test_subgraph_dist_matches_per_source_bfs(make):
    sub = make()
    assert np.array_equal(sub.dist_S, bfs_within(sub))
    assert sub.diameter_S == sub.dist_S.max()


@pytest.mark.parametrize("name,realised", [
    ("C12-arc", True), ("Q4-subcube", True), ("C6-half-arc", True),
    ("C8-long-arc", False), ("S3-point", True), ("Z4xZ3-square", True)])
def test_distance_certificate_decides_bfs(name, realised, monkeypatch):
    # the certificate holds exactly where dist_S equals the host distances;
    # the BFS inside S runs only where it fails
    sub = SUBGRAPHS[name]()
    hd = sub.host_dist
    assert graphs._host_distances_realised(hd, sub.nbr_local) == realised
    assert np.array_equal(sub.dist_S, hd) == realised
    calls = []
    bfs = graphs._all_pairs_bfs
    monkeypatch.setattr(graphs, "_all_pairs_bfs",
                        lambda nbr: calls.append(1) or bfs(nbr))
    again = SUBGRAPHS[name]()
    assert len(calls) == (not realised)
    assert np.array_equal(again.dist_S, sub.dist_S)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=5), data=st.data())
def test_grown_convex_subgraph_dist_matches_bfs(n, data):
    graph = hypercube_graph(n)
    seeds = data.draw(st.sets(
        st.integers(min_value=0, max_value=(1 << n) - 1),
        min_size=1, max_size=3))
    sub = induce_subgraph(graph, convex_closure(graph, sorted(seeds)))
    assert np.array_equal(sub.dist_S, bfs_within(sub))


def test_disconnected_vertex_set_raises():
    # two arcs of C10 with a gap on both sides: 5 and 6 are unreachable
    # from 0 after the frontier has crossed the first arc
    with pytest.raises(DisconnectedSubgraph, match="^2 vertices unreachable"):
        induce_subgraph(cycle_graph(10), [0, 1, 2, 5, 6])


def test_not_invariant_rejected():
    table, perms, index = s3_table()
    g = group_from_table(table, name="S3")
    transpositions = [index[p] for p in perms
                      if sum(p[i] != i for i in range(3)) == 2]
    with pytest.raises(NotInvariant):
        build_cayley(g, generator_set(g, transpositions[:2]))


@pytest.mark.parametrize("make", [
    lambda: cycle_graph(6),
    lambda: hypercube_graph(3),
    s3_transposition_graph,
])
def test_left_translation_isometry(make):
    # d(ax, ay) = d(x, y) for every generator a on invariant graphs
    graph = make()
    for ai in range(graph.degree):
        act = graph.act[ai]
        assert np.array_equal(graph.dist[np.ix_(act, act)], graph.dist)


def test_dist_symmetry_and_triangle():
    graph = s3_transposition_graph()
    d = graph.dist
    assert np.array_equal(d, d.T)
    n = graph.n_vertices
    for k in range(n):
        assert (d <= d[:, [k]] + d[[k], :]).all()


def test_full_subgraph_trivial_boundary():
    graph = cycle_graph(6)
    sub = graph.full_subgraph()
    assert sub.boundary.size == 0
    assert sub.is_full
    assert np.array_equal(sub.dist_S, graph.dist)


@pytest.mark.parametrize("make", [lambda: hypercube_instance(6),
                                  lambda: cycle_instance(9)],
                         ids=["Q6", "cycle9"])
def test_full_graph_keeps_one_distance_array(make):
    # a full graph's distances within S are its host distances, one n x n
    # array; neither the host graph nor its group keeps an n x n array
    sub = make()
    assert np.shares_memory(sub.dist_S, sub.host_dist)
    assert not sub.dist_S.flags.writeable
    n = sub.n_vertices
    kept = [a for obj in (sub.host, sub.group) for a in vars(obj).values()
            if isinstance(a, np.ndarray)]
    assert kept and max(a.size for a in kept) <= sub.host.degree * n


MiB = 1 << 20


def traced_build(make):
    """make(), with the tracemalloc memory it keeps and its peak, in bytes
    above what was traced when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        built = make()
        kept, peak = tracemalloc.get_traced_memory()
        return built, kept - base, peak - base
    finally:
        tracemalloc.stop()


def test_path_build_keeps_only_its_own_distances():
    # path(512) is an arc of C_1024: its own int32 distances take 1 MiB,
    # the host's n x n table or distances would take 4 MiB each
    sub, kept, peak = traced_build(lambda: path_instance(512))
    assert sub.host_dist.shape == (512, 512)
    assert kept <= 2 * MiB
    assert peak <= 8 * MiB


def test_hypercube_graph_builds_without_a_table():
    # the int32 table of Z_2^14 alone would take 1 GiB
    graph, _, peak = traced_build(lambda: hypercube_graph(14))
    assert graph.diameter == 14
    assert peak <= 8 * MiB


def test_convexity_scan_keeps_to_the_scratch_budget():
    # Q10[x9=0] has 512 members: the sums for one outside vertex and all
    # member pairs would take 1 MiB of int32 and their mask 0.25 MiB more
    sub = subcube_instance([None] * 9 + [0])
    witness, _, peak = traced_build(lambda: graphs._scan_witness(sub))
    assert witness is None
    assert peak <= 1 * MiB


def test_pair_index_builds_in_int32():
    # path(1024) has 523776 pairs, 4 MiB as two int32 arrays: int64 pair
    # indices and copies of them raised the build's peak, which is that of
    # verify_all on path(1024)+boundary, to 26.0 MiB; measured now 14.0 MiB
    sub = path_instance(1024)
    (ys, xs, starts), _, peak = traced_build(sub._distance_classes)
    assert {a.dtype for a in (ys, xs, starts)} == {np.dtype(np.int32)}
    assert (ys < xs).all() and (np.diff(sub.dist_S[ys, xs]) >= 0).all()
    assert peak <= 16 * MiB


def test_arc_in_cycle_boundary():
    graph = cycle_graph(6)
    sub = induce_subgraph(graph, [0, 1, 2])
    assert sorted(sub.boundary.tolist()) == [3, 5]
    assert sub.diameter_S == 2
    assert sub.boundary_degree.tolist() == [1, 0, 1]
    assert k_x(sub, 1) == [1, 5]
    assert k_x(sub, 0) == [1]    # only +1 keeps vertex 0 inside


def test_halfcube_boundary():
    graph = hypercube_graph(3)
    sub = induce_subgraph(graph, [v for v in range(8) if not v & 4])
    assert sorted(sub.boundary.tolist()) == [4, 5, 6, 7]
    assert sub.diameter_S == 2
    assert (sub.boundary_degree == 1).all()


def test_disconnected_rejected():
    graph = hypercube_graph(2)
    with pytest.raises(DisconnectedSubgraph):
        induce_subgraph(graph, [0, 3])  # antipodal pair


def test_single_vertex_convex():
    graph = cycle_graph(6)
    sub = induce_subgraph(graph, [2])
    res = is_strongly_convex(sub)
    assert res.convex
    assert res.witness is None


@pytest.mark.parametrize("n,arc", [(7, 3), (8, 3), (9, 4), (12, 5)])
def test_short_arcs_convex(n, arc):
    graph = cycle_graph(n)
    sub = induce_subgraph(graph, range(arc))
    res = is_strongly_convex(sub)
    assert res.convex
    # brute-force all-pairs check: internal distances equal host distances
    assert np.array_equal(sub.dist_S, sub.host_dist)


def test_half_arc_not_convex_but_criterion2_vacuous():
    # the 4-arc of C6 preserves distances yet misses the geodesic through
    # the far side; the local test passes vacuously here, which is exactly
    # why convexity on a cycle is decided by the geodesic test
    graph = cycle_graph(6)
    sub = induce_subgraph(graph, [0, 1, 2, 3])
    res = is_strongly_convex(sub)
    assert not res.convex
    x, y, via = res.witness
    assert graph.dist[x, via] + graph.dist[via, y] == graph.dist[x, y]
    assert via not in sub.vset
    assert graphs._local_witness(sub) is None


def test_bent_path_in_square_not_convex():
    graph = hypercube_graph(2)
    sub = induce_subgraph(graph, [0, 1, 3])
    res = is_strongly_convex(sub)
    assert not res.convex
    # the local test's witness: boundary vertex 2 and its members 2^1, 2^2
    assert res.witness == (3, 0, 2)


def test_subcubes_convex():
    graph = hypercube_graph(4)
    sub = induce_subgraph(graph, [v for v in range(16) if (v & 1) == 1])
    res = is_strongly_convex(sub)
    assert res.convex
    assert graphs._scan_witness(sub) is None


def test_convex_closure_yields_subcube():
    graph = hypercube_graph(4)
    closure = convex_closure(graph, [0b0011, 0b0101])
    lo, hi = 0b0011 & 0b0101, 0b0011 | 0b0101
    expected = [v for v in range(16)
                if (v & lo) == lo and (v | hi) == hi]
    assert closure.tolist() == sorted(expected)
    res = is_strongly_convex(induce_subgraph(graph, closure))
    assert res.convex


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=5), data=st.data())
def test_grown_convex_sets_pass_all_criteria(n, data):
    graph = hypercube_graph(n)
    seeds = data.draw(st.sets(
        st.integers(min_value=0, max_value=(1 << n) - 1),
        min_size=1, max_size=3))
    closure = convex_closure(graph, sorted(seeds))
    sub = induce_subgraph(graph, closure)
    res = is_strongly_convex(sub)
    assert res.convex
    # convexity implies the shortest-path closure property, and the scan
    # agrees with the local test that decided
    assert loop_sp2_closure(sub) == (True, None)
    assert graphs._scan_witness(sub) is None
    assert np.array_equal(sub.dist_S, sub.host_dist)


def loop_convexity_witness(sub):
    """The per-vertex geodesic loop over the boundary: first (x, y, v) by
    boundary vertex v, then x, then y."""
    host, vset = sub.host, sub.vset
    hd = host.dist[np.ix_(vset, vset)]
    outside = sub.boundary
    dv = host.dist[np.ix_(vset, outside)]
    dw = host.dist[np.ix_(outside, vset)]
    for j, v in enumerate(outside):
        bad = np.argwhere(dv[:, j][:, None] + dw[j, :][None, :] == hd)
        if bad.size:
            x, y = bad[0]
            return (int(vset[x]), int(vset[y]), int(v))
    return None


def loop_convex_closure(host, seed):
    """Per-vertex closure rounds over a python set."""
    current = set(int(v) for v in seed)
    dist = host.dist
    while True:
        vs = np.fromiter(current, dtype=np.int64)
        outside = np.setdiff1d(np.arange(host.n_vertices), vs)
        if outside.size == 0:
            break
        dxv = dist[np.ix_(vs, outside)]
        dvy = dist[np.ix_(outside, vs)]
        dxy = dist[np.ix_(vs, vs)]
        added = [int(v) for j, v in enumerate(outside)
                 if (dxv[:, j][:, None] + dvy[j, :][None, :] == dxy).any()]
        if not added:
            break
        current.update(added)
    return np.array(sorted(current), dtype=np.int32)


def far_witness_set():
    """Q8 vertices with bit 7 set: the even ones and 129, 65 in all.

    Outside vertices 0..127 are on no geodesic between members, so with
    65^2 cells per vertex the first witness (131) lies many blocks in.
    """
    return induce_subgraph(hypercube_graph(8),
                           [128 + v for v in range(128) if v % 2 == 0] + [129])


@pytest.mark.parametrize("make,convex", [
    (lambda: induce_subgraph(cycle_graph(12), range(5)), True),
    (lambda: induce_subgraph(cycle_graph(9), range(4)), True),
    (lambda: induce_subgraph(hypercube_graph(4), range(1, 16, 2)), True),
    (lambda: induce_subgraph(hypercube_graph(6),
                             [v for v in range(64) if v & 0b100100 == 0b100]),
     True),
    (lambda: hypercube_graph(3).full_subgraph(), True),
    (torus_square, True),
    (lambda: induce_subgraph(cycle_graph(6), [0, 1, 2, 3]), False),
    (lambda: induce_subgraph(hypercube_graph(2), [0, 1, 3]), False),
    (lambda: induce_subgraph(cycle_graph(8), range(6)), False),
    (far_witness_set, False),
    # the first witness in boundary order, (5, 10, 1), is not the first in
    # the order of all outside vertices, (5, 10, 0)
    (lambda: induce_subgraph(hypercube_graph(4), [5, 6, 10, 13, 14, 15]),
     False),
], ids=["C12-arc", "C9-arc", "Q4-subcube", "Q6-subcube", "Q3-full",
        "Z4xZ3-square", "C6-half-arc", "Q2-bent-path", "C8-long-arc",
        "Q8-far-witness", "Q4-boundary-order"])
def test_convexity_witness_matches_loop(make, convex):
    # the scan's witness, whichever test decides the host; on Q_n the local
    # test's witness must be a geodesic witness too
    sub = make()
    res = is_strongly_convex(sub)
    assert res.convex == convex
    assert graphs._scan_witness(sub) == loop_convexity_witness(sub)
    if not sub.host.is_hypercube:
        assert res.witness == loop_convexity_witness(sub)
    elif not convex:
        assert_geodesic_witness(sub, res.witness)


def assert_geodesic_witness(sub, witness):
    x, y, via = witness
    d = sub.host.distances([x, via], [via, y])
    assert x in sub.vset and y in sub.vset and via not in sub.vset
    assert d[0, 0] + d[1, 1] == sub.host.distances([x], [y])[0, 0]


def test_far_witness_lies_beyond_first_block():
    sub = far_witness_set()
    step = graphs._SCAN_CELLS // sub.n_vertices ** 2
    x, y, via = graphs._scan_witness(sub)
    assert via == 131
    assert int(np.searchsorted(sub.boundary, via)) >= 2 * step


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=6), data=st.data())
def test_convex_closure_matches_loop(n, data):
    graph = hypercube_graph(n)
    seeds = data.draw(st.sets(
        st.integers(min_value=0, max_value=(1 << n) - 1),
        min_size=0, max_size=4))
    assert np.array_equal(convex_closure(graph, sorted(seeds)),
                          loop_convex_closure(graph, sorted(seeds)))


@pytest.mark.parametrize("make,seed", [
    (lambda: cycle_graph(10), [0, 3]),
    (lambda: cycle_graph(10), [0, 5]),
    (lambda: cycle_graph(9), [1, 4, 6]),
    (lambda: cycle_graph(7), [2]),
    # a second round over 65 members adds vertices from many blocks
    (lambda: hypercube_graph(8), far_witness_set().vset.tolist()),
], ids=["C10-near", "C10-antipodal", "C9-three", "C7-point", "Q8-far-witness"])
def test_convex_closure_matches_loop_on_fixed_seeds(make, seed):
    graph = make()
    assert np.array_equal(convex_closure(graph, seed),
                          loop_convex_closure(graph, seed))


def test_convexity_is_kept_per_subgraph(monkeypatch):
    calls = []
    for name in ("_local_witness", "_scan_witness"):
        real = getattr(graphs, name)
        monkeypatch.setattr(graphs, name,
                            lambda sub, real=real: calls.append(1) or real(sub))
    # a scan route and a local route: each subgraph decides once, and a
    # fresh subgraph decides again, to an equal result
    for make in (lambda: induce_subgraph(cycle_graph(12), range(5)),
                 lambda: subcube_instance([None, 1, None])):
        calls.clear()
        sub, fresh = make(), make()
        res = is_strongly_convex(sub)
        assert is_strongly_convex(sub) is res
        assert not sub.host_dist.flags.writeable
        assert is_strongly_convex(fresh) == res
        assert len(calls) == 2


def spy_geodesic_scans(monkeypatch):
    """The (members, outside) vertex sets handed to the geodesic scan."""
    real = graphs._geodesic_blocks
    scanned = []

    def spy(host, members, hd, outside):
        scanned.append((np.array(members), np.array(outside)))
        return real(host, members, hd, outside)
    monkeypatch.setattr(graphs, "_geodesic_blocks", spy)
    return scanned


@pytest.mark.parametrize("make,convex", [
    (lambda: induce_subgraph(cycle_graph(80), range(40)), True),
    (lambda: induce_subgraph(cycle_graph(12), range(5)), True),
    (lambda: induce_subgraph(hypercube_graph(6),
                             [v for v in range(64) if v & 0b100100 == 0b100]),
     True),
    (lambda: hypercube_graph(3).full_subgraph(), True),
    # a boundary vertex is a witness, and the same scan reports it
    (lambda: induce_subgraph(cycle_graph(8), range(6)), False),
], ids=["path40", "C12-arc", "Q6-subcube", "Q3-full", "C8-long-arc"])
def test_convex_sets_scan_only_their_boundary(make, convex, monkeypatch):
    sub = make()
    scanned = spy_geodesic_scans(monkeypatch)
    witness = graphs._scan_witness(sub)
    assert (witness is None) == convex
    assert len(scanned) == 1
    assert np.array_equal(scanned[0][1], sub.boundary)
    assert witness == loop_convexity_witness(sub)


def weight2_graph(n):
    """Z_2^n under every element of weight 1 or 2: every element is an
    involution, but the graph is not Q_n."""
    g = elementary_abelian_2(n)
    return build_cayley(g, generator_set(
        g, [v for v in range(1, 1 << n) if bin(v).count("1") <= 2]))


def z2_squared_graph():
    """Z2 x Z2 under (0, 1) and (1, 0): Q2, from a direct product."""
    g = direct_product(cyclic_group(2), cyclic_group(2))
    return build_cayley(g, generator_set(g, [1, 2]))


@pytest.mark.parametrize("make,hypercube", [
    (lambda: induce_subgraph(hypercube_graph(6),
                             [v for v in range(64) if v & 0b100100 == 0b100]),
     True),
    (lambda: induce_subgraph(hypercube_graph(2), [0, 1, 3]), True),
    (lambda: hypercube_graph(3).full_subgraph(), True),
    (lambda: induce_subgraph(z2_squared_graph(), [0, 1, 3]), True),
    (lambda: induce_subgraph(cycle_graph(80), range(40)), False),
    (torus_square, False),
    (lambda: induce_subgraph(s3_transposition_graph(), [0]), False),
    (lambda: induce_subgraph(weight2_graph(5), [11, 31]), False),
], ids=["Q6-subcube", "Q2-bent-path", "Q3-full", "Z2xZ2-bent-path",
        "path40", "Z4xZ3-square", "S3-point", "Z2^5-w2-edge"])
def test_convexity_route_follows_the_host(make, hypercube, monkeypatch):
    # Q_n hosts take the local test and scan nothing; every other host
    # makes one scan, over the boundary, with the scan's verdict and witness
    sub = make()
    assert sub.host.is_hypercube == hypercube
    want = graphs._scan_witness(sub)
    scanned = spy_geodesic_scans(monkeypatch)
    res = is_strongly_convex(sub)
    assert res.convex == (want is None)
    if hypercube:
        assert scanned == []
        assert res.witness == graphs._local_witness(sub)
    else:
        assert len(scanned) == 1
        assert np.array_equal(scanned[0][1], sub.boundary)
        assert res.witness == want


@pytest.mark.parametrize("make,convex", [
    (lambda: induce_subgraph(weight2_graph(5), [11, 31]), True),
    (lambda: induce_subgraph(weight2_graph(4), [11, 14]), True),
    (lambda: induce_subgraph(cycle_graph(12), range(8)), False),
], ids=["Z2^5-w2-edge", "Z2^4-w2-edge", "C12-8-arc"])
def test_local_test_is_unsound_off_the_hypercube(make, convex):
    # on these hosts the local test and the geodesic scan disagree, and the
    # verdict must be the scan's: two adjacent vertices with a common
    # outside neighbour are convex; the 8-arc of C12 has a shorter way round
    sub = make()
    assert (graphs._local_witness(sub) is None) != convex
    assert (graphs._scan_witness(sub) is None) == convex
    assert is_strongly_convex(sub).convex == convex


@pytest.mark.parametrize("make,seed", [
    (lambda: cycle_graph(10), [0, 3]),
    (lambda: hypercube_graph(5), [0b00011, 0b11100]),
    (lambda: hypercube_graph(8), far_witness_set().vset.tolist()),
], ids=["C10-near", "Q5-antipodal", "Q8-far-witness"])
def test_convex_closure_rounds_scan_only_their_boundary(make, seed,
                                                        monkeypatch):
    host = make()
    scanned = spy_geodesic_scans(monkeypatch)
    closure = convex_closure(host, seed)
    assert len(scanned) >= 2
    for members, outside in scanned:
        near = host.act[:, members].ravel()
        assert np.array_equal(outside,
                              np.setdiff1d(near, members).astype(np.int32))
    assert np.array_equal(scanned[-1][0], closure)


def loop_sp2_closure(sub):
    """(holds, witness) by looping over every (x, y, a): the first
    violation in generator order, then local x, then local y."""
    hd = sub.host_dist
    m = sub.n_vertices
    for ai, a in enumerate(sub.gens):
        step = sub.nbr_local[ai]
        for x in range(m):
            for y in range(m):
                if step[x] >= 0 and hd[step[x], y] == hd[x, y] + 1 \
                        and step[y] < 0:
                    return False, (int(sub.vset[x]), int(sub.vset[y]), int(a))
    return True, None


def connected_subsets(host, sets):
    """The subgraphs induced by those of `sets` that are connected."""
    for vset in sets:
        try:
            yield induce_subgraph(host, vset)
        except DisconnectedSubgraph:
            pass


def assert_local_test_agrees_with_scan(sub):
    local = graphs._local_witness(sub)
    assert (local is None) == (graphs._scan_witness(sub) is None), sub.vset
    if local is not None:
        assert_geodesic_witness(sub, local)


def test_local_test_agrees_with_scan_on_every_connected_subset_of_q3():
    host = hypercube_graph(3)
    subs = list(connected_subsets(
        host, ([v for v in range(8) if mask >> v & 1] for mask in range(1, 256))))
    assert len(subs) == 167
    for sub in subs:
        assert_local_test_agrees_with_scan(sub)
    assert sum(is_strongly_convex(sub).convex for sub in subs) == 27


def random_connected_sets(rng, host, count):
    """Sets grown from a random vertex by adding random boundary vertices,
    and their convex closures."""
    for _ in range(count):
        vset = {int(rng.integers(host.n_vertices))}
        for _ in range(int(rng.integers(1, 3 * host.degree))):
            near = np.setdiff1d(host.act[:, sorted(vset)], sorted(vset))
            vset.add(int(rng.choice(near)))
        yield sorted(vset)
        yield convex_closure(host, sorted(vset)[:2])


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_local_test_agrees_with_scan_on_random_connected_subsets(n):
    rng = np.random.default_rng(n)
    host = hypercube_graph(n)
    verdicts = set()
    for sub in connected_subsets(host, random_connected_sets(rng, host, 40)):
        assert_local_test_agrees_with_scan(sub)
        verdicts.add(graphs._local_witness(sub) is None)
    assert verdicts == {True, False}
