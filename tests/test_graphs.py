import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapbound import graphs
from gapbound.errors import CriterionMismatch, DisconnectedSubgraph, NotInvariant
from gapbound.graphs import (build_cayley, convex_closure, induce_subgraph,
                             is_strongly_convex)
from gapbound.groups import (cyclic_group, direct_product, generator_set,
                             group_from_table)
from gapbound.families import (cycle_graph, cycle_instance, hypercube_graph,
                               hypercube_instance)

from test_groups import s3_table


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


@pytest.mark.parametrize("make", [
    lambda: cycle_graph(6),
    lambda: hypercube_graph(3),
    s3_transposition_graph,
])
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
    hd = sub.host_dist()
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
    # a full graph's distances within S are the host's, not an n x n copy
    sub = make()
    assert np.shares_memory(sub.dist_S, sub.host.dist)
    assert np.shares_memory(sub.host_dist(), sub.host.dist)
    assert not sub.dist_S.flags.writeable


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
    assert res.criterion2


@pytest.mark.parametrize("n,arc", [(7, 3), (8, 3), (9, 4), (12, 5)])
def test_short_arcs_convex(n, arc):
    graph = cycle_graph(n)
    sub = induce_subgraph(graph, range(arc))
    res = is_strongly_convex(sub)
    assert res.convex
    # brute-force all-pairs check: internal distances equal host distances
    assert np.array_equal(sub.dist_S, sub.host_dist())


def test_half_arc_not_convex_but_criterion2_vacuous():
    # the 4-arc of C6 preserves distances yet misses the geodesic through
    # the far side; the local generator criterion is vacuously true here,
    # which is exactly why convexity is decided by the geodesic test
    graph = cycle_graph(6)
    sub = induce_subgraph(graph, [0, 1, 2, 3])
    res = is_strongly_convex(sub)
    assert not res.convex
    x, y, via = res.witness
    assert graph.dist[x, via] + graph.dist[via, y] == graph.dist[x, y]
    assert via not in sub.vset
    assert res.criterion2


def test_bent_path_in_square_not_convex():
    graph = hypercube_graph(2)
    sub = induce_subgraph(graph, [0, 1, 3])
    res = is_strongly_convex(sub)
    assert not res.convex
    assert not res.criterion2


def test_subcubes_convex():
    graph = hypercube_graph(4)
    sub = induce_subgraph(graph, [v for v in range(16) if (v & 1) == 1])
    res = is_strongly_convex(sub)
    assert res.convex
    assert res.criterion2
    assert res.sp2_closure


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
    res = is_strongly_convex(sub)  # would raise CriterionMismatch on a bug
    assert res.convex
    assert res.criterion2 and res.sp2_closure
    assert np.array_equal(sub.dist_S, sub.host_dist())


def loop_convexity_witness(sub):
    """The per-vertex geodesic loop: first (x, y, v) by v, then x, then y."""
    host, vset = sub.host, sub.vset
    if sub.is_full:
        return None
    hd = host.dist[np.ix_(vset, vset)]
    outside = np.setdiff1d(np.arange(host.n_vertices, dtype=np.int32), vset)
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
], ids=["C12-arc", "C9-arc", "Q4-subcube", "Q6-subcube", "Q3-full",
        "Z4xZ3-square", "C6-half-arc", "Q2-bent-path", "C8-long-arc",
        "Q8-far-witness"])
def test_convexity_witness_matches_loop(make, convex):
    sub = make()
    res = is_strongly_convex(sub)
    assert res.convex == convex
    assert res.witness == loop_convexity_witness(sub)


def test_far_witness_lies_beyond_first_block():
    sub = far_witness_set()
    outside = np.flatnonzero(sub._pos < 0)
    step = graphs._SCAN_CELLS // sub.n_vertices ** 2
    x, y, via = is_strongly_convex(sub).witness
    assert via == 131
    assert int(np.searchsorted(outside, via)) >= 2 * step


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


def test_convexity_cached_but_mismatch_raises_again(monkeypatch):
    sub = induce_subgraph(cycle_graph(12), range(5))
    res = is_strongly_convex(sub)
    assert is_strongly_convex(sub) is res
    assert not sub.host_dist().flags.writeable

    fresh = induce_subgraph(cycle_graph(12), range(5))
    monkeypatch.setattr(graphs, "_sp2_closure", lambda sub: (False, (0, 4, 1)))
    for _ in range(2):
        with pytest.raises(CriterionMismatch):
            is_strongly_convex(fresh)
    monkeypatch.undo()
    assert is_strongly_convex(fresh) == res


def spy_geodesic_scans(monkeypatch):
    """The vertex sets that is_strongly_convex hands the geodesic scan."""
    real = graphs._geodesic_blocks
    scanned = []

    def spy(dist, members, hd, outside):
        scanned.append(np.array(outside))
        return real(dist, members, hd, outside)
    monkeypatch.setattr(graphs, "_geodesic_blocks", spy)
    return scanned


@pytest.mark.parametrize("make", [
    lambda: induce_subgraph(cycle_graph(80), range(40)),
    lambda: induce_subgraph(cycle_graph(12), range(5)),
    lambda: induce_subgraph(hypercube_graph(6),
                            [v for v in range(64) if v & 0b100100 == 0b100]),
    lambda: hypercube_graph(3).full_subgraph(),
], ids=["path40", "C12-arc", "Q6-subcube", "Q3-full"])
def test_convex_sets_scan_only_their_boundary(make, monkeypatch):
    sub = make()
    scanned = spy_geodesic_scans(monkeypatch)
    assert is_strongly_convex(sub).convex
    assert len(scanned) == 1
    assert np.array_equal(scanned[0], sub.boundary)


def test_witness_search_scans_every_outside_vertex(monkeypatch):
    # C8 long arc: a boundary vertex is a witness, and the reported one is
    # the first in outside-vertex order
    sub = induce_subgraph(cycle_graph(8), range(6))
    scanned = spy_geodesic_scans(monkeypatch)
    res = is_strongly_convex(sub)
    assert not res.convex
    assert [s.tolist() for s in scanned] == [sub.boundary.tolist(), [6, 7]]
    assert res.witness == loop_convexity_witness(sub)


def loop_sp2_closure(sub):
    """(holds, witness) by looping over every (x, y, a): the first
    violation in generator order, then local x, then local y."""
    hd = sub.host_dist()
    m = sub.n_vertices
    for ai, a in enumerate(sub.gens):
        step = sub.nbr_local[ai]
        for x in range(m):
            for y in range(m):
                if step[x] >= 0 and hd[step[x], y] == hd[x, y] + 1 \
                        and step[y] < 0:
                    return False, (int(sub.vset[x]), int(sub.vset[y]), int(a))
    return True, None


@pytest.mark.parametrize("make", [lambda: hypercube_graph(4),
                                  lambda: cycle_graph(8)], ids=["Q4", "C8"])
def test_sp2_closure_matches_loop(make):
    host = make()
    rng = np.random.default_rng(7)
    verdicts = set()
    for _ in range(200):
        vset = np.flatnonzero(rng.random(host.n_vertices) < rng.random())
        try:
            sub = induce_subgraph(host, vset)
        except DisconnectedSubgraph:
            continue
        got = graphs._sp2_closure(sub)
        assert got == loop_sp2_closure(sub), vset
        verdicts.add(got[0])
    # both verdicts met, and full sets (every generator closed) among them
    assert verdicts == {True, False}
    assert graphs._sp2_closure(host.full_subgraph()) == (True, None)
