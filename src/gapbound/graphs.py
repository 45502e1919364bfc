"""Homogeneous (Cayley) graphs, induced subgraphs, and strong convexity.

Distances come from the word metric: right translation x -> x*h is a graph
automorphism of any Cayley graph under left-generator edges, so
d(x, y) = |y * x^-1|, and one BFS from the identity gives the word lengths
from which any block of distances is read on demand. A graph keeps only
its k x n generator rows and the n word lengths; the one distance array a
build keeps is the subgraph's own m x m block. The per-source BFS
equivalence is exercised in the test suite.

Distances within an induced subgraph S are the host distances d whenever
every pair x != y of S has an S-neighbour z of y with d(x, z) = d(x, y) - 1.
That certificate is exact: d is a lower bound on distances within S, and
induction on d(x, y) makes it an upper bound too. Sets that fail it (a long
arc of a cycle) get a BFS inside S.

Strong convexity is decided once per subgraph, by one test chosen by the
host. On Q_n, a median graph, a connected set is convex iff no boundary
vertex has two neighbours inside it (Chepoi 1989; Bandelt-Chepoi 2008):
O(k |boundary|) work. Every other host gets the geodesic scan, which the
convex closure shares; it reads only boundary vertices, since a geodesic
between members that leaves S leaves it first at a boundary vertex, which
lies on the same geodesic.
"""

import bisect
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DisconnectedSubgraph, NotInvariant
from .groups import (_SCAN_CELLS, FiniteGroup, GeneratorSet, _kept, _ro,
                     check_invariance, word_lengths)


@dataclass(frozen=True, eq=False)
class HomogeneousGraph:
    """Cayley graph of `group` under the symmetric generating set `gens`."""

    group: FiniteGroup
    gens: GeneratorSet
    act: np.ndarray        # (k, n): act[ai, x] = gens[ai] * x
    wl: np.ndarray         # (n,): word length |g| over gens
    diameter: int

    @property
    def n_vertices(self) -> int:
        return self.group.order

    @property
    def degree(self) -> int:
        return len(self.gens)

    @property
    def is_hypercube(self) -> bool:
        """Q_n: Z_2^n (every element an involution) under exactly n
        generators, which then form a basis. Kept on the graph (`_kept`)."""
        g = self.group
        return _kept(self, "is_hypercube", lambda: g.order == 1 << self.degree
                     and bool((g.inverse == np.arange(g.order)).all()))

    @property
    def dist(self) -> np.ndarray:
        """The whole n x n distance matrix, formed on each read; the
        pipeline reads only `distances` blocks."""
        ids = np.arange(self.n_vertices, dtype=np.int32)
        return self.distances(ids, ids)

    def distances(self, xs, ys) -> np.ndarray:
        """d(x, y) = wl[y * x^-1] for the vertices x in `xs` (rows) and y in
        `ys` (columns), a new int32 array filled in row blocks of
        _SCAN_CELLS cells."""
        xs, ys = np.asarray(xs), np.asarray(ys)
        out = np.empty((xs.size, ys.size), dtype=np.int32)
        xinv = self.group.inverse[xs][:, None]
        step = max(1, _SCAN_CELLS // max(1, ys.size))
        for i in range(0, xs.size, step):
            out[i:i + step] = self.wl[self.group.product(ys, xinv[i:i + step])]
        return out

    def full_subgraph(self) -> "ConvexSubgraph":
        return induce_subgraph(self, range(self.n_vertices))

    def __repr__(self):
        return (f"HomogeneousGraph({self.group.name}, k={self.degree}, "
                f"D={self.diameter})")


def build_cayley(group: FiniteGroup, gens: GeneratorSet) -> HomogeneousGraph:
    """Cayley graph: its generator rows and word lengths.

    Requires conjugation invariance a K a^-1 = K so that left translations
    are automorphisms and vertex-transitive distance holds; the diameter is
    then the largest word length.
    """
    if not check_invariance(group, gens):
        raise NotInvariant(
            "generating set is not conjugation-invariant; "
            "this toolkit only handles invariant homogeneous graphs")
    ks = np.asarray(list(gens), dtype=np.int32)
    act = group.product(ks[:, None], np.arange(group.order, dtype=np.int32))
    wl = word_lengths(group, gens)
    return HomogeneousGraph(group=group, gens=gens,
                            act=_ro(act.astype(np.int32, copy=False)), wl=wl,
                            diameter=int(wl.max()))


@dataclass(frozen=True, eq=False)
class ConvexSubgraph:
    """Induced subgraph with boundary data and intra-subgraph distances.

    `vset` holds sorted host vertex ids; vertex functions downstream are
    arrays over local indices 0..|S|-1. Built by induce_subgraph; every
    array is read-only.
    """

    host: HomogeneousGraph
    vset: np.ndarray            # (m,) host ids, sorted
    boundary: np.ndarray        # host ids adjacent to but outside vset
    nbr_local: np.ndarray       # (k, m): local index of a*v, or -1 if outside
    host_dist: np.ndarray       # (m, m) host distances among S, local indices
    dist_S: np.ndarray          # (m, m) shortest paths within S
    diameter_S: int
    _pos: np.ndarray = field(repr=False)  # host id -> local index or -1

    @property
    def n_vertices(self) -> int:
        return self.vset.size

    @property
    def group(self) -> FiniteGroup:
        return self.host.group

    @property
    def gens(self) -> GeneratorSet:
        return self.host.gens

    @property
    def degrees(self) -> np.ndarray:
        """Degree within S per local vertex."""
        return (self.nbr_local >= 0).sum(axis=0)

    @property
    def boundary_degree(self) -> np.ndarray:
        """Number of boundary edges per local vertex (the induced potential)."""
        return (self.nbr_local < 0).sum(axis=0)

    @property
    def is_full(self) -> bool:
        return self.vset.size == self.host.n_vertices

    def _distance_classes(self):
        """Unordered local pairs y < x grouped by distance within S.

        Returns (ys, xs, starts) as int32 arrays: the pairs sorted stably by
        dist_S, and starts[s - 1] the offset where class s = 1..D begins.
        No class is empty, since a geodesic of length D meets every smaller
        distance. Kept on the subgraph (`_kept`).
        """
        def make():
            ys, xs = np.triu_indices(self.n_vertices, 1)
            d = self.dist_S[ys, xs]
            order = np.argsort(d, kind="stable")
            counts = np.bincount(d, minlength=self.diameter_S + 1)
            starts = np.cumsum(counts[:-1])
            return tuple(_ro(a.astype(np.int32))
                         for a in (ys[order], xs[order], starts))
        return _kept(self, "distance_classes", make)

    def _class_chunks(self, step: int):
        """The pair index of `_distance_classes` cut into runs of at most
        `step` pairs.

        One (ys, xs, c, edges) per run: views of its pairs, and the classes
        c+1..c+edges.size it meets, which begin at the run offsets `edges`
        (edges[0] = 0: the first class may have begun in an earlier run).
        Kept on the subgraph per step (`_kept`).
        """
        def make():
            ys, xs, starts = self._distance_classes()
            first = starts.tolist()
            runs = []
            for i in range(0, ys.size, step):
                j = min(i + step, ys.size)
                c = bisect.bisect_right(first, i) - 1
                edges = starts[c:bisect.bisect_left(first, j)] - i
                edges[0] = 0
                runs.append((ys[i:j], xs[i:j], c, _ro(edges)))
            return tuple(runs)
        return _kept(self, ("class_chunks", step), make)

    def __repr__(self):
        return (f"ConvexSubgraph(|S|={self.n_vertices}, D={self.diameter_S}, "
                f"host={self.host!r})")


def induce_subgraph(host: HomogeneousGraph, vset) -> ConvexSubgraph:
    """Induced subgraph with boundary, K_x and distances.

    host_dist is the host distances among S, formed once here from the
    host's word lengths (`HomogeneousGraph.distances`); the distance
    certificate, the convexity scans and omega read it, and a full graph's
    dist_S is the same array.

    dist_S is taken from the host distances d when a one-pass certificate
    shows they are realised inside S: every pair x != y of S has an
    S-neighbour z of y with d(x, z) = d(x, y) - 1. This is exact. A path
    inside S is a host path, so d <= dist_S; and by induction on d(x, y),
    the certificate gives dist_S(x, y) <= dist_S(x, z) + 1 = d(x, y).
    Otherwise (a long arc of a cycle, a disconnected set) a BFS inside S
    computes dist_S.
    """
    vset = np.unique(np.asarray(list(vset), dtype=np.int32))
    if vset.size == 0:
        raise DisconnectedSubgraph("vertex set is empty")
    if vset.min() < 0 or vset.max() >= host.n_vertices:
        raise ValueError("vertex ids out of range")

    pos = np.full(host.n_vertices, -1, dtype=np.int32)
    pos[vset] = np.arange(vset.size, dtype=np.int32)

    nbr_host = host.act[:, vset]            # (k, m) host ids
    nbr_local = pos[nbr_host]               # -1 where outside S

    outside = nbr_host[nbr_local < 0]
    boundary = np.unique(outside)

    full = vset.size == host.n_vertices
    hd = _ro(host.distances(vset, vset))
    if full or _host_distances_realised(hd, nbr_local):
        dist_s = hd
    else:
        dist_s = _all_pairs_bfs(nbr_local)
        if (dist_s < 0).any():
            raise DisconnectedSubgraph(
                f"{int((dist_s[0] < 0).sum())} vertices unreachable within S")

    return ConvexSubgraph(host=host, vset=_ro(vset), boundary=_ro(boundary),
                          nbr_local=_ro(nbr_local.astype(np.int32)),
                          host_dist=hd,
                          dist_S=_ro(dist_s.astype(np.int32, copy=False)),
                          diameter_S=int(dist_s.max()), _pos=_ro(pos))


def _host_distances_realised(hd: np.ndarray, nbr_local: np.ndarray) -> bool:
    """The distance certificate of induce_subgraph: k m x m comparisons,
    in row blocks of _SCAN_CELLS cells."""
    m = hd.shape[0]
    moves = [(cols >= 0, cols[cols >= 0]) for cols in nbr_local]
    step = max(1, _SCAN_CELLS // m)
    for i in range(0, m, step):
        rows = hd[i:i + step]
        done = rows == 0                    # x = y needs no neighbour
        for inside, z in moves:
            done[:, inside] |= rows[:, z] == rows[:, inside] - 1
        if not done.all():
            return False
    return True


def _all_pairs_bfs(nbr_local: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths by frontier expansion; -1 if unreachable.

    Row v of `frontier` marks the sources at distance `level` from v. Vertex
    v joins the next level of a source when a neighbour of v lies in the
    current one, so each level gathers one set of rows per generator:
    O(k m^2) work per level.
    """
    m = nbr_local.shape[1]
    dist = np.full((m, m), -1, dtype=np.int32)
    np.fill_diagonal(dist, 0)
    reached = np.eye(m, dtype=bool)
    frontier = np.eye(m, dtype=bool)
    level = 0
    while frontier.any():
        level += 1
        nxt = np.zeros((m, m), dtype=bool)
        for cols in nbr_local:
            keep = cols >= 0
            nxt[keep] |= frontier[cols[keep]]
        nxt &= ~reached
        dist[nxt] = level
        reached |= nxt
        frontier = nxt
    return dist


@dataclass(frozen=True)
class ConvexityResult:
    convex: bool
    witness: Optional[tuple]      # (x, y, via) host ids; via outside S

    def __bool__(self):
        return self.convex


def is_strongly_convex(sub: ConvexSubgraph) -> ConvexityResult:
    """Decide strong convexity: every host geodesic between members stays in S.

    One test decides, chosen by the host alone. On a Q_n host it is the
    local test: S, connected, is convex iff no boundary vertex x has two
    neighbours a*x, b*x in S, since Q_n is a median graph; the witness is
    (a*x, b*x, x) for the first such x and its first two such generators,
    a geodesic as d(a*x, b*x) = 2. Cycles, tori, products and the other
    hosts are not median graphs, and there the local test can accept a
    non-convex set (an 8-arc of C12), so they get the geodesic scan of the
    boundary: a geodesic between members that leaves S leaves it first at
    a boundary vertex on the same geodesic. Its witness is the first
    (x, y, v) in order of boundary vertex v, then local x, then local y.
    The result is kept on `sub` (`_kept`).
    """
    return _kept(sub, "convexity", lambda: _strong_convexity(sub))


def _strong_convexity(sub: ConvexSubgraph) -> ConvexityResult:
    decide = _local_witness if sub.host.is_hypercube else _scan_witness
    witness = decide(sub)
    return ConvexityResult(convex=witness is None, witness=witness)


def _local_witness(sub: ConvexSubgraph) -> Optional[tuple]:
    """The local test's first witness (a*x, b*x, x), or None."""
    act = sub.host.act
    into = sub._pos[act[:, sub.boundary]] >= 0      # (k, |boundary|)
    two = np.flatnonzero(into.sum(axis=0) >= 2)
    if two.size == 0:
        return None
    x = sub.boundary[two[0]]
    a, b = np.flatnonzero(into[:, two[0]])[:2]
    return int(act[a, x]), int(act[b, x]), int(x)


def _scan_witness(sub: ConvexSubgraph) -> Optional[tuple]:
    """The geodesic scan's first witness (x, y, v) over the boundary, or
    None."""
    vset = sub.vset
    for block, x0, hit in _geodesic_blocks(sub.host, vset, sub.host_dist,
                                           sub.boundary):
        if hit.any():
            j, x, y = np.argwhere(hit)[0]
            return int(vset[x0 + x]), int(vset[y]), int(block[j])
    return None


def _geodesic_blocks(host, members, hd, outside):
    """Yield (block, x0, hit) over blocks of the `outside` vertices, then
    of member rows from x0.

    hit[j, i, y] says that v = block[j] lies on a geodesic between members
    x0 + i and y: d(x, v) + d(v, y) = d(x, y), with hd = host distances
    among members. Distances are symmetric (the generating set is), so one
    block of d(v, members) serves both legs. A block holds at most
    _SCAN_CELLS sums: several outside vertices while m^2 fits, else one
    vertex and a run of member rows, so blocks come in order of v, then x.
    """
    m = members.size
    step = max(1, _SCAN_CELLS // max(1, m * m))
    rows = min(m, _SCAN_CELLS // max(1, m))
    for i in range(0, outside.size, step):
        block = outside[i:i + step]
        d = host.distances(block, members)
        for x0 in range(0, m, rows):
            yield block, x0, (d[:, x0:x0 + rows, None] + d[:, None, :]
                              == hd[x0:x0 + rows])


def convex_closure(host: HomogeneousGraph, seed) -> np.ndarray:
    """Smallest strongly convex vertex set containing `seed` (host ids).

    Each round adds every boundary vertex on a geodesic between members;
    the set is convex once a round adds none.
    """
    inside = np.zeros(host.n_vertices, dtype=bool)
    inside[[int(v) for v in seed]] = True
    while True:
        members = np.flatnonzero(inside)
        near = host.act[:, members]
        boundary = np.unique(near[~inside[near]])
        hd = host.distances(members, members)
        for block, _, hit in _geodesic_blocks(host, members, hd, boundary):
            inside[block[hit.any(axis=(1, 2))]] = True
        if np.count_nonzero(inside) == members.size:
            break
    return np.flatnonzero(inside).astype(np.int32)
