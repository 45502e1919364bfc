"""Homogeneous (Cayley) graphs, induced subgraphs, and strong convexity.

Distances come from the word metric: right translation x -> x*h is a graph
automorphism of any Cayley graph under left-generator edges, so
d(x, y) = |y * x^-1| and one BFS from the identity fixes the whole matrix.
The per-source BFS equivalence is exercised in the test suite.

Distances within an induced subgraph S are the host distances d whenever
every pair x != y of S has an S-neighbour z of y with d(x, z) = d(x, y) - 1.
That certificate is exact: d is a lower bound on distances within S, and
induction on d(x, y) makes it an upper bound too. Sets that fail it (a long
arc of a cycle) get a BFS inside S.

Strong convexity and the convex closure share one geodesic scan over
blocks of outside vertices; strong convexity runs it over the boundary
first, which decides convexity alone.
"""

import bisect
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import CriterionMismatch, DisconnectedSubgraph, NotInvariant
from .groups import (FiniteGroup, GeneratorSet, _ro, check_invariance,
                     word_lengths)


@dataclass(frozen=True, eq=False)
class HomogeneousGraph:
    """Cayley graph of `group` under the symmetric generating set `gens`."""

    group: FiniteGroup
    gens: GeneratorSet
    act: np.ndarray        # (k, n): act[ai, x] = gens[ai] * x
    dist: np.ndarray       # (n, n) word-metric distances
    diameter: int

    @property
    def n_vertices(self) -> int:
        return self.group.order

    @property
    def degree(self) -> int:
        return len(self.gens)

    def full_subgraph(self) -> "ConvexSubgraph":
        return induce_subgraph(self, range(self.n_vertices))

    def __repr__(self):
        return (f"HomogeneousGraph({self.group.name}, k={self.degree}, "
                f"D={self.diameter})")


def build_cayley(group: FiniteGroup, gens: GeneratorSet) -> HomogeneousGraph:
    """Cayley graph with the full distance matrix.

    Requires conjugation invariance a K a^-1 = K so that left translations
    are automorphisms and vertex-transitive distance holds.
    """
    if not check_invariance(group, gens):
        raise NotInvariant(
            "generating set is not conjugation-invariant; "
            "this toolkit only handles invariant homogeneous graphs")
    ks = np.asarray(list(gens), dtype=np.int64)
    act = group.table[ks, :].astype(np.int32)
    wl = word_lengths(group, gens)
    # d(x, y) = |y * x^-1|; entry [x, y] = wl[table[y, inv(x)]]
    ginv = group.table[:, group.inverse]     # [y, x] -> y * x^-1
    dist = wl[ginv].T.astype(np.int32)
    return HomogeneousGraph(group=group, gens=gens, act=_ro(act),
                            dist=_ro(dist), diameter=int(dist.max()))


@dataclass(frozen=True, eq=False)
class ConvexSubgraph:
    """Induced subgraph with boundary data and intra-subgraph distances.

    `vset` holds sorted host vertex ids; vertex functions downstream are
    arrays over local indices 0..|S|-1.
    """

    host: HomogeneousGraph
    vset: np.ndarray            # (m,) host ids, sorted
    boundary: np.ndarray        # host ids adjacent to but outside vset
    nbr_local: np.ndarray       # (k, m): local index of a*v, or -1 if outside
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
        distance. Built on first use and cached.
        """
        if "_classes" not in self.__dict__:
            ys, xs = np.triu_indices(self.n_vertices, 1)
            d = self.dist_S[ys, xs]
            order = np.argsort(d, kind="stable")
            counts = np.bincount(d, minlength=self.diameter_S + 1)
            starts = np.cumsum(counts[:-1])
            self.__dict__["_classes"] = (
                _ro(ys[order].astype(np.int32)), _ro(xs[order].astype(np.int32)),
                _ro(starts.astype(np.int32)))
        return self.__dict__["_classes"]

    def _class_chunks(self, step: int):
        """The pair index of `_distance_classes` cut into runs of at most
        `step` pairs.

        One (ys, xs, c, edges) per run: views of its pairs, and the classes
        c+1..c+edges.size it meets, which begin at the run offsets `edges`
        (edges[0] = 0: the first class may have begun in an earlier run).
        Built on first use per step and cached.
        """
        cache = self.__dict__.setdefault("_chunks", {})
        if step not in cache:
            ys, xs, starts = self._distance_classes()
            first = starts.tolist()
            runs = []
            for i in range(0, ys.size, step):
                j = min(i + step, ys.size)
                c = bisect.bisect_right(first, i) - 1
                edges = starts[c:bisect.bisect_left(first, j)] - i
                edges[0] = 0
                runs.append((ys[i:j], xs[i:j], c, _ro(edges)))
            cache[step] = tuple(runs)
        return cache[step]

    def host_dist(self) -> np.ndarray:
        """Host distances restricted to S (local indexing), read-only.

        induce_subgraph computes them for its distance certificate and
        caches them here; otherwise they are built on first use.
        """
        if "_host_dist" not in self.__dict__:
            self.__dict__["_host_dist"] = _ro(
                self.host.dist[np.ix_(self.vset, self.vset)])
        return self.__dict__["_host_dist"]

    def __repr__(self):
        return (f"ConvexSubgraph(|S|={self.n_vertices}, D={self.diameter_S}, "
                f"host={self.host!r})")


def induce_subgraph(host: HomogeneousGraph, vset) -> ConvexSubgraph:
    """Induced subgraph with boundary, K_x and distances.

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
    # a full graph's vset is arange(n): it shares the host's n x n array
    hd = host.dist if full else _ro(host.dist[np.ix_(vset, vset)])
    if full or _host_distances_realised(hd, nbr_local):
        dist_s = hd
    else:
        dist_s = _all_pairs_bfs(nbr_local)
        if (dist_s < 0).any():
            raise DisconnectedSubgraph(
                f"{int((dist_s[0] < 0).sum())} vertices unreachable within S")

    sub = ConvexSubgraph(host=host, vset=_ro(vset), boundary=_ro(boundary),
                         nbr_local=_ro(nbr_local.astype(np.int32)),
                         dist_S=_ro(dist_s.astype(np.int32, copy=False)),
                         diameter_S=int(dist_s.max()), _pos=_ro(pos))
    sub.__dict__["_host_dist"] = hd
    return sub


def _host_distances_realised(hd: np.ndarray, nbr_local: np.ndarray) -> bool:
    """The distance certificate of induce_subgraph: k m x m comparisons."""
    done = np.eye(hd.shape[0], dtype=bool)
    for cols in nbr_local:
        inside = cols >= 0
        done[:, inside] |= hd[:, cols[inside]] == hd[:, inside] - 1
    return bool(done.all())


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
    criterion2: bool
    criterion2_witness: Optional[tuple]
    sp2_closure: bool
    sp2_witness: Optional[tuple]

    def __bool__(self):
        return self.convex


def is_strongly_convex(sub: ConvexSubgraph) -> ConvexityResult:
    """Decide strong convexity: every host geodesic between members stays in S.

    Criterion 1 is the geodesic test itself (an outside vertex v with
    d(x,v) + d(v,y) = d(x,y) is a witness). The generator criterion and the
    shortest-path closure property are evaluated alongside; both are implied
    by convexity, so a convex set failing either raises CriterionMismatch.
    The converse implication genuinely fails on some non-convex sets (e.g. a
    half cycle), so no error is raised in that direction.

    Criterion 1 needs only the boundary. A geodesic between members that
    leaves S leaves it first at a vertex adjacent to S, which lies on the
    same geodesic; so S is convex iff no boundary vertex is a witness. That
    scan costs O(|boundary| m^2) instead of O((n - m) m^2). Only when it
    finds a witness do all outside vertices get scanned, so the witness
    reported is the first (v, x, y) in order of outside vertex v, then
    local x, then local y. The result is cached on `sub`; a
    CriterionMismatch is not, and raises again on the next call.
    """
    if "_convexity" in sub.__dict__:
        return sub.__dict__["_convexity"]
    vset, dist, hd = sub.vset, sub.host.dist, sub.host_dist()

    witness = None
    if any(hit.any() for _, hit in _geodesic_blocks(dist, vset, hd,
                                                    sub.boundary)):
        outside = np.flatnonzero(sub._pos < 0)
        for block, hit in _geodesic_blocks(dist, vset, hd, outside):
            if hit.any():
                j, x, y = np.argwhere(hit)[0]
                witness = (int(vset[x]), int(vset[y]), int(block[j]))
                break
    convex = witness is None

    crit2, crit2_wit = _criterion2(sub)
    sp2, sp2_wit = _sp2_closure(sub)

    if convex and not crit2:
        raise CriterionMismatch(
            f"convex subgraph violates the generator criterion at {crit2_wit}")
    if convex and not sp2:
        raise CriterionMismatch(
            f"convex subgraph violates shortest-path closure at {sp2_wit}")

    result = ConvexityResult(convex=convex, witness=witness, criterion2=crit2,
                             criterion2_witness=crit2_wit, sp2_closure=sp2,
                             sp2_witness=sp2_wit)
    sub.__dict__["_convexity"] = result
    return result


# cells of d(x, v) + d(v, y) compared per block of the geodesic scan; larger
# blocks save little time and raise peak memory
_SCAN_CELLS = 1 << 16


def _geodesic_blocks(dist, members, hd, outside):
    """Yield (block, hit) over consecutive blocks of the `outside` vertices.

    hit[j, x, y] says that v = block[j] lies on a geodesic between members
    x and y: d(x, v) + d(v, y) = d(x, y), with hd = dist among members.
    Distances are symmetric (the generating set is), so one gather of
    d(v, members) serves both legs.
    """
    m = members.size
    step = max(1, _SCAN_CELLS // max(1, m * m))
    for i in range(0, outside.size, step):
        block = outside[i:i + step]
        d = dist[np.ix_(block, members)]
        yield block, d[:, :, None] + d[:, None, :] == hd


def _criterion2(sub: ConvexSubgraph):
    """For x in the boundary: distinct a, b with ax, bx in S need b^-1 a in K."""
    host = sub.host
    group = host.group
    gens = list(host.gens)
    kset = set(gens)
    for x in sub.boundary:
        ins = [a for a in gens if sub._pos[host.group.table[a, x]] >= 0]
        for a in ins:
            for b in ins:
                if a == b:
                    continue
                if group.mul(group.inv(b), a) not in kset:
                    return False, (int(x), int(a), int(b))
    return True, None


def _sp2_closure(sub: ConvexSubgraph):
    """If x, ax, y in S and d(ax, y) = d(x, y) + 1 then ay must be in S.

    A generator under which no vertex of S leaves S has no violation and is
    skipped, so the witness is still the first in generator order.
    """
    host = sub.host
    vset = sub.vset
    hd = sub.host_dist()
    for ai, a in enumerate(host.gens):
        ax_local = sub.nbr_local[ai]          # local index of a*x or -1
        ay_out = ax_local < 0                 # a*y outside S, per local y
        if not ay_out.any() or ay_out.all():
            continue
        # rows: x with ax in S; columns: the y with ay outside S
        have, out = np.nonzero(~ay_out)[0], np.nonzero(ay_out)[0]
        bad = hd[ax_local[have, None], out] == hd[have[:, None], out] + 1
        if bad.any():
            xi, yi = np.argwhere(bad)[0]
            return False, (int(vset[have[xi]]), int(vset[out[yi]]), int(a))
    return True, None


def convex_closure(host: HomogeneousGraph, seed) -> np.ndarray:
    """Smallest strongly convex vertex set containing `seed` (host ids).

    Each round adds every outside vertex on a geodesic between members.
    """
    inside = np.zeros(host.n_vertices, dtype=bool)
    inside[[int(v) for v in seed]] = True
    while True:
        members = np.flatnonzero(inside)
        hd = host.dist[np.ix_(members, members)]
        for block, hit in _geodesic_blocks(host.dist, members, hd,
                                           np.flatnonzero(~inside)):
            inside[block[hit.any(axis=(1, 2))]] = True
        if np.count_nonzero(inside) == members.size:
            break
    return np.flatnonzero(inside).astype(np.int32)
