"""Moduli of continuity and concavity, extremal pairs, and the ratio constant.

All pair/triple scans are exhaustive and exact; omega makes one pass over
the dense host-distance matrix per generator. Sizes here are desk-scale by
construction.

eta has two exact algorithms for a (B, m) block of functions:

- the pair scan reads the subgraph's cached distance-class pair index with
  the block laid out vertex-major (a gather of |f(y) - f(x)| for every row
  at once, a max per class and a running max from eta(0) = 0), O(m^2 B);
- ball dilation sets M_0 = f and M_s(x) = max(M_{s-1}(x), max_a
  M_{s-1}(a x)) over in-S neighbours (through nbr_local, so balls are in
  the metric of S also on non-convex sets), then eta(s) = max_x (M_s(x) -
  f(x)); O(k m D B).

They agree bit for bit on finite input: max is exact, and fl(a - c) is
monotone in a, so max_x fl(M_s(x) - f(x)) is the largest fl(f(y) - f(x))
over ordered pairs at distance <= s, which is what the running max of the
pair scan holds (IEEE subtraction is exactly antisymmetric, so the
unordered |f(y) - f(x)| gives the same maxima). `_eta_block` picks one from
m, D and the live generator count; single rows and blocks with a NaN take
the pair scan, which keeps its fmax semantics.

Conventions:

- eta(s) is the supremum of f(y) - f(x) over pairs at distance <= s,
  extended antisymmetrically with eta(D+1) = eta(D+2) = eta(D);
- omega(s) is the infimum of (g(a^-1 y) - g(y) + g(a x) - g(x)) / 2 over
  pairs at distance s with the generator a stepping from x toward y along
  a shortest path (which forces a^-1 y one step from y toward x), with the
  boundary convention omega(D+1) = 0;
- the first difference across the Dirichlet boundary is zero, so boundary
  terms drop out of every vertex sum.

The lambda1 eigenspace is scanned as one block per Spectrum and kept on
it: f = U^T / u0 for every basis vector in one division, every row's eta in
one `_eta_block` call and both vertex-sum tables in one `_difference_sums`
call each; the extremal scans stay lazy and per vector. The ``_ground_*``
helpers read the which = 1 ratio and its eta as the block's first row, and
compute log u0 and the moduli of log u0 once per Spectrum.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import EmptyAfterSkips, NoAdmissibleTriple
from .graphs import _SCAN_CELLS, ConvexSubgraph, _ro
from .operators import Spectrum, _source


@dataclass(frozen=True, eq=False)
class ModulusOfContinuity:
    sub: ConvexSubgraph
    f: np.ndarray
    values: np.ndarray            # eta(s) for s = 0..D
    tie_tol: float

    @property
    def diameter(self) -> int:
        return self.values.size - 1

    @property
    def achievers(self) -> dict:
        """s > 0 -> (r, 2) local (y, x) pairs attaining eta(s) up to tie_tol.

        Built on first use: the heat certificates only read the values.
        """
        if "_achievers" not in self.__dict__:
            # eta is non-decreasing, so every achiever of eta(s) is an
            # extremal pair at its own distance d(y, x) <= s
            pairs, dist, diff = self._extremal_scan()
            self.__dict__["_achievers"] = {
                s: pairs[(dist <= s) & (diff >= self.values[s] - self.tie_tol)]
                for s in range(1, self.diameter + 1)}
        return self.__dict__["_achievers"]

    def _extremal_scan(self):
        """`_extremal` of this modulus: one m x m pass, built on first use
        and shared by extremal_pairs and the achievers."""
        if "_xi" not in self.__dict__:
            self.__dict__["_xi"] = tuple(_ro(a) for a in _extremal(self))
        return self.__dict__["_xi"]

    def at(self, s: int) -> float:
        """eta(s) with antisymmetry and the eta(D+2)=eta(D+1)=eta(D) extension."""
        if s == 0:
            return 0.0
        mag = min(abs(s), self.diameter)
        return math.copysign(1.0, s) * float(self.values[mag])


@dataclass(frozen=True, eq=False)
class ModulusOfConcavity:
    """omega of `g` over the admissible triples of `sub`.

    `g` is a read-only copy of the function scanned. The achievers are built
    on first read from a fresh scan of the admitted triples, so the values
    alone cost no sort and keep no per-triple arrays.
    """

    sub: ConvexSubgraph
    g: np.ndarray
    values: np.ndarray            # omega(s) for s = 1..D; NaN if undefined

    @property
    def achievers(self) -> dict:
        """s -> (r, 3) int64 triples (y, x, generator) within 1e-12
        max(1, |omega(s)|) of omega(s), sorted; cached read-only."""
        if "_achievers" not in self.__dict__:
            self.__dict__["_achievers"] = _omega_achievers(self)
        return self.__dict__["_achievers"]

    @property
    def diameter(self) -> int:
        return self.values.size

    @property
    def defined(self) -> np.ndarray:
        return ~np.isnan(self.values)

    def at(self, s: int) -> float:
        """omega(s) for s in [1, D]; omega(D+1) = 0 by convention."""
        if s == self.diameter + 1:
            return 0.0
        return float(self.values[s - 1])

    @property
    def omega_bar(self) -> float:
        """inf_s omega(s) over the defined distance classes."""
        vals = self.values[self.defined]
        if vals.size == 0:
            raise NoAdmissibleTriple("no distance class admits a triple")
        return float(vals.min())

    def is_nonnegative(self, slack: float = 1e-12) -> bool:
        vals = self.values[self.defined]
        return bool((vals >= -slack).all())

    def is_convex(self, slack: float = 1e-12) -> bool:
        """Discrete convexity over s = 1..D+1 including omega(D+1) = 0."""
        if not self.defined.all():
            return False
        ext = np.append(self.values, 0.0)
        if ext.size < 3:
            return True
        second = ext[2:] - 2 * ext[1:-1] + ext[:-2]
        return bool((second >= -slack).all())


@dataclass(frozen=True, eq=False)
class RatioFunction:
    """f = u1/u0 on the subgraph vertices."""

    sub: ConvexSubgraph
    u0: np.ndarray
    f: np.ndarray

    @classmethod
    def from_spectrum(cls, spec: Spectrum, which: int = 1) -> "RatioFunction":
        """u_which / u0 on the subgraph the spectrum's operator was built on."""
        return cls.from_vectors(spec.ground_state, spec.vector(which),
                                _source(spec.operator))

    @classmethod
    def from_vectors(cls, u0, u1, sub: ConvexSubgraph) -> "RatioFunction":
        u0 = _lead_positive(np.asarray(u0, dtype=np.float64))
        if u0.min() <= 0:
            raise ValueError(_NOT_POSITIVE)
        return cls(sub=sub, u0=u0, f=np.asarray(u1, dtype=np.float64) / u0)

    def vertex_sums(self):
        """Per-vertex (weighted, plain) difference sums of f; see
        `_difference_sums`. Built on first use and cached (read-only)."""
        if "_sums" not in self.__dict__:
            self.__dict__["_sums"] = (
                _ro(_difference_sums(self.sub, self.f, self.u0)),
                _ro(_difference_sums(self.sub, self.f)))
        return self.__dict__["_sums"]


_NOT_POSITIVE = "ground state must be strictly positive on V(S)"


def _lead_positive(u0: np.ndarray) -> np.ndarray:
    """u0, negated along the last axis where its largest-magnitude entry is
    negative."""
    lead = np.take_along_axis(u0, np.abs(u0).argmax(axis=-1)[..., None], -1)
    return np.where(lead < 0, -u0, u0)


def _difference_sums(sub: ConvexSubgraph, f, u0=None) -> np.ndarray:
    """sum_a Delta_a f(v) for every vertex v, over the last axis of `f`.

    Delta_a f(v) = f(av) - f(v) is zero across the Dirichlet boundary. With
    `u0` each term carries the weight e^{g(av)-g(v)}, g = log u0, computed
    as the ratio u0(av)/u0(v).
    """
    out = np.zeros_like(f)
    for cols in sub.nbr_local:
        keep = cols >= 0
        y, x = cols[keep], keep.nonzero()[0]
        df = f[..., y] - f[..., x]
        if u0 is not None:
            df = df * (u0[..., y] / u0[..., x])
        out[..., keep] += df
    return out


def modulus_of_continuity(f, sub: ConvexSubgraph,
                          tol: ToleranceConfig = DEFAULT_TOL) -> ModulusOfContinuity:
    """Exact modulus by exhaustive pair scan; achievers are built lazily.

    The largest f(y) - f(x) over ordered pairs at distance s equals the
    largest |f(y) - f(x)| over unordered ones, because IEEE subtraction is
    exactly antisymmetric. So one gather over the subgraph's pair index, a
    max per distance class and a running max from eta(0) = 0 give the
    supremum. A class whose max is NaN leaves eta unchanged (fmax).
    """
    f = np.asarray(f, dtype=np.float64)
    return _continuity_moduli(f[None], sub, tol)[0]


def _continuity_moduli(fs, sub: ConvexSubgraph, tol: ToleranceConfig):
    """A ModulusOfContinuity per row of the (B, m) block `fs`, from one
    `_eta_block` call."""
    return [ModulusOfContinuity(
                sub=sub, f=f, values=values,
                tie_tol=tol.tie_factor * max(1.0, abs(values[-1])))
            for f, values in zip(fs, _eta_block(fs, sub))]


def _eta_block(states, sub: ConvexSubgraph) -> np.ndarray:
    """eta(s), s = 0..D, for each row of a (B, m) block: ball dilation or
    the pair scan.

    Dilation runs for a block of more than one row with every value finite
    when (k_live + 2) D < m, k_live counting the generators with an in-S
    neighbour. Dilation makes D steps of 2 k_live + 3 passes over m cells,
    with k_live + 3 numpy calls per step; the pair scan makes five passes,
    two of them gathers, over m (m - 1) / 2 pair cells, and a pair cell
    costs about 4.5 dilation cell passes (2.0-2.6 ns against 0.5 ns). So
    dilation wins when about (k_live + 1.5) D < m, and its per-call cost
    moves the cut to (k_live + 2) D < m. That picks the faster algorithm on
    every instance timed with B = 315 random rows (median ms of 9 runs; B =
    64 in brackets, where Q6 is a tie):

    ========  ===  ===  ======  ============  ============
    instance    m    D  k_live  pair scan     dilation
    ========  ===  ===  ======  ============  ============
    path24     24   23       2  1.05 (0.21)   2.00 (0.56)
    path160   160  159       2  13.9 (3.87)   89.8 (8.86)
    cycle20    20   10       2  0.26 (0.10)   0.39 (0.19)
    cycle64    64   32       2  2.38 (0.63)   3.27 (1.08)
    cycle256  256  128       2  27.2 (6.80)   48.4 (8.89)
    Q4         16    4       4  0.15 (0.05)   0.24 (0.14)
    Q5         32    5       5  0.43 (0.12)   0.49 (0.22)
    Q6         64    6       6  1.58 (0.55)   1.09 (0.57)
    Q8        256    8       8  24.2 (6.36)   7.61 (1.55)
    Q8[x7=0]  128    7       7  5.99 (2.10)   2.55 (0.99)
    ========  ===  ===  ======  ============  ============

    Otherwise the pair scan runs, so single rows and NaN keep its fmax
    semantics.
    """
    if states.shape[0] > 1:
        live = int((sub.nbr_local >= 0).any(axis=1).sum())
        if (live + 2) * sub.diameter_S < sub.n_vertices \
                and np.isfinite(states).all():
            return _eta_dilation(states, sub)
    return _eta_pairs(states, sub)


def _eta_pairs(states, sub: ConvexSubgraph) -> np.ndarray:
    """Distance-class pair scan of the whole block, vertex-major.

    F = states^T has one vertex per row, so each gathered pair is a row of
    B contiguous doubles (a single row drops that axis). The pair index is
    walked in runs that hold several small classes or a piece of a large
    one; the two gather buffers, reused by every run, hold _SCAN_CELLS
    cells together. A run's class maxima merge into eta(s) by np.maximum:
    |f(y) - f(x)| is +0.0 or more, so the zero start changes no bit, and a
    NaN reaches its class.
    """
    b, m, d = states.shape[0], sub.n_vertices, sub.diameter_S
    out = np.zeros((b, d + 1))
    if d and b:
        tail = () if b == 1 else (b,)
        f = np.ascontiguousarray(states.T).reshape((m,) + tail)
        runs = sub._class_chunks(max(1, _SCAN_CELLS // (2 * b)))
        gy = np.empty((runs[0][0].size,) + tail)
        gx = np.empty_like(gy)
        for ys, xs, c, edges in runs:
            n = ys.size
            g, h = gy[:n], gx[:n]
            # mode="clip" lets take fill the buffer without a copy; every
            # index is in range, so it clips nothing
            f.take(ys, axis=0, out=g, mode="clip")
            f.take(xs, axis=0, out=h, mode="clip")
            np.subtract(g, h, out=g)
            np.abs(g, out=g)
            cols = out[:, c + 1:c + 1 + edges.size]
            if b * edges.size <= n:
                # reduceat runs one inner loop per (class, column)
                np.maximum(cols, np.maximum.reduceat(g, edges, axis=0).T,
                           out=cols)
            else:
                # max(axis=0) runs one inner loop per row of B columns
                ends = edges.tolist() + [n]
                for col, lo, hi in zip(cols.T, ends, ends[1:]):
                    np.maximum(col, g[lo:hi].max(axis=0), out=col)
        np.fmax.accumulate(out, axis=1, out=out)
    return out


def _eta_dilation(states, sub: ConvexSubgraph) -> np.ndarray:
    """Ball dilation over blocks of about _SCAN_CELLS cells; finite input.

    Vertices are rows (m + 1, b), the last a -inf sentinel that the -1
    entries of nbr_local index.
    """
    m, d = sub.n_vertices, sub.diameter_S
    live = [cols for cols in sub.nbr_local if (cols >= 0).any()]
    out = np.zeros((states.shape[0], d + 1))
    step = max(1, _SCAN_CELLS // m)
    for i in range(0, states.shape[0], step):
        f = np.ascontiguousarray(states[i:i + step].T)
        ball = np.empty((m + 1, f.shape[1]))
        ball[:m] = f
        ball[m] = -np.inf
        for s in range(1, d + 1):
            grown = ball.copy()
            for cols in live:
                np.maximum(grown[:m], ball[cols], out=grown[:m])
            ball = grown
            out[i:i + step, s] = (ball[:m] - f).max(axis=0)
    # max may keep -0.0 over an equal +0.0, so an all-zero difference could
    # read -0.0; adding +0.0 maps it to the pair scan's +0.0 and is exact
    # for every other value
    out += 0.0
    return out


def modulus_of_concavity(g, sub: ConvexSubgraph) -> ModulusOfConcavity:
    """Exact infimum per distance class over admissible (y, x, a) triples.

    A triple is admissible when a moves x one step along a shortest path
    toward y, i.e. d(ax, y) = d(x, y) - 1. That implies the literal
    a^2-contraction condition d(a^2 x, y) <= d(x, y); on path graphs the
    two conditions give the same modulus.
    """
    g = _ro(np.array(g, dtype=np.float64))
    best = np.full(sub.diameter_S, np.inf)
    seen = np.zeros(sub.diameter_S, dtype=bool)
    for _, _, key, val in _admitted(sub, g):
        np.minimum.at(best, key, val)
        seen[key] = True
    best[~seen] = np.nan
    return ModulusOfConcavity(sub=sub, g=g, values=best)


def _admitted(sub: ConvexSubgraph, g: np.ndarray):
    """Per generator index ai, the admitted (y, x) pairs: y, x, class s - 1
    and the triple value, in row-major (y, x) order."""
    host = sub.host
    gens = list(host.gens)
    gen_index = {a: i for i, a in enumerate(gens)}
    hd = sub.host_dist()
    m = sub.n_vertices
    for ai, a in enumerate(gens):
        ax = sub.nbr_local[ai]          # local of a*x per local x, -1 outside
        ainv_y = sub.nbr_local[gen_index[host.group.inv(a)]]  # local of a^-1*y
        ok_x = ax >= 0
        # d(ax, y) == d(x, y) - 1, distances via the host metric
        dax = np.full((m, m), -2, dtype=np.int64)
        dax[:, ok_x] = hd[:, ax[ok_x]]
        admit = dax == hd - 1
        admit &= (ainv_y >= 0)[:, None] & (hd >= 1)
        yy, xx = np.nonzero(admit)
        val = 0.5 * ((g[ainv_y[yy]] - g[yy]) + (g[ax[xx]] - g[xx]))
        yield yy, xx, hd[yy, xx] - 1, val


def _omega_achievers(omega: ModulusOfConcavity) -> dict:
    """One mask per generator against the per-class bar, then one sort into
    class and (y, x, a) order."""
    sub, best = omega.sub, omega.values
    bar = best + 1e-12 * np.maximum(1.0, np.abs(best))
    rows = []
    for (yy, xx, key, val), a in zip(_admitted(sub, omega.g), sub.gens):
        sel = val <= bar[key]
        rows.append(np.stack([key[sel], yy[sel], xx[sel],
                              np.full(int(sel.sum()), a)], axis=1))
    rows = np.concatenate(rows, dtype=np.int64)
    rows = rows[np.lexsort(rows.T[::-1])]
    ends = np.cumsum(np.bincount(rows[:, 0], minlength=sub.diameter_S))
    return dict(zip(range(1, sub.diameter_S + 1),
                    np.split(_ro(rows[:, 1:]), ends[:-1])))


def extremal_pairs(eta: ModulusOfContinuity) -> np.ndarray:
    """All ordered pairs (y, x) with f(y) - f(x) = eta(d(y, x)), up to ties.

    Cached on `eta` (read-only)."""
    return eta._extremal_scan()[0]


def _extremal(eta: ModulusOfContinuity):
    """Extremal pairs in row-major (y, x) order, with their d(y, x) and
    f(y) - f(x).

    The bar eta(s) - tie_tol is taken per class, with +inf at s = 0 so that
    no pair y = x passes: one mask over m x m, one flat nonzero, and the
    pair, distance and difference gathered by flat index (`take` and a 1-D
    nonzero are several times faster than fancy and 2-D indexing here)."""
    dist = eta.sub.dist_S
    diff = eta.f[:, None] - eta.f[None, :]
    bar = eta.values - eta.tie_tol
    bar[0] = np.inf
    flat = np.flatnonzero(diff >= bar.take(dist))
    pairs = np.empty((flat.size, 2), dtype=np.int32)
    pairs[:, 0], pairs[:, 1] = np.divmod(flat, dist.shape[0])
    return pairs, dist.ravel().take(flat), diff.ravel().take(flat)


@dataclass(frozen=True, eq=False)
class RatioConstant:
    value: float
    pairs: np.ndarray             # admitted (y, x) pairs
    ratios: np.ndarray            # per admitted pair
    skipped: np.ndarray           # pairs dropped for a near-zero denominator


def c_u0(ratio: RatioFunction, pairs: np.ndarray,
         tol: ToleranceConfig = DEFAULT_TOL) -> RatioConstant:
    """Ground-state-weighted ratio constant over the (y, x) pairs given.

    Theorem 3 passes the extremal pairs of eta, Theorem 4 the achievers of
    eta(2) (the hypercube-local variant). Pairs whose plain-difference
    denominator is within `tol.denominator_zero` of zero are skipped and
    reported.
    """
    weighted, plain = ratio.vertex_sums()
    y, x = pairs[:, 0], pairs[:, 1]
    den = plain[y] - plain[x]
    num = weighted[y] - weighted[x]
    keep = np.abs(den) >= tol.denominator_zero
    if not keep.any():
        raise EmptyAfterSkips(
            f"all {pairs.shape[0]} extremal pairs had |denominator| < "
            f"{tol.denominator_zero:g}")
    ratios = num[keep] / den[keep]
    return RatioConstant(value=float(ratios.min()), pairs=pairs[keep],
                         ratios=ratios, skipped=pairs[~keep])


@dataclass(frozen=True, eq=False)
class GradTables:
    """Forward difference of eta and backward cosh-difference of omega."""

    s: np.ndarray                 # 1..D
    grad_eta: np.ndarray          # eta(s) - eta(s-1)
    dcosh_omega: np.ndarray       # cosh(omega(s)) - cosh(omega(s+1)), omega(D+1)=0


def grad_ops(eta: ModulusOfContinuity, omega: ModulusOfConcavity) -> GradTables:
    d = omega.diameter
    s = np.arange(1, d + 1)
    grad_eta = np.array([eta.at(int(v)) - eta.at(int(v) - 1) for v in s])
    return GradTables(s=s, grad_eta=grad_eta, dcosh_omega=_dcosh(omega, d))


def _dcosh(omega: ModulusOfConcavity, d: int) -> np.ndarray:
    """cosh(omega(s)) - cosh(omega(s+1)) for s = 1..d, with omega(D+1) = 0."""
    return np.array([math.cosh(omega.at(s)) - math.cosh(omega.at(s + 1))
                     for s in range(1, d + 1)])


@dataclass(frozen=True)
class ConcavityReport:
    holds: bool
    worst: float
    witness: Optional[int]        # local vertex index


def log_concavity(g, sub: ConvexSubgraph,
                  tol: ToleranceConfig = DEFAULT_TOL) -> ConcavityReport:
    """Discrete log-concavity predicate: sum_a (g(ay) - g(y)) <= 0 at every
    interior vertex. Vertices adjacent to the boundary satisfy it trivially
    (the boundary value is -infinity) and are not tested."""
    g = np.asarray(g, dtype=np.float64)
    interior = (sub.nbr_local >= 0).all(axis=0)
    if not interior.any():
        return ConcavityReport(holds=True, worst=0.0, witness=None)
    idx = np.nonzero(interior)[0]
    sums = np.zeros(idx.size)
    for ai in range(sub.nbr_local.shape[0]):
        sums += g[sub.nbr_local[ai, idx]] - g[idx]
    scale = max(1.0, float(np.abs(g[idx]).max()))
    worst = float(sums.max())
    holds = worst <= tol.concavity_slack * scale
    witness = int(idx[np.argmax(sums)]) if not holds else None
    return ConcavityReport(holds=holds, worst=worst, witness=witness)


def _ratio_scans(spec: Spectrum, which) -> tuple:
    """(RatioFunction, ModulusOfContinuity) of u_w / u0 for each w in
    `which`, scanned as one block.

    f = U[:, which]^T / u0 is one division, every row's eta one
    `_eta_block` call (ball dilation on hypercube-like subgraphs, so their
    distance-class pair index is never built) and each vertex-sum table one
    `_difference_sums` call. Per row these are the operations of the
    one-vector route, and dilation agrees with the pair scan bit for bit, so
    every row equals that route's result. The rows share read-only arrays.
    """
    sub = _source(spec.operator)
    block = RatioFunction.from_vectors(
        spec.ground_state, spec.eigenvectors[:, which].T, sub)
    f, u0 = _ro(block.f), _ro(block.u0)
    scans = []
    for eta, row_sums in zip(_continuity_moduli(f, sub, spec.tolerances),
                             zip(*block.vertex_sums())):
        ratio = RatioFunction(sub=sub, u0=u0, f=eta.f)
        ratio.__dict__["_sums"] = row_sums
        scans.append((ratio, eta))
    return tuple(scans)


def _eigenspace_scans(spec: Spectrum) -> tuple:
    """`_ratio_scans` of the lambda1 eigenspace basis (row w - 1 for
    w in gap_indices), kept on the spectrum."""
    return spec._derived("eigenspace_scans",
                         lambda: _ratio_scans(spec, spec.gap_indices))


def _ground_ratio(spec: Spectrum) -> RatioFunction:
    """f = u1/u0 on the spectrum's own subgraph: the eigenspace block's
    first row."""
    return _eigenspace_scans(spec)[0][0]


def _ground_eta(spec: Spectrum) -> ModulusOfContinuity:
    """eta of the which = 1 ratio: the eigenspace block's first row."""
    return _eigenspace_scans(spec)[0][1]


def _ground_log(spec: Spectrum) -> np.ndarray:
    """log u0, kept on the spectrum (read-only)."""
    return spec._derived("log_ground_state",
                         lambda: _ro(np.log(spec.ground_state)))


def _ground_concavity(spec: Spectrum) -> ConcavityReport:
    """log_concavity of log u0, kept on the spectrum."""
    return spec._derived("log_concavity", lambda: log_concavity(
        _ground_log(spec), spec.operator.source, spec.tolerances))


def _ground_omega(spec: Spectrum) -> ModulusOfConcavity:
    """omega of log u0, kept on the spectrum."""
    return spec._derived("omega", lambda: modulus_of_concavity(
        _ground_log(spec), spec.operator.source))
