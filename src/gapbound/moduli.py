"""Moduli of continuity and concavity, extremal pairs, and the ratio constant.

All pair/triple scans are exhaustive and exact; omega makes one pass over
the dense host-distance matrix per generator. Sizes here are desk-scale by
construction.

eta has two exact algorithms for a (B, m) block of functions:

- the pair scan reads the subgraph's kept distance-class pair index with
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

The lambda1 eigenspace is scanned as one block per Spectrum, in two kept
values: the ratios (f = U^T / u0 for every basis vector in one division
and both vertex-sum tables in one `_difference_sums` call each), then
every row's eta in one `_eta_block` call on top of them; the extremal
scans stay lazy and per vector. `_ground_ratio` reads the first ratio
without any eta, `_ground_eta` the block's first eta row, and the other
``_ground_*`` helpers compute log u0 and the moduli of log u0 once per
Spectrum.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import BoundUnavailable, EmptyAfterSkips, NoAdmissibleTriple
from .graphs import _SCAN_CELLS, ConvexSubgraph, _kept, _ro
from .jacobi import _negative_lead
from .operators import Spectrum


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

        Kept on the modulus (`_kept`): the heat certificates only read the
        values.
        """
        def make():
            # eta is non-decreasing, so every achiever of eta(s) is an
            # extremal pair at its own distance d(y, x) <= s
            pairs, dist, diff = self._extremal_scan()
            return {s: pairs[(dist <= s)
                             & (diff >= self.values[s] - self.tie_tol)]
                    for s in range(1, self.diameter + 1)}
        return _kept(self, "achievers", make)

    def _extremal_scan(self):
        """`_extremal` of this modulus: one m x m pass, kept on it and shared
        by extremal_pairs and the achievers."""
        return _kept(self, "extremal_scan",
                     lambda: tuple(_ro(a) for a in _extremal(self)))

    def at(self, s: int) -> float:
        """eta(s) with antisymmetry and the eta(D+2)=eta(D+1)=eta(D) extension."""
        if s == 0:
            return 0.0
        mag = min(abs(s), self.diameter)
        return math.copysign(1.0, s) * float(self.values[mag])


@dataclass(frozen=True, eq=False)
class ModulusOfConcavity:
    """omega over the admissible triples of `sub`, one value per distance
    class; modulus_of_concavity computes it."""

    sub: ConvexSubgraph
    values: np.ndarray            # omega(s) for s = 1..D; NaN if undefined

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
                                spec.operator.source)

    @classmethod
    def from_vectors(cls, u0, u1, sub: ConvexSubgraph) -> "RatioFunction":
        u0 = np.array(u0, dtype=np.float64)
        u0 = -u0 if _negative_lead(u0) else u0
        if u0.min() <= 0:
            raise ValueError(_NOT_POSITIVE)
        return cls(sub=sub, u0=u0, f=np.asarray(u1, dtype=np.float64) / u0)

    def vertex_sums(self):
        """Per-vertex (weighted, plain) difference sums of f; see
        `_difference_sums`. Kept on the ratio (`_kept`; read-only)."""
        return _kept(self, "vertex_sums", lambda: (
            _ro(_difference_sums(self.sub, self.f, self.u0)),
            _ro(_difference_sums(self.sub, self.f))))


_NOT_POSITIVE = "ground state must be strictly positive on V(S)"


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
    neighbour. Dilation makes D steps of 2 k_live + 2 passes over m cells
    (a gather and a max per generator, the difference and its max), one
    numpy call each; the pair scan makes five passes, two of them gathers,
    over m (m - 1) / 2 pair cells, and a pair cell costs about 4.5 dilation
    cell passes (2.0-2.6 ns against 0.5 ns). So dilation wins when about
    (k_live + 1.5) D < m, and its per-call cost moves the cut to
    (k_live + 2) D < m. That picks the faster algorithm on every instance
    timed with B = 315 random rows (median ms of 9 runs; B = 64 in
    brackets, where Q6 is a tie; timed before dilation reused its buffers,
    which took about 30% off its Q8 time):

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
    if states.shape[0] > 1 and _dilates(sub) and np.isfinite(states).all():
        return _eta_dilation(states, sub)
    return _eta_pairs(states, sub)


def _dilates(sub: ConvexSubgraph) -> bool:
    """Whether `_eta_block` scans blocks of several finite rows on `sub`
    by ball dilation: (k_live + 2) D < m."""
    live = int((sub.nbr_local >= 0).any(axis=1).sum())
    return (live + 2) * sub.diameter_S < sub.n_vertices


def _eta_pairs(states, sub: ConvexSubgraph) -> np.ndarray:
    """Distance-class pair scan of the whole block, vertex-major.

    F = states^T has one vertex per row, so each gathered pair is a row of
    B contiguous doubles (B = 1 included). The pair index is
    walked in runs that hold several small classes or a piece of a large
    one; the two gather buffers, reused by every run, hold _SCAN_CELLS
    cells together. A run's class maxima merge into eta(s) by np.maximum:
    |f(y) - f(x)| is +0.0 or more, so the zero start changes no bit, and a
    NaN reaches its class.
    """
    b, m, d = states.shape[0], sub.n_vertices, sub.diameter_S
    out = np.zeros((b, d + 1))
    if d and b:
        # no copy when `states` is the transpose of a vertex-major block
        f = np.ascontiguousarray(states.T).reshape(m, b)
        runs = sub._class_chunks(max(1, _SCAN_CELLS // (2 * b)))
        gy = np.empty((runs[0][0].size, b))
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
    """Ball dilation over blocks of rows; finite input.

    Vertices are rows (m + 1, b), the last a -inf sentinel that the -1
    entries of nbr_local index. f is the block of `states`, read in place
    through its transpose (contiguous when `states` is the transpose of a
    vertex-major block); the ball, the grown ball and the gathered
    neighbour rows are allocated once per block and hold at most
    _SCAN_CELLS cells together. The first neighbour maximum reads the ball
    itself, so a step makes no copy, and the differences M_s - f reuse the
    gather buffer. The ball of radius D is all of S, so M_D is max f at
    every vertex, and fl(max f - f(x)) is largest at min f: eta(D) is
    max f - min f, with no step.
    """
    m, d = sub.n_vertices, sub.diameter_S
    live = [cols for cols in sub.nbr_local if (cols >= 0).any()]
    out = np.zeros((states.shape[0], d + 1))
    step = max(1, _SCAN_CELLS // (3 * (m + 1)))
    for i in range(0, states.shape[0], step):
        f = states[i:i + step].T
        ball = np.empty((m + 1, f.shape[1]))
        ball[:m] = f
        ball[m] = -np.inf
        grown = ball.copy()
        near = np.empty(f.shape)
        for s in range(1, d):
            acc = ball[:m]
            for cols in live:
                # mode="wrap" sends the -1 entries to the sentinel row
                # without the copy that the default mode makes for `out`
                ball.take(cols, axis=0, out=near, mode="wrap")
                acc = np.maximum(acc, near, out=grown[:m])
            ball, grown = grown, ball
            np.subtract(ball[:m], f, out=near)
            out[i:i + step, s] = near.max(axis=0)
        out[i:i + step, d] = f.max(axis=0) - f.min(axis=0)
        del ball, grown, near       # freed before the next block's
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
    two conditions give the same modulus. One pass over the host distances
    among S per generator, over the rows y with a^-1 y in S and the columns
    x with ax in S, in blocks of rows whose eight arrays (the two distance
    blocks, the mask, and the flat index, column, class, value and
    temporary of each admitted triple) hold at most _SCAN_CELLS cells
    together. A triple's value is half the sum of its row's g(a^-1 y) - g(y)
    and its column's g(ax) - g(x), the operations of a per-triple sum, and
    the blocks meet the triples in row-major order, so np.minimum.at folds
    them in the order of one whole-matrix pass.
    """
    g = np.asarray(g, dtype=np.float64)
    host, hd = sub.host, sub.host_dist
    gens = list(host.gens)
    gen_index = {a: i for i, a in enumerate(gens)}
    best = np.full(sub.diameter_S, np.inf)
    seen = np.zeros(sub.diameter_S, dtype=bool)
    for ai, a in enumerate(gens):
        ax = sub.nbr_local[ai]          # local of a*x per local x, -1 outside
        ainv_y = sub.nbr_local[gen_index[host.group.inv(a)]]  # local of a^-1*y
        ys, xs = np.flatnonzero(ainv_y >= 0), np.flatnonzero(ax >= 0)
        dy = g[ainv_y[ys]] - g[ys]
        dx = g[ax[xs]] - g[xs]
        step = max(1, _SCAN_CELLS // (8 * max(1, xs.size)))
        for lo in range(0, ys.size, step):
            rows = ys[lo:lo + step, None]
            dax = hd[rows, ax[xs]]                  # d(ax, y)
            dxy = hd[rows, xs]
            dxy -= 1
            # d(ax, y) >= 0, so an admitted pair has d(x, y) >= 1
            flat = np.flatnonzero(dax == dxy)
            key = dax.reshape(-1).take(flat)        # d(x, y) - 1
            col = flat % xs.size
            flat //= xs.size
            val = dy[lo:lo + step].take(flat)
            val += dx.take(col)
            val *= 0.5
            np.minimum.at(best, key, val)
            seen[key] = True
    best[~seen] = np.nan
    return ModulusOfConcavity(sub=sub, values=best)


def extremal_pairs(eta: ModulusOfContinuity) -> np.ndarray:
    """All ordered pairs (y, x) with f(y) - f(x) = eta(d(y, x)), up to ties.

    Kept on `eta` (`_kept`; read-only)."""
    return eta._extremal_scan()[0]


def _extremal(eta: ModulusOfContinuity):
    """Extremal pairs in row-major (y, x) order, with their d(y, x) and
    f(y) - f(x).

    The bar eta(s) - tie_tol is taken per class, with +inf at s = 0 so that
    no pair y = x passes. Blocks of rows y of at most _SCAN_CELLS pair cells
    each take one mask and one flat nonzero, and the pair, distance and
    difference are gathered by flat index (`take` and a 1-D nonzero are
    several times faster than fancy and 2-D indexing here). The blocks are
    taken in row order, so their pairs join in row-major order."""
    dist, f = eta.sub.dist_S, eta.f
    m = dist.shape[0]
    bar = eta.values - eta.tie_tol
    bar[0] = np.inf
    step = max(1, _SCAN_CELLS // m)
    pieces = []
    for lo in range(0, m, step):
        block = dist[lo:lo + step]
        diff = f[lo:lo + step, None] - f[None, :]
        flat = np.flatnonzero(diff >= bar.take(block))
        pairs = np.empty((flat.size, 2), dtype=np.int32)
        pairs[:, 0], pairs[:, 1] = np.divmod(flat, m)
        pairs[:, 0] += lo
        pieces.append((pairs, block.ravel().take(flat),
                       diff.ravel().take(flat)))
    return tuple(np.concatenate(arrays) for arrays in zip(*pieces))


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
    reported; when every pair is skipped it raises EmptyAfterSkips, a
    BoundUnavailable, and with no pairs at all a plain BoundUnavailable.
    """
    if not pairs.shape[0]:
        raise BoundUnavailable("no extremal pairs were given")
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
    interior vertex, the `_difference_sums` of g there. Vertices adjacent to
    the boundary satisfy it trivially (the boundary value is -infinity) and
    are not tested."""
    g = np.asarray(g, dtype=np.float64)
    interior = (sub.nbr_local >= 0).all(axis=0)
    if not interior.any():
        return ConcavityReport(holds=True, worst=0.0, witness=None)
    idx = np.nonzero(interior)[0]
    sums = _difference_sums(sub, g)[idx]
    scale = max(1.0, float(np.abs(g[idx]).max()))
    worst = float(sums.max())
    holds = worst <= tol.concavity_slack * scale
    witness = int(idx[np.argmax(sums)]) if not holds else None
    return ConcavityReport(holds=holds, worst=worst, witness=witness)


def _eigenspace_ratios(spec: Spectrum) -> tuple:
    """(f, ratios): f = U[:, gap_indices]^T / u0, one division over the
    lambda1 eigenspace basis `spec.gap_indices`, and the RatioFunction of
    each row, kept on the spectrum.

    Each vertex-sum table is one `_difference_sums` call over the block,
    and each ratio keeps its rows of the two. Per row these are the
    operations of the one-vector route, so every row equals that route's
    result. The ratios share read-only arrays.
    """
    def make():
        sub = spec.operator.source
        block = RatioFunction.from_vectors(
            spec.ground_state, spec.eigenvectors[:, spec.gap_indices].T, sub)
        f, u0 = _ro(block.f), _ro(block.u0)
        ratios = []
        for row, row_sums in zip(f, zip(*block.vertex_sums())):
            ratio = RatioFunction(sub=sub, u0=u0, f=row)
            _kept(ratio, "vertex_sums", lambda: row_sums)
            ratios.append(ratio)
        return f, tuple(ratios)
    return _kept(spec, "eigenspace_ratios", make)


def _ratio_scans(spec: Spectrum) -> tuple:
    """(RatioFunction, ModulusOfContinuity) of u_w / u0 for each w in the
    lambda1 eigenspace basis, on top of `_eigenspace_ratios`: every row's
    eta is one `_eta_block` call (ball dilation on hypercube-like
    subgraphs, so their distance-class pair index is never built), and
    dilation agrees with the pair scan bit for bit, so every row equals the
    one-vector route's result.
    """
    f, ratios = _eigenspace_ratios(spec)
    etas = _continuity_moduli(f, spec.operator.source, spec.tolerances)
    return tuple(zip(ratios, etas))


def _eigenspace_scans(spec: Spectrum) -> tuple:
    """`_ratio_scans` of the spectrum (row w - 1 for w in gap_indices),
    kept on it."""
    return _kept(spec, "eigenspace_scans", lambda: _ratio_scans(spec))


def _ground_ratio(spec: Spectrum) -> RatioFunction:
    """f = u1/u0 on the spectrum's own subgraph: the first of the eigenspace
    ratios, built without any eta."""
    return _eigenspace_ratios(spec)[1][0]


def _ground_eta(spec: Spectrum) -> ModulusOfContinuity:
    """eta of the which = 1 ratio: the eigenspace block's first row."""
    return _eigenspace_scans(spec)[0][1]


def _ground_log(spec: Spectrum) -> np.ndarray:
    """log u0, kept on the spectrum (read-only)."""
    return _kept(spec, "log_ground_state",
                 lambda: _ro(np.log(spec.ground_state)))


def _ground_concavity(spec: Spectrum) -> ConcavityReport:
    """log_concavity of log u0, kept on the spectrum."""
    return _kept(spec, "log_concavity", lambda: log_concavity(
        _ground_log(spec), spec.operator.source, spec.tolerances))


def _ground_omega(spec: Spectrum) -> ModulusOfConcavity:
    """omega of log u0, kept on the spectrum."""
    return _kept(spec, "omega", lambda: modulus_of_concavity(
        _ground_log(spec), spec.operator.source))
