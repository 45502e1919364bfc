"""Combinatorial Laplacians, stoquastic Hamiltonians H = L + W, and spectra.

An operator is its subgraph and, for H, its potential W: nothing else is
stored. The dense matrix is built for LAPACK (see jacobi.py) and dropped
after the solve; the analyses apply the operator through neighbour sums.
The lambda1 eigenspace gets a canonical basis, so a degenerate gap reports
the same eigenvectors whatever basis the solver returned. Every Spectrum is
validated against residual, orthonormality and ground-state sign
invariants at construction time. The residual |H v - lambda v| of each
pair is computed once, through neighbour sums, and kept on the Spectrum;
that check and the eigen-recurrence certificate both read it.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import (CertificateFailure, NegativePotential,
                     SpectrumInvariantError)
from .graphs import _SCAN_CELLS, ConvexSubgraph, _kept, _ro
from .jacobi import _fix_signs, jacobi_eigh

LAPLACIAN = "laplacian"
HAMILTONIAN = "hamiltonian"


@dataclass(frozen=True, eq=False)
class SymmetricOperator:
    """L of `source`, or H = L + diag(W) with the potential W.

    The subgraph and the potential are the whole definition; the dense
    matrix is built from them on each read of `entries`, for LAPACK.
    """

    source: ConvexSubgraph
    potential: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return self.source.n_vertices

    @property
    def kind(self) -> str:
        return LAPLACIAN if self.potential is None else HAMILTONIAN

    @property
    def entries(self) -> np.ndarray:
        """The dense matrix, new on each read: -1 per edge, the degrees on
        the diagonal, then + W."""
        sub, m = self.source, self.dim
        a = np.zeros((m, m), dtype=np.float64)
        ar = np.arange(m)
        for cols in sub.nbr_local:
            keep = cols >= 0
            a[ar[keep], cols[keep]] = -1.0
        a[ar, ar] = sub.degrees.astype(np.float64)
        if self.potential is not None:
            a[ar, ar] += self.potential
        return a

    def __post_init__(self):
        w = self.potential
        if w is not None:
            if w.shape != (self.dim,):
                raise ValueError("potential length must match the vertex "
                                 f"count: shape {w.shape}, |S| = {self.dim}")
            if (w < 0).any():
                raise NegativePotential("potential has a negative entry")
            bad = np.flatnonzero(~np.isfinite(w))
            if bad.size:
                raise ValueError(f"potential entry {bad[0]} is {w[bad[0]]}; "
                                 "a potential must be finite")

    def __repr__(self):
        return f"SymmetricOperator({self.kind}, dim={self.dim})"


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues with orthonormal eigenvector columns.

    Also the per-instance context: it carries the operator (and through it
    the subgraph) and the tolerances it was built under, which the analyses
    read from it, and keeps (`_kept`) the lambda1 eigenspace indices, the
    positive ground state, the residuals, the certificate, the ratio and
    eta of every lambda1 eigenvector as one block, and the log-concavity
    and omega of log u0.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    operator: SymmetricOperator
    tolerances: ToleranceConfig

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def lambda0(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[1])

    @property
    def gap(self) -> float:
        return float(self.eigenvalues[1] - self.eigenvalues[0])

    def vector(self, i: int) -> np.ndarray:
        return self.eigenvectors[:, i]

    @property
    def gap_indices(self) -> range:
        """Indices of the eigenvectors spanning the lambda1 eigenspace."""
        return _kept(self, "gap_indices", lambda: _lambda1_indices(
            self.eigenvalues, self.tolerances))

    @property
    def ground_state(self) -> np.ndarray:
        """u0 with its largest-magnitude entry positive; read-only, and a
        view of the eigenvectors when its sign stays."""
        def make():
            u0 = _lead_positive(self.eigenvectors[:, 0])
            u0.setflags(write=False)
            return u0
        return _kept(self, "ground_state", make)

    @property
    def residuals(self) -> np.ndarray:
        """max_x |(Op u - lambda u)(x)| of each pair; read-only."""
        return _kept(self, "residuals", lambda: _ro(_residuals(self)))


def _lead_positive(u0: np.ndarray) -> np.ndarray:
    """u0, negated along the last axis where its largest-magnitude entry is
    negative; u0 itself when no sign changes."""
    lead = np.take_along_axis(u0, np.abs(u0).argmax(axis=-1)[..., None], -1)
    return np.where(lead < 0, -u0, u0) if (lead < 0).any() else u0


def _residual_scale(w: np.ndarray) -> float:
    """max(1, |w|max): the scale of the spectrum's residual bound."""
    return max(1.0, float(np.abs(w).max(initial=0.0)))


def _lambda1_indices(w: np.ndarray, tol: ToleranceConfig) -> range:
    """Indices i >= 1 with w[i] - w[1] <= spectrum_residual * scale / 2.

    ``w`` is ascending, so the cluster is a contiguous run from index 1.
    scale = max(1, |w|max) is the residual bound's scale. A unit vector in
    the span of the cluster's eigenvectors has a residual against any
    cluster eigenvalue of at most the cluster's width, entry by entry, so
    the canonical basis adds at most half the residual bound to a column.
    """
    if w.size < 2:
        return range(1, 1)
    width = 0.5 * tol.spectrum_residual * _residual_scale(w)
    k = int(np.count_nonzero(w[1:] - w[1] <= width))
    return range(1, 1 + k)


def _canonical_basis(v: np.ndarray, idx: range):
    """Replace columns ``idx`` of ``v`` by a basis independent of the solver.

    Gram-Schmidt over the projections P e_0, P e_1, ... of the coordinate
    vectors onto the span P of those columns, keeping the first k that are
    independent, then the sign fix. Any orthonormal basis of the same span
    gives the same result up to rounding. The work is done on coefficients
    c_j = V[j, idx] (P e_j = V c_j, and V is orthonormal). A projection
    counts as independent when its residual exceeds 0.5/sqrt(n). The scan
    always finds all k: were it to end with m < k vectors, the residuals of
    the n rows against them would have squares summing to k - m >= 1, so
    some row would have cleared the bar.
    """
    k = len(idx)
    if k < 2:
        return
    vc = v[:, idx]
    bar = 0.5 / math.sqrt(v.shape[0])
    q = np.zeros((k, k))
    m = 0
    for c in vc:
        r = c - q[:, :m] @ (q[:, :m].T @ c)
        r -= q[:, :m] @ (q[:, :m].T @ r)      # second pass for orthogonality
        norm = float(np.linalg.norm(r))
        if norm > bar:
            q[:, m] = r / norm
            m += 1
            if m == k:
                break
    basis = vc @ q
    _fix_signs(basis)
    v[:, idx] = basis


def laplacian(sub: ConvexSubgraph) -> SymmetricOperator:
    """Combinatorial Laplacian: degrees on the diagonal, -1 on edges."""
    return SymmetricOperator(source=sub)


def boundary_potential(sub: ConvexSubgraph) -> np.ndarray:
    """W(y) = number of boundary edges at y; zero when the boundary is empty."""
    return sub.boundary_degree.astype(np.float64)


def dirichlet_hamiltonian(sub: ConvexSubgraph, w="boundary") -> SymmetricOperator:
    """H = L(S) + diag(W) for the boundary-induced or a user potential.

    With the boundary-induced W the spectrum equals the combinatorial
    Dirichlet eigenvalues of S inside its host.
    """
    if isinstance(w, str):
        if w != "boundary":
            raise ValueError(f"unknown potential spec {w!r}")
        pot = boundary_potential(sub)
    else:
        pot = np.array(w, dtype=np.float64)
    return SymmetricOperator(source=sub, potential=_ro(pot))


def path_lattice_laplacian(d: int):
    """(coords, L_P): the lattice points -D, -D + 2, ..., D, which have the
    parity of D, and the Laplacian of the path through them, both read-only.

    L_P is the one-dimensional comparison operator of the modulus
    inequality; its smallest non-trivial eigenvalue is 2(1 - cos(pi/(D+1))).
    """
    if d < 1:
        raise ValueError("diameter must be >= 1")
    coords = np.arange(-d, d + 1, 2)
    m = coords.size
    # one zero matrix with its three diagonals set, as strided views
    a = np.zeros((m, m))
    flat = a.reshape(-1)
    flat[::m + 1] = 2.0
    flat[1::m + 1] = flat[m::m + 1] = -1.0
    a[0, 0] = a[-1, -1] = 1.0
    return _ro(coords), _ro(a)


def eigendecompose(op: SymmetricOperator,
                   tol: ToleranceConfig = DEFAULT_TOL) -> Spectrum:
    """Full validated spectrum of a symmetric operator."""
    w, v, _ = jacobi_eigh(op.entries)
    gap = _lambda1_indices(w, tol)
    _canonical_basis(v, gap)
    spec = Spectrum(eigenvalues=_ro(w), eigenvectors=_ro(v), operator=op,
                    tolerances=tol)
    _kept(spec, "gap_indices", lambda: gap)
    _validate_spectrum(spec)
    return spec


def _validate_spectrum(spec: Spectrum):
    w, v, tol = spec.eigenvalues, spec.eigenvectors, spec.tolerances
    scale = _residual_scale(w)
    if spec.residuals.max(initial=0.0) > tol.spectrum_residual * scale:
        raise SpectrumInvariantError(
            f"residual {spec.residuals.max():.3e} exceeds bound")
    gram = v.T @ v
    gram.flat[::spec.dim + 1] -= 1.0
    if np.abs(gram, out=gram).max(initial=0.0) > tol.orthonormality:
        raise SpectrumInvariantError("eigenvectors are not orthonormal")
    if spec.operator.kind == LAPLACIAN:
        if abs(w[0]) > tol.spectrum_residual * scale:
            raise SpectrumInvariantError(
                f"connected Laplacian must have lambda0 = 0, got {w[0]:.3e}")
        u0 = v[:, 0]
        if u0.min() < -1e-8 and u0.max() > 1e-8:
            raise SpectrumInvariantError("Laplacian ground state changes sign")
    elif spec.ground_state.min() <= 0:
        raise SpectrumInvariantError(
            "Hamiltonian ground state must be strictly positive "
            "(Perron-Frobenius) but has a non-positive component")


def _apply_by_adjacency(op: SymmetricOperator, u: np.ndarray,
                        out: Optional[np.ndarray] = None,
                        work: Optional[np.ndarray] = None) -> np.ndarray:
    """Apply the operator through neighbor sums, without a dense matrix.

    O(k m) work and no m x m array per vector. LAPACK reads only one
    triangle of the dense matrix, while these sums read every row of the
    subgraph, so a subgraph whose adjacency is not symmetric fails the
    residual check. ``u`` is a vector or a block of column vectors; each
    column gets the same arithmetic as it would alone. The result goes into
    ``out`` and the neighbour sums into ``work``, buffers shaped like ``u``
    that are allocated when not given; ``work`` ends holding the potential
    term, when there is one.
    """
    col = (slice(None),) + (None,) * (u.ndim - 1)   # broadcast vertex data
    sub = op.source
    out = np.empty_like(u) if out is None else out
    nbr_sum = np.empty_like(u) if work is None else work
    nbr_sum.fill(0.0)
    for cols in sub.nbr_local:
        np.add(nbr_sum, u[cols], out=nbr_sum, where=(cols >= 0)[col])
    np.multiply(sub.degrees[col], u, out=out)
    out -= nbr_sum
    if op.potential is not None:
        out += np.multiply(op.potential[col], u, out=nbr_sum)
    return out


def _residuals(spec: Spectrum) -> np.ndarray:
    """Spectrum.residuals, over blocks of columns of at most _SCAN_CELLS
    cells, each copied contiguous so that the neighbour gathers read whole
    rows. The block, its image and the neighbour sums are three buffers
    allocated once."""
    w, v, m = spec.eigenvalues, spec.eigenvectors, spec.dim
    resid = np.empty(m)
    step = max(1, _SCAN_CELLS // max(1, m))
    bufs = np.empty((3, m * min(m, step)))
    for lo in range(0, m, step):
        k = min(step, m - lo)
        cols = slice(lo, lo + k)
        u, image, work = (b[:m * k].reshape(m, k) for b in bufs)
        u[...] = v[:, cols]
        _apply_by_adjacency(spec.operator, u, image, work)
        image -= np.multiply(u, w[cols], out=work)
        resid[cols] = np.abs(image, out=image).max(axis=0)
    return resid


@dataclass(frozen=True)
class RayleighCertificate:
    recurrence_residual: float
    rayleigh_error: float
    ok: bool


def rayleigh_gap_check(spec: Spectrum) -> RayleighCertificate:
    """Certify the eigen-recurrence componentwise and the Rayleigh quotient.

    (i) every pair satisfies -lambda u(x) = sum_{y~x} (u(y) - u(x)) (plus the
    potential term for Hamiltonians): the spectrum's own residuals, computed
    through adjacency sums, are read against the bar, and only the first
    failing pair is applied again, for the vertex that witnesses it;
    (ii) the quadratic-form Rayleigh quotient of u1 reproduces lambda1.
    The operator is the spectrum's own, and the bars are
    ``spec.tolerances.recurrence`` and ``.rayleigh``.
    """
    op, tol = spec.operator, spec.tolerances
    resid = spec.residuals
    fail = np.flatnonzero(resid > tol.recurrence)
    if fail.size:
        j = int(fail[0])
        u = spec.vector(j)
        r = np.abs(_apply_by_adjacency(op, u) - u * spec.eigenvalues[j])
        raise CertificateFailure(
            f"eigen-recurrence fails for pair {j} (residual "
            f"{resid[j]:.3e})", witness=int(np.argmax(r)))
    worst = float(np.fmax.reduce(resid, initial=0.0))

    rq_err = 0.0
    if spec.dim >= 2:
        u1 = spec.vector(1)
        quad = float(u1 @ _apply_by_adjacency(op, u1))
        rq = quad / float(u1 @ u1)
        rq_err = abs(rq - spec.lambda1)
        if rq_err > tol.rayleigh:
            raise CertificateFailure(
                f"Rayleigh quotient {rq:.12g} != lambda1 {spec.lambda1:.12g}",
                witness=None)
    return RayleighCertificate(recurrence_residual=worst,
                               rayleigh_error=rq_err, ok=True)


def _certificate(spec: Spectrum) -> RayleighCertificate:
    """rayleigh_gap_check of the spectrum, kept on it."""
    return _kept(spec, "certificate", lambda: rayleigh_gap_check(spec))
