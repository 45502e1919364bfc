"""Combinatorial Laplacians, stoquastic Hamiltonians H = L + W, and spectra.

The eigensolver is LAPACK (see jacobi.py). The lambda1 eigenspace gets a
canonical basis, so a degenerate gap reports the same eigenvectors whatever
basis the solver returned. Every Spectrum is validated against residual,
orthonormality and ground-state sign invariants at construction time.
"""

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import (CertificateFailure, NegativePotential,
                     SpectrumInvariantError)
from .graphs import ConvexSubgraph, HomogeneousGraph, _ro
from .jacobi import _fix_signs, jacobi_eigh

LAPLACIAN = "laplacian"
HAMILTONIAN = "hamiltonian"


@dataclass(frozen=True, eq=False)
class SymmetricOperator:
    entries: np.ndarray
    kind: str
    source: Optional[ConvexSubgraph] = None
    potential: Optional[np.ndarray] = None
    coords: Optional[np.ndarray] = None   # path lattice coordinates

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __post_init__(self):
        a = self.entries
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("operator must be square")
        if not np.array_equal(a, a.T):
            raise ValueError("operator must be exactly symmetric")
        if self.kind == LAPLACIAN:
            if not np.allclose(a.sum(axis=1), 0.0, atol=0.0):
                raise ValueError("Laplacian rows must sum to zero")
            off = a - np.diag(np.diag(a))
            if not np.isin(off, (0.0, -1.0)).all():
                raise ValueError("Laplacian off-diagonals must be 0 or -1")
        if self.kind == HAMILTONIAN and self.potential is not None:
            if (self.potential < 0).any():
                raise NegativePotential("potential has a negative entry")

    def __repr__(self):
        return f"SymmetricOperator({self.kind}, dim={self.dim})"


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues with orthonormal eigenvector columns.

    Also the per-instance context: it carries the operator (and through it
    the subgraph) and the tolerances it was built under, which the analyses
    read from it, and keeps on first use the positive ground state, the
    certificate, the which = 1 ratio and its eta, and the log-concavity and
    omega of log u0.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
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
        return _lambda1_indices(self.eigenvalues, self.tolerances)

    @property
    def ground_state(self) -> np.ndarray:
        """u0 with its largest-magnitude entry positive; read-only."""
        u0 = self.eigenvectors[:, 0]
        return self._derived("ground_state", lambda: _ro(-u0)
                             if u0[np.argmax(np.abs(u0))] < 0 else u0)

    def _derived(self, key, make):
        """make() on first use, then the kept value; a raise keeps nothing."""
        cache = self.__dict__.setdefault("_cache", {})
        if key not in cache:
            cache[key] = make()
        return cache[key]


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
    scale = max(1.0, float(np.abs(w).max()))
    width = 0.5 * tol.spectrum_residual * scale
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


def laplacian(obj: Union[ConvexSubgraph, HomogeneousGraph]) -> SymmetricOperator:
    """Combinatorial Laplacian: degrees on the diagonal, -1 on edges."""
    sub = obj.full_subgraph() if isinstance(obj, HomogeneousGraph) else obj
    m = sub.n_vertices
    a = np.zeros((m, m), dtype=np.float64)
    ar = np.arange(m)
    for ai in range(sub.nbr_local.shape[0]):
        cols = sub.nbr_local[ai]
        keep = cols >= 0
        a[ar[keep], cols[keep]] = -1.0
    a[ar, ar] = sub.degrees.astype(np.float64)
    return SymmetricOperator(entries=_ro(a), kind=LAPLACIAN, source=sub)


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
        pot = np.asarray(w, dtype=np.float64)
        if pot.shape != (sub.n_vertices,):
            raise ValueError("potential length must match the vertex count")
    lap = laplacian(sub)
    h = lap.entries + np.diag(pot)
    return SymmetricOperator(entries=_ro(h), kind=HAMILTONIAN, source=sub,
                             potential=_ro(pot.copy()))


def path_lattice_laplacian(d: int, parity: str) -> SymmetricOperator:
    """Laplacian of the auxiliary path lattice over [-D, D].

    parity "even"/"odd" keeps lattice points of that parity (step 2); "unit"
    keeps every integer (step 1). With parity matching D the smallest
    non-trivial eigenvalue is 2(1 - cos(pi/(D+1))); for "unit" it is
    2(1 - cos(pi/(2D+1))).
    """
    if d < 1:
        raise ValueError("diameter must be >= 1")
    if parity == "unit":
        coords = np.arange(-d, d + 1)
    elif parity == "even":
        coords = np.arange(-d + (d % 2), d + 1, 2)
    elif parity == "odd":
        coords = np.arange(-d + 1 - (d % 2), d + 1, 2)
    else:
        raise ValueError(f"unknown parity {parity!r}")
    m = coords.size
    a = np.zeros((m, m))
    i = np.arange(m - 1)
    a[i, i + 1] = a[i + 1, i] = -1.0
    # degrees from the edge list; -a.sum(axis=1) gives -0.0 for one point
    a[np.arange(m), np.arange(m)] = np.bincount(np.concatenate([i, i + 1]),
                                                minlength=m)
    return SymmetricOperator(entries=_ro(a), kind=LAPLACIAN,
                             coords=_ro(coords.astype(np.int32)))


def eigendecompose(op: SymmetricOperator,
                   tol: ToleranceConfig = DEFAULT_TOL) -> Spectrum:
    """Full validated spectrum of a symmetric operator."""
    w, v, _ = jacobi_eigh(op.entries)
    _canonical_basis(v, _lambda1_indices(w, tol))
    resid = np.abs(op.entries @ v - v * w).max(axis=0)
    spec = Spectrum(eigenvalues=_ro(w), eigenvectors=_ro(v),
                    residuals=_ro(resid), operator=op, tolerances=tol)
    _validate_spectrum(spec, tol)
    return spec


def _validate_spectrum(spec: Spectrum, tol: ToleranceConfig):
    w, v = spec.eigenvalues, spec.eigenvectors
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
    if spec.residuals.max(initial=0.0) > tol.spectrum_residual * scale:
        raise SpectrumInvariantError(
            f"residual {spec.residuals.max():.3e} exceeds bound")
    gram = v.T @ v - np.eye(spec.dim)
    if np.abs(gram).max(initial=0.0) > tol.orthonormality:
        raise SpectrumInvariantError("eigenvectors are not orthonormal")
    kind = spec.operator.kind
    if kind == LAPLACIAN:
        if abs(w[0]) > tol.spectrum_residual * scale:
            raise SpectrumInvariantError(
                f"connected Laplacian must have lambda0 = 0, got {w[0]:.3e}")
        u0 = v[:, 0]
        if u0.min() < -1e-8 and u0.max() > 1e-8:
            raise SpectrumInvariantError("Laplacian ground state changes sign")
    if kind == HAMILTONIAN and spec.ground_state.min() <= 0:
        raise SpectrumInvariantError(
            "Hamiltonian ground state must be strictly positive "
            "(Perron-Frobenius) but has a non-positive component")


def _source(op: SymmetricOperator) -> ConvexSubgraph:
    """The subgraph `op` was built on; ValueError for a graphless one."""
    if op.source is None:
        raise ValueError("operator must come from a graph")
    return op.source


def _apply_by_adjacency(op: SymmetricOperator, u: np.ndarray) -> np.ndarray:
    """Apply the operator through neighbor sums, bypassing its dense matrix.

    Routes the eigen-recurrence certificate through graph structure instead
    of the assembled entries. ``u`` is a vector or a block of column
    vectors; each column gets the same arithmetic as it would alone.
    """
    col = (slice(None),) + (None,) * (u.ndim - 1)   # broadcast vertex data
    sub = op.source
    if sub is not None:
        nbr_sum = np.zeros_like(u)
        for ai in range(sub.nbr_local.shape[0]):
            cols = sub.nbr_local[ai]
            keep = cols >= 0
            nbr_sum[keep] += u[cols[keep]]
        out = sub.degrees[col] * u - nbr_sum
        if op.potential is not None:
            out = out + op.potential[col] * u
        return out
    if u.ndim == 2:     # one matvec per column keeps each column's bits
        return np.stack([op.entries @ u[:, j] for j in range(u.shape[1])],
                        axis=1)
    return op.entries @ u


_CERT_BLOCK = 64    # eigenvector columns per recurrence-certificate pass


@dataclass(frozen=True)
class RayleighCertificate:
    recurrence_residual: float
    rayleigh_error: float
    ok: bool


def rayleigh_gap_check(spec: Spectrum) -> RayleighCertificate:
    """Certify the eigen-recurrence componentwise and the Rayleigh quotient.

    (i) every pair satisfies -lambda u(x) = sum_{y~x} (u(y) - u(x)) (plus the
    potential term for Hamiltonians), evaluated through adjacency sums;
    (ii) the quadratic-form Rayleigh quotient of u1 reproduces lambda1.
    The operator is the spectrum's own, and the bars are
    ``spec.tolerances.recurrence`` and ``.rayleigh``.
    """
    op, tol = spec.operator, spec.tolerances
    worst = 0.0
    for lo in range(0, spec.dim, _CERT_BLOCK):
        u = spec.eigenvectors[:, lo:lo + _CERT_BLOCK]
        r = np.abs(_apply_by_adjacency(op, u)
                   - u * spec.eigenvalues[lo:lo + _CERT_BLOCK])
        bad = r.max(axis=0)
        fail = np.flatnonzero(bad > tol.recurrence)
        if fail.size:
            j = fail[0]
            raise CertificateFailure(
                f"eigen-recurrence fails for pair {lo + j} (residual "
                f"{bad[j]:.3e})", witness=int(np.argmax(r[:, j])))
        worst = max(worst, float(np.fmax.reduce(bad)))

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
    return spec._derived("certificate", lambda: rayleigh_gap_check(spec))
