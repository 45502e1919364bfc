"""Dense symmetric eigensolver front end.

Two backends share one contract (ascending eigenvalues with ties kept in
stable order, orthonormal sign-fixed eigenvectors, a ``JacobiInfo`` record):

- ``lapack`` (default): ``numpy.linalg.eigh``;
- ``python``: the paper's cyclic Jacobi sweep in ``_jacobi_py``, kept as an
  independent oracle for the tests.

The default is chosen at import time; set GAPBOUND_KERNEL=lapack or =python
to force one.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure
from . import _jacobi_py


@dataclass(frozen=True)
class JacobiInfo:
    backend: str
    sweeps: int
    off_norm: float     # NaN for lapack, which reports no off-diagonal norm
    target: float


def _solve_lapack(a, target, max_sweeps):
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"LAPACK eigh did not converge: {exc}") from exc
    return w, v, JacobiInfo("lapack", 0, math.nan, target)


def _solve_jacobi(a, target, max_sweeps):
    n = a.shape[0]
    vt = np.eye(n, dtype=np.float64)
    sweeps, off, converged = _jacobi_py.sweep_cyclic(a, vt, target, target / n,
                                                     max_sweeps)
    if not converged:
        raise ConvergenceFailure(
            f"Jacobi did not converge in {max_sweeps} sweeps "
            f"(off-diagonal norm {off:.3e}, target {target:.3e})")
    return np.diag(a).copy(), vt.T, JacobiInfo("python", sweeps, off, target)


_SOLVERS = {"lapack": _solve_lapack, "python": _solve_jacobi}


def available_backends():
    return list(_SOLVERS)


def get_kernel(name):
    """The solver ``(a, target, max_sweeps) -> (w, v, info)`` named ``name``."""
    if name not in _SOLVERS:
        raise ValueError(f"unknown kernel backend {name!r}; "
                         f"known: {available_backends()}")
    return _SOLVERS[name]


BACKEND = os.environ.get("GAPBOUND_KERNEL") or "lapack"
get_kernel(BACKEND)      # reject an unknown GAPBOUND_KERNEL at import


def jacobi_eigh(matrix, tol_factor=1e-13, max_sweeps=100, backend=None):
    """Full eigendecomposition of a real symmetric matrix.

    Returns (w, v, info) with eigenvalues ``w`` ascending and orthonormal
    eigenvectors in the columns of ``v``. Deterministic for a fixed backend
    (and, for lapack, a fixed BLAS thread count): ties in the final sort are
    broken stably and each eigenvector's sign is fixed.

    Raises ConvergenceFailure if the solver does not converge: for the
    Jacobi oracle, if the off-diagonal Frobenius norm does not reach
    ``tol_factor * ||A||_F`` within ``max_sweeps`` sweeps.
    """
    name = BACKEND if backend is None else backend
    solve = get_kernel(name)
    a = np.array(matrix, dtype=np.float64, order="C", copy=True)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError("matrix must be square")

    fro = float(np.linalg.norm(a))
    target = tol_factor * fro
    if fro == 0.0 or n == 1:
        return np.diag(a).copy(), np.eye(n), JacobiInfo(name, 0, 0.0, target)

    w, v, info = solve(a, target, max_sweeps)
    order = np.argsort(w, kind="stable")
    w = w[order]
    v = v[:, order]
    _fix_signs(v)
    return w, v, info


def _fix_signs(v):
    """First component of each eigenvector exceeding noise is made positive."""
    mags = np.abs(v)
    lead = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)
    flip = v[lead, np.arange(v.shape[1])] < 0
    v[:, flip] = -v[:, flip]
