"""Dense symmetric eigensolver front end over LAPACK (``numpy.linalg.eigh``).

Eigenvalues come out ascending, as LAPACK returns them, and each
eigenvector's sign is fixed, so the output is deterministic for a fixed
BLAS thread count. The tests check it against ``mpmath.eigsy`` at 30 digits.
`_negative_lead` is the package's one sign rule: every eigenvector, basis
vector and ground state is negated where it says so.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure


# TODO(next benchmark change): perfbench's spans._count_jacobi reads
# result[2].sweeps, and its LAYERS name jacobi.jacobi_eigh(matrix); drop
# this record (and the module's name) together with them.
@dataclass(frozen=True)
class JacobiInfo:
    sweeps: int = 0


def jacobi_eigh(matrix):
    """Full eigendecomposition of a real symmetric matrix.

    Returns (w, v, info) with eigenvalues ``w`` ascending, as LAPACK
    returns them, and orthonormal eigenvectors in the columns of ``v``,
    each with its sign fixed.

    Raises ConvergenceFailure if LAPACK does not converge.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"LAPACK eigh did not converge: {exc}") from exc
    _fix_signs(v)
    return w, v, JacobiInfo()


def _negative_lead(v):
    """Whether the first component above 1e-12 times the largest magnitude
    is negative, for each column of `v`, or for `v` itself if a vector."""
    mags = np.abs(v)
    lead = np.argmax(mags > 1e-12 * mags.max(axis=0, initial=0.0), axis=0)
    return np.take_along_axis(v, lead[None], axis=0)[0] < 0


def _fix_signs(v):
    """Negate in place each column of `v` that `_negative_lead` selects."""
    flip = _negative_lead(v)
    v[:, flip] = -v[:, flip]
