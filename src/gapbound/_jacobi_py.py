"""Pure-numpy cyclic Jacobi sweep: the independent eigensolver oracle.

Cyclic-by-row rotations with an adaptive skip threshold. Row/column
rotations are vectorised, so this is adequate for a few hundred vertices;
it shares no code with LAPACK, so the tests compare the two.
"""

import math

import numpy as np

ADAPT = 0.5


def sweep_cyclic(a, vt, target, skip, max_sweeps):
    """Rotate until the off-diagonal Frobenius norm is <= target.

    Returns (sweeps_done, off_norm, converged).
    """
    n = a.shape[0]
    if n < 2:
        return 0, 0.0, True

    iu = np.triu_indices(n, k=1)
    sweeps_done = 0
    off = 0.0
    for sweep in range(max_sweeps + 1):
        off = math.sqrt(2.0 * float(np.sum(a[iu] ** 2)))
        if off <= target:
            return sweeps_done, off, True
        if sweep == max_sweeps:
            return sweeps_done, off, False
        tresh = max(ADAPT * off / n, skip)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tresh:
                    continue
                app = a[p, p]
                aqq = a[q, q]
                theta = 0.5 * (aqq - app) / apq
                if theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
                else:
                    t = -1.0 / (math.sqrt(theta * theta + 1.0) - theta)
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)

                rowp = a[p].copy()
                rowq = a[q].copy()
                new_p = rowp - s * (rowq + tau * rowp)
                new_q = rowq + s * (rowp - tau * rowq)
                new_p[p] = app - t * apq
                new_q[q] = aqq + t * apq
                new_p[q] = 0.0
                new_q[p] = 0.0
                # Keep the full matrix symmetric; only the upper triangle is
                # part of the contract but mirroring is free here.
                a[p, :] = new_p
                a[q, :] = new_q
                a[:, p] = new_p
                a[:, q] = new_q

                vp = vt[p].copy()
                vq = vt[q].copy()
                vt[p] = vp - s * (vq + tau * vp)
                vt[q] = vq + s * (vp - tau * vq)
        sweeps_done = sweep + 1
    return sweeps_done, off, False
