import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from gapbound.heat import gershgorin_max

# Acceptance tests append one line per criterion; printed after the run so
# they survive pytest's output capture.
ACCEPTANCE_LINES = []


def record_criterion(line: str):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def mpmath_eigh(a, dps=30):
    """(w, v) of a real symmetric matrix from ``mpmath.eigsy`` at ``dps``
    digits, rounded to float64: the independent oracle for LAPACK."""
    with mpmath.workdps(dps):
        e, q = mpmath.eigsy(mpmath.matrix(np.asarray(a, dtype=float).tolist()))
        return (np.array([float(x) for x in e]),
                np.array(q.tolist(), dtype=float))


@pytest.fixture
def mp_eigh():
    return mpmath_eigh


def traced_peak(make):
    """make() and the tracemalloc peak while it runs, in bytes above what
    was traced when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        return make(), tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def euler_states(op, phi0, times, dt):
    """Explicit Euler states of d(phi)/dt = -A phi at each sample time: the
    independent oracle for the spectral heat route.

    Each interval between samples takes ceil(span / dt) equal steps
    phi <- (I - h A) phi, applied as one matrix power (repeated squaring),
    which is the same iterate as stepping one at a time up to rounding. The
    step must lie below the stability limit 1 / gershgorin_max(op), a bound
    that needs no eigensolve.
    """
    lam_max = gershgorin_max(op)
    assert lam_max <= 0 or dt < 1.0 / lam_max, "Euler step past stability"
    a, eye = op.entries, np.eye(op.dim)
    cur = np.asarray(phi0, dtype=np.float64)
    states, t_prev = [], 0.0
    for t in times:
        span = t - t_prev
        if span > 0:
            steps = max(1, math.ceil(span / dt))
            h = span / steps
            cur = np.linalg.matrix_power(eye - h * a, steps) @ cur
        t_prev = t
        states.append(cur)
    return np.stack(states)


def transposition_cayley(n):
    """Cay(S_n, all transpositions) as an explicit table: (table, gens).

    Elements are the permutations of range(n) in lexicographic order, so
    the identity is 0; table[a][b] is the composition a o b. The
    transpositions form a conjugation-invariant set, so the graph is
    homogeneous; its gap is n, with multiplicity (n - 1)^2.
    """
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[i] for i in b)] for b in perms] for a in perms]
    gens = sorted(i for i, p in enumerate(perms)
                  if sum(p[k] != k for k in range(n)) == 2)
    return table, gens


@pytest.fixture
def transpositions():
    return transposition_cayley
