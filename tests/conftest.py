import itertools

import mpmath
import numpy as np
import pytest

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
