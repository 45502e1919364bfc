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
