import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gapbound.errors import ConvergenceFailure
from gapbound.jacobi import available_backends, get_kernel, jacobi_eigh


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    return m + m.T


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("n", [1, 2, 3, 7, 24, 40])
def test_matches_lapack_oracle(backend, n):
    m = random_symmetric(n, seed=n)
    w, v, info = jacobi_eigh(m, backend=backend)
    wref = np.linalg.eigvalsh(m)
    scale = max(1.0, np.abs(wref).max())
    assert np.abs(w - wref).max() <= 1e-12 * scale
    assert np.abs(m @ v - v * w).max() <= 1e-11 * scale
    assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-12


def test_deterministic():
    m = random_symmetric(20, seed=9)
    w1, v1, _ = jacobi_eigh(m)
    w2, v2, _ = jacobi_eigh(m)
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_eigenvalues_sorted_and_signs_fixed():
    m = random_symmetric(15, seed=3)
    w, v, _ = jacobi_eigh(m)
    assert (np.diff(w) >= 0).all()
    for j in range(15):
        col = v[:, j]
        lead = np.argmax(np.abs(col) > 1e-12 * np.abs(col).max())
        assert col[lead] > 0


def test_zero_and_scalar_matrices():
    w, v, _ = jacobi_eigh(np.zeros((4, 4)))
    assert np.array_equal(w, np.zeros(4))
    assert np.array_equal(v, np.eye(4))
    w, v, _ = jacobi_eigh(np.array([[3.5]]))
    assert w[0] == 3.5


def test_convergence_failure_on_impossible_cap():
    m = random_symmetric(12, seed=1)
    with pytest.raises(ConvergenceFailure):
        jacobi_eigh(m, max_sweeps=0, backend="python")


def test_lapack_failure_is_convergence_failure(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceFailure, match="LAPACK"):
        jacobi_eigh(random_symmetric(5, seed=2), backend="lapack")


def test_kernel_selection_errors():
    assert available_backends() == ["lapack", "python"]
    for name in ("fortran", "cython"):
        with pytest.raises(ValueError):
            get_kernel(name)


def test_trace_preserved():
    m = random_symmetric(31, seed=11)
    w, _, _ = jacobi_eigh(m)
    assert abs(w.sum() - np.trace(m)) <= 1e-10 * max(1.0, abs(np.trace(m)))


@settings(max_examples=25, deadline=None)
@given(m=arrays(np.float64, (6, 6),
                elements=st.floats(min_value=-10, max_value=10)))
def test_property_residual_and_orthonormality(m):
    sym = m + m.T
    w, v, _ = jacobi_eigh(sym)
    scale = max(1.0, np.abs(w).max())
    assert np.abs(sym @ v - v * w).max() <= 1e-10 * scale
    assert np.abs(v.T @ v - np.eye(6)).max() <= 1e-10
    assert abs(w.sum() - np.trace(sym)) <= 1e-8 * scale
