import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gapbound.errors import ConvergenceFailure
from gapbound.jacobi import _negative_lead, jacobi_eigh


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    return m + m.T


def random_stoquastic(n, seed):
    """H = L + diag(W): the Laplacian of a random connected graph (a path
    plus random chords) and a random potential W >= 0."""
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < 0.3, k=1)
    adj[np.arange(n - 1), np.arange(1, n)] = True
    adj = (adj | adj.T).astype(float)
    return np.diag(adj.sum(axis=1) + rng.uniform(0.0, 4.0, n)) - adj


@pytest.mark.parametrize("n,oracle", [
    (n, oracle) for n in (1, 2, 3, 7, 16, 24, 40) for oracle in ("lapack", "python")
    # eigsy costs about 3 s at n = 40: the mpmath oracle stops at 24
    if not (oracle == "python" and n > 24)])
def test_matches_lapack_oracle(n, oracle, mp_eigh):
    """LAPACK's eigh through ``jacobi_eigh`` against an oracle: ``lapack`` is
    numpy's ``eigvalsh`` (a consistency check), ``python`` is the independent
    ``mpmath.eigsy`` at 30 digits."""
    m = random_symmetric(n, seed=n)
    w, v, _ = jacobi_eigh(m)
    wref = np.linalg.eigvalsh(m) if oracle == "lapack" else mp_eigh(m)[0]
    scale = max(1.0, np.abs(wref).max())
    assert np.abs(w - wref).max() <= 1e-12 * scale
    assert np.abs(m @ v - v * w).max() <= 1e-11 * scale
    assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-12


@pytest.mark.parametrize("n,seed", [(2, 0), (5, 1), (9, 2), (16, 3), (24, 4)])
def test_stoquastic_matches_mpmath_oracle(n, seed, mp_eigh):
    h = random_stoquastic(n, seed)
    w, v, _ = jacobi_eigh(h)
    wref, vref = mp_eigh(h)
    scale = max(1.0, np.abs(wref).max())
    assert np.abs(w - wref).max() <= 1e-12 * scale
    assert np.abs(h @ v - v * w).max() <= 1e-11 * scale
    assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-12
    # Perron-Frobenius: the ground state has one sign, which the sign fix
    # makes positive, and matches the oracle's in every entry
    u0, ref = v[:, 0], np.abs(vref[:, 0])
    assert (u0 > 0).all()
    assert np.abs(u0 - ref).max() <= 1e-12 * ref.min()


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


def test_one_sign_rule_for_columns_and_vectors():
    # the first entry above 1e-12 of the largest magnitude decides, not
    # the noise before it nor the largest entry; a zero vector keeps its sign
    v = np.array([[-1e-14, 0.0, 2.0, 0.0],
                  [0.5, -3.0, -1.0, 0.0],
                  [-0.9, 1.0, 0.0, 0.0]])
    assert _negative_lead(v).tolist() == [False, True, False, False]
    assert [bool(_negative_lead(c)) for c in v.T] == \
        [False, True, False, False]


def test_zero_and_scalar_matrices():
    w, v, _ = jacobi_eigh(np.zeros((4, 4)))
    assert np.array_equal(w, np.zeros(4))
    assert np.array_equal(v, np.eye(4))
    w, v, _ = jacobi_eigh(np.array([[3.5]]))
    assert w[0] == 3.5


def test_lapack_failure_is_convergence_failure(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceFailure, match="LAPACK"):
        jacobi_eigh(random_symmetric(5, seed=2))


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
