"""Workload definitions and the independent eigenvalue oracle.

Every operation carries the exact spectral gap of its operator. The oracle
rebuilds each operator here from its mathematical definition and
diagonalises it with LAPACK (``numpy.linalg.eigvalsh``), so it shares no
code with gapbound's graph builders or its Jacobi kernel.
"""

from dataclasses import dataclass

import numpy as np

ANALYSES = ["spectrum", "bounds", "moduli", "heat"]
SCHEMA = "gapbound/1"


@dataclass(frozen=True)
class RunOp:
    """One ``gapbound run`` call on one spec: a single operation."""

    name: str
    spec: dict
    gap: float

    @property
    def count(self) -> int:
        return 1


@dataclass(frozen=True)
class SweepOp:
    """One ``gapbound sweep`` call; every size in it is one operation."""

    family: str
    lo: int
    hi: int
    gaps: dict                    # size -> exact gap

    @property
    def count(self) -> int:
        return len(self.gaps)


# -- oracle operators ---------------------------------------------------------

def exact_gap(matrix) -> float:
    w = np.linalg.eigvalsh(np.asarray(matrix, dtype=np.float64))
    return float(w[1] - w[0])


def path_laplacian(n: int) -> np.ndarray:
    a = np.zeros((n, n))
    i = np.arange(n - 1)
    a[i, i + 1] = a[i + 1, i] = -1.0
    a[np.arange(n), np.arange(n)] = -a.sum(axis=1)
    return a


def cycle_laplacian(n: int) -> np.ndarray:
    a = 2.0 * np.eye(n)
    i = np.arange(n)
    a[i, (i + 1) % n] -= 1.0
    a[i, (i - 1) % n] -= 1.0
    return a


def cube_laplacian(mask) -> tuple:
    """Laplacian of the subcube of Q_len(mask) cut out by the fixed bits.

    Returns (L, boundary) where boundary[v] counts the edges leaving the
    subcube at v: one per fixed bit.
    """
    bits = len(mask)
    ids = [v for v in range(1 << bits)
           if all(b is None or (v >> i) & 1 == b for i, b in enumerate(mask))]
    index = {v: k for k, v in enumerate(ids)}
    a = np.zeros((len(ids), len(ids)))
    for v, k in index.items():
        for i in range(bits):
            u = index.get(v ^ (1 << i))
            if u is not None:
                a[k, u] = -1.0
    a[np.arange(len(ids)), np.arange(len(ids))] = -a.sum(axis=1)
    fixed = sum(b is not None for b in mask)
    return a, np.full(len(ids), float(fixed))


# -- operations -----------------------------------------------------------------

def _spec(family, potential=None):
    spec = {"schema": SCHEMA, "instance": {"family": family},
            "analyses": list(ANALYSES)}
    if potential is not None:
        spec["potential"] = potential
    return spec


def path_op(n: int, potential=None) -> RunOp:
    """path(n) with no potential, "boundary", or a quadratic formula dict.

    gapbound realises path(n) as an arc of C_2n, so the boundary potential
    is one edge at each end.
    """
    a = path_laplacian(n)
    name = f"path({n})"
    if potential == "boundary":
        a[0, 0] += 1.0
        a[-1, -1] += 1.0
        name += "+boundary"
    elif potential is not None:
        c, center = potential["c"], potential["center"]
        w = np.maximum(c * (np.arange(n) - center) ** 2, 0.0)
        a += np.diag(w)
        name += f"+quadratic(c={c:g},center={center:g})"
    return RunOp(name, _spec({"name": "path", "n": n}, potential), exact_gap(a))


def cycle_op(n: int) -> RunOp:
    return RunOp(f"cycle({n})", _spec({"name": "cycle", "n": n}),
                 exact_gap(cycle_laplacian(n)))


def cube_op(bits: int) -> RunOp:
    a, _ = cube_laplacian([None] * bits)
    return RunOp(f"Q{bits}", _spec({"name": "hypercube", "n": bits}), exact_gap(a))


def subcube_op(mask) -> RunOp:
    """Subcube with the boundary potential (its Dirichlet operator)."""
    a, boundary = cube_laplacian(mask)
    fixed = ",".join(f"x{i}={b}" for i, b in enumerate(mask) if b is not None)
    return RunOp(f"Q{len(mask)}[{fixed}]+boundary",
                 _spec({"name": "subcube", "mask": list(mask)}, "boundary"),
                 exact_gap(a + np.diag(boundary)))


def path_sweep_op(lo: int, hi: int) -> SweepOp:
    return SweepOp("path", lo, hi,
                   {n: exact_gap(path_laplacian(n)) for n in range(lo, hi + 1)})


# Why each workload exists is recorded in BENCHMARK.json; the instance
# choices follow the pipeline stage each one is meant to make dominant.
WORKLOADS = {
    # eigensolve-bound: two 128/256-vertex cube operators
    "run-cube": lambda: [cube_op(8), subcube_op([None] * 7 + [0])],
    # moduli- and heat-bound: long paths; the two quadratic specs fail at the
    # u0 noise floor today and stay in so that failure stays visible
    "run-path": lambda: [
        path_op(160, "boundary"),
        cycle_op(64),
        path_op(24, {"formula": "quadratic", "c": 0.5, "center": 11.5}),
        path_op(30, {"formula": "quadratic", "c": 0.5, "center": 15}),
    ],
    # many small verify_all calls through the CLI thread pool
    "sweep-path": lambda: [path_sweep_op(2, 80)],
}


def warmup_ops():
    """Toy operations run once, untimed, before measuring."""
    return [path_op(6, "boundary"), path_sweep_op(2, 5)]
