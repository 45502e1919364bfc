"""Named instance families: paths, cycles, hypercubes, subcubes.

A path with n vertices is realized as a strongly convex arc of the cycle
C_{2n}, so Dirichlet boundary data (two boundary edges) comes out of the
generic subgraph machinery rather than being special-cased.
"""

import numpy as np

from .errors import SpecValidationError
from .graphs import ConvexSubgraph, HomogeneousGraph, build_cayley, induce_subgraph
from .groups import cyclic_group, elementary_abelian_2, generator_set


def cycle_graph(n: int) -> HomogeneousGraph:
    if n < 3:
        raise SpecValidationError("cycle needs n >= 3")
    g = cyclic_group(n)
    return build_cayley(g, generator_set(g, [1, n - 1]))


def hypercube_graph(n: int) -> HomogeneousGraph:
    if n < 1:
        raise SpecValidationError("hypercube needs n >= 1")
    g = elementary_abelian_2(n)
    return build_cayley(g, generator_set(g, [1 << i for i in range(n)]))


def path_instance(n: int) -> ConvexSubgraph:
    """Path with n vertices as the arc {0..n-1} of C_{2n}."""
    if n < 1:
        raise SpecValidationError("path needs n >= 1")
    host = cycle_graph(max(2 * n, 4))
    return induce_subgraph(host, range(n))


def cycle_instance(n: int) -> ConvexSubgraph:
    return cycle_graph(n).full_subgraph()


def hypercube_instance(n: int) -> ConvexSubgraph:
    return hypercube_graph(n).full_subgraph()


def subcube_instance(mask) -> ConvexSubgraph:
    """Subcube of Q_len(mask); mask entries are 0, 1 (fixed bit) or None (free).

    Bit i of a vertex id corresponds to mask position i.
    """
    mask = list(mask)
    n = len(mask)
    if n < 1:
        raise SpecValidationError("subcube mask must be nonempty")
    host = hypercube_graph(n)
    ids = np.arange(1 << n)
    keep = np.ones(ids.size, dtype=bool)
    for i, bit in enumerate(mask):
        if bit is None:
            continue
        if bit not in (0, 1):
            raise SpecValidationError(f"mask entries must be 0, 1 or null, got {bit!r}")
        keep &= ((ids >> i) & 1) == bit
    return induce_subgraph(host, ids[keep])


def _all_involutions(sub: ConvexSubgraph) -> bool:
    """Every host element is its own inverse: Z_2^n under any generators,
    folded cubes included; wider than Q_n (`HomogeneousGraph.is_hypercube`)."""
    g = sub.host.group
    return bool((g.inverse == np.arange(g.order)).all()) and g.order > 1


def vertex_coordinate(sub: ConvexSubgraph) -> np.ndarray:
    """Scalar coordinate per local vertex for formula potentials.

    Hamming weight of the host id on hosts where every element is an
    involution (Z_2^n under any generators); the position along
    the vertex list otherwise (which is the arc coordinate for paths).
    """
    if _all_involutions(sub):
        return np.array([bin(int(v)).count("1") for v in sub.vset], dtype=np.float64)
    return np.arange(sub.n_vertices, dtype=np.float64)


def quadratic_potential(sub: ConvexSubgraph, c: float, center: float) -> np.ndarray:
    """W(x) = c * (coord(x) - center)^2; c < 0 gives a negative potential,
    which the Hamiltonian rejects."""
    coord = vertex_coordinate(sub)
    return c * (coord - center) ** 2
