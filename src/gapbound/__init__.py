"""Spectral-gap lower bounds for combinatorial Laplacians and stoquastic
Hamiltonians on strongly convex subgraphs of invariant homogeneous graphs."""

from .config import DEFAULT_TOL, ToleranceConfig
from .groups import (FiniteGroup, GeneratorSet, build_group, check_invariance,
                     cyclic_group, direct_product, elementary_abelian_2,
                     generator_set, group_from_table)
from .graphs import (ConvexSubgraph, HomogeneousGraph, build_cayley,
                     convex_closure, induce_subgraph, is_strongly_convex)
from .operators import (Spectrum, SymmetricOperator, boundary_potential,
                        dirichlet_hamiltonian, eigendecompose, laplacian,
                        rayleigh_gap_check)
from .moduli import (ModulusOfConcavity, ModulusOfContinuity, RatioFunction,
                     c_u0, extremal_pairs, grad_ops, log_concavity,
                     modulus_of_concavity, modulus_of_continuity)
from .bounds import (GapReport, bound_thm1, bound_thm2, bound_thm3,
                     bound_thm4, bound_thm5, bound_thm6, is_hypercube,
                     is_path_graph, verify_all)
from .heat import (HeatTrajectory, decay_rate_check, default_times,
                   eta2_contraction_check, evolve, mocheat_inequality_check,
                   ratio_evolution_check)
from .families import (cycle_instance, hypercube_instance, path_instance,
                       quadratic_potential, subcube_instance)
from .jacobi import jacobi_eigh

# TODO(next benchmark change): perfbench's bench.environment records this;
# remove it with that read.
KERNEL_BACKEND = "lapack"

__version__ = "0.1.0"
