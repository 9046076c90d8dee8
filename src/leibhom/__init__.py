"""Exact rational homology of finite-dimensional algebras.

Leibniz, Hochschild, cyclic, Chevalley-Eilenberg and bar complexes over Q,
the comparison maps between them, mapping cones with their long exact
sequences, and a bundled verification battery. Everything is exact integer
and Fraction arithmetic; there are no floats anywhere.
"""

from .algebra import (Algebra, AlgebraMorphism, BUILTIN_MORPHISMS,
                      BUILTIN_NAMES, MorphismReport, Presentation,
                      ValidationReport, builtin_algebra, builtin_morphism,
                      group_algebra, identity_morphism, matrix_algebra,
                      matrix_morphism, validate_algebra, validate_morphism)
from .linalg import (Echelon, SparseMatrix, blocked_rank, kernel_basis,
                     rank_only)
from .complexes import (DEFAULT_MAX_DIM, KINDS, KahlerModule,
                        ResourceBoundExceeded, Session, basis_labels,
                        boundary_column_fn, boundary_matrix, build_complex,
                        cyclic_quotient, degree_dim, verify_d2_streamed,
                        wedge_basis)
from .homology import (ChainComplex, ChainMapRep, HomologyData, MappingCone,
                       compose_maps, cone_pair_map, exactness_check,
                       induced_map, induced_rank_streamed, les_of_cone,
                       mapping_cone, verify_boundary_squares,
                       verify_chain_map)
from .chain_maps import (bar_iota, bar_pi, corner, cycle_slot_bridge,
                         embed_cy, eps_omega, epsilon, lift_p,
                         morphism_complex_map, morphism_tensor_column_fn,
                         omega_complex, p_kahler, phi, proj_I, proj_adjoint,
                         proj_lie, theta, theta_nf, tr_phi_column_fn, trace)
from .serialize import (FormatError, algebra_from_dict, algebra_to_dict,
                        load_algebra, load_morphism, save_algebra)
from .suites import (SUITE_IDS, SuiteConfig, report_failed, run_all,
                     run_suite)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
