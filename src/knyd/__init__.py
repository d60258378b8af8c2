"""Exact computer algebra for the Hopf algebras K_n (n odd), their simple
Yetter-Drinfeld modules, fusion rules, and Nichols algebras."""

from .cyclotomic import CycNum, cyc, cyclotomic_polynomial, root_order
from .linalg import CycMatrix
from .hopf import (KnAlgebra, KnElement, TensorElement, antipode, character,
                   comultiply, counit, multiply, verify_hopf_axioms)
from .ydmod import (Label, U, V, W, YDModule, braided_space, braiding,
                    build_simple, build_u_module, check_yd, dimension_census,
                    direct_sum, hom_dimension, list_simples, parse_label)
from .fusion import (FusionDecomposition, closed_form_fuse, decompose,
                     fusion_table, tensor_module, zn_orbit_set)
from .nichols import (BraidedSpace, GradedReport, MemoryBudgetError,
                      a2_criterion, check_braid_equation, graded_dims,
                      infinite_precheck, is_square_zero, presentation_check,
                      square_zero_monomial_space, sum_criterion,
                      tensor_vector)
from .racks import (BraidedSet, CocycleTable, Rack, check_F_cocycle,
                    check_rack_cocycle, cq_braiding, d_cocycle, derived_rack,
                    dihedral_rack, sF_braiding, standard_solution,
                    t_equivalence_cocycle, twist_equivalence_check,
                    w_cocycle)

__version__ = "0.1.0"
