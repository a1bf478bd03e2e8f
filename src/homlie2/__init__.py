"""Exact-arithmetic toolkit for twisted Lie-type structures.

Structure constants over rationals, axiom checkers with witnesses, cochain
cohomology of twisted algebras, two-term homotopy structures with their
categorical presentations, and the constructions linking them (quadratic,
string-type, crossed modules, left-symmetric products, symplectic forms).
"""

from types import ModuleType as _ModuleType

from .cohomology import (Cochain, Representation, adjoint_representation,
                         check_representation, class_is_trivial, coboundary,
                         coboundary_matrix, cohomology_dims,
                         cohomology_inclusion_check, dual_representation,
                         hom_cochain_basis, is_hom_cochain, trivial_representation)
from .constructions import (CrossedModule, HomLeftSymmetric, QuadraticHomLie,
                            SymplecticHomLie, check_crossed_module,
                            check_left_symmetric, check_quadratic,
                            check_symplectic, crossed_to_strict, l3_from_B,
                            quadratic, skeletal_from_quadratic, sl2_example,
                            star_from_symplectic, strict_from_leftsym,
                            strict_from_symplectic, strict_to_crossed,
                            string_from_semisimple)
from .errors import CheckFailure, HomLieError, InputError, PreconditionError
from .exactlin import Matrix, in_span, rank_and_kernel, solve_linear
from .hl2 import (HLMorphism, HomLie2Data, TwoTermHL, check_hl_morphism,
                  check_hom_lie2, check_two_term, compose_hl_morphisms,
                  functor_S, functor_T, identity_hl_morphism, roundtrip_check,
                  two_term_hl)
from .homlie import (HomLieAlgebra, HomLieMorphism, abelian_algebra,
                     check_hom_lie, check_hom_lie_morphism, hom_lie_algebra,
                     killing_form, twisted_algebra)
from .modelfile import (LeftSymmetricFile, ModelError, load_model, parse_model,
                        save_model, serialize_model)
from .reports import CheckItem, CheckReport
from .twovect import TwoVectorSpace, check_linear_functor, from_complex

__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
