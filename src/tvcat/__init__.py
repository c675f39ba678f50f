"""Finite-model workbench for quantale-enriched categories.

Exact, desk-scale models: quantales and their relations, set monads with
lax extensions, enriched categories and bimodules, presheaf completions,
and the comma-object factorisation systems they generate.
"""

from .category import (TVCategory, TVFunctor, check_category,
                       check_enriched_calculus, costar, dual_category,
                       functor_leq, is_fully_faithful, is_functor,
                       is_separated, star, tensor_category, unit_category,
                       v_category)
from .core import (DEFAULT_MAX_SPACE, EngineError, FinSet, Fn, InputError,
                   SizeCapError, ValidationError, WorkbenchError)
from .corpus import iso_representatives, seed_categories, seed_corpus
from .lofs import (Factorisation, check_awfs, check_awfs_corpus,
                   check_left_class, check_simplicity,
                   check_simplicity_corpus, comma_factorise,
                   enumerate_fillers, l_membership, r_membership,
                   solve_lifting, wfs_cross_check)
from .monad import (MonadInstance, check_monad_laws, instantiate_monad,
                    kleisli, lax_extend)
from .presheaf import (PresheafSpace, check_adjoint_residual,
                       check_presheaf_monad, check_saturated, phi_dense,
                       presheaf_space, saturated_class,
                       unit_isomorphism_check, yoneda, yoneda_lemma_check)
from .quantale import (Quantale, VRelation, boolean_quantale, build_quantale,
                       check_quantale_laws, lukasiewicz_chain, powerset_frame,
                       residual_left, truncated_chain)
from .report import LawReport
from .workspace import Workspace

__all__ = [
    "DEFAULT_MAX_SPACE", "EngineError", "FinSet", "Fn", "InputError",
    "SizeCapError", "ValidationError", "WorkbenchError",
    "Quantale", "VRelation", "boolean_quantale", "build_quantale",
    "check_quantale_laws", "lukasiewicz_chain", "powerset_frame",
    "residual_left", "truncated_chain",
    "MonadInstance", "check_monad_laws", "instantiate_monad", "kleisli",
    "lax_extend",
    "TVCategory", "TVFunctor", "check_category", "check_enriched_calculus",
    "costar", "dual_category", "functor_leq", "is_fully_faithful",
    "is_functor", "is_separated", "star", "tensor_category",
    "unit_category", "v_category",
    "PresheafSpace", "check_adjoint_residual",
    "check_presheaf_monad", "check_saturated",
    "phi_dense", "presheaf_space", "saturated_class",
    "unit_isomorphism_check", "yoneda", "yoneda_lemma_check",
    "Factorisation", "check_awfs", "check_awfs_corpus", "check_left_class",
    "check_simplicity", "check_simplicity_corpus", "comma_factorise",
    "enumerate_fillers", "l_membership", "r_membership", "solve_lifting",
    "wfs_cross_check",
    "iso_representatives", "seed_categories", "seed_corpus",
    "LawReport", "Workspace",
]
