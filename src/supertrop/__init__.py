"""Exact supertropical linear algebra over max-plus rationals.

Scalars live in three layers (zero, tangible, ghost); matrices, dual bases,
bilinear and quadratic forms are built on top, with brute-force oracles and
seeded property suites for validation.

Names resolve on first access (PEP 562): ``supertrop.det`` imports
``supertrop.matrices`` then, and ``import supertrop`` alone imports no
submodule.  Each access reads the defining module's current binding.
"""

import importlib
import sys

_EXPORTS = {
    "errors": "CapacityError DomainError ParseError PreconditionError ShapeError SupertropError",
    "scalars": "E ONE ZERO Scalar Vector lin_comb parse_scalar parse_vector vector",
    "matrices": "DetResult Matrix adjoint close det double_pseudo independent is_closed_base "
                "is_nonsingular is_quasi_identity mat_mul matrix_from_json matrix_to_json "
                "parse_matrix pseudo_inverse quasi_identities rank",
    "bilinear": "BilinearForm GSResult PairClass StripResult VectorClass classify_vector "
                "decompose evaluate gram_dependent gram_of gram_schmidt gs_step is_alternate "
                "is_supertropically_symmetric isotropic_strip normalize pair_class radical_member",
    "dual": "DualBase Functional apply dual_base dual_eval_matrix dual_rank ghost_kernel_contains "
            "is_ghost_monic is_tropically_onto lower project_closed",
    "quadratic": "QuadraticForm diagonal_from_form form_from_q hyperbolic_plane "
                 "is_hyperbolic_plane orthogonal_sum q_eval quasilinearity_check",
    "oracle": "TrialReport brute_force_det dependence_search run_suite sample",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name or a library module, imported on demand.  The result
    is not stored here, so a name always reads its module's binding."""
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    full = f"{__name__}.{module}"
    loaded = sys.modules.get(full) or importlib.import_module(full)
    return loaded if module is name else getattr(loaded, name)
