"""Exact supertropical linear algebra over max-plus rationals.

Scalars live in three layers (zero, tangible, ghost); matrices, dual bases,
bilinear and quadratic forms are built on top, with brute-force oracles and
seeded property suites for validation.
"""

from .errors import (
    CapacityError,
    DomainError,
    ParseError,
    PreconditionError,
    ShapeError,
    SupertropError,
)
from .scalars import (
    E,
    ONE,
    ZERO,
    Scalar,
    Vector,
    lin_comb,
    parse_scalar,
    parse_vector,
    vector,
)
from .matrices import (
    DetResult,
    Matrix,
    adjoint,
    close,
    det,
    double_pseudo,
    independent,
    is_closed_base,
    is_nonsingular,
    is_quasi_identity,
    mat_mul,
    matrix_from_json,
    matrix_to_json,
    parse_matrix,
    pseudo_inverse,
    quasi_identities,
    rank,
)
from .bilinear import (
    BilinearForm,
    GSResult,
    PairClass,
    StripResult,
    VectorClass,
    classify_vector,
    decompose,
    evaluate,
    gram_dependent,
    gram_of,
    gram_schmidt,
    gs_step,
    is_alternate,
    is_supertropically_symmetric,
    isotropic_strip,
    normalize,
    pair_class,
    radical_member,
)
from .dual import (
    DualBase,
    Functional,
    apply,
    check_map_axioms,
    dual_base,
    dual_eval_matrix,
    dual_rank,
    ghost_kernel_contains,
    ghost_monic_verdict,
    is_ghost_monic,
    is_tropically_onto,
    lower,
    project_closed,
)
from .quadratic import (
    QuadraticForm,
    diagonal_from_form,
    form_from_q,
    hyperbolic_plane,
    is_hyperbolic_plane,
    orthogonal_sum,
    q_eval,
    quasilinearity_check,
)
from .oracle import (
    TrialReport,
    brute_force_det,
    dependence_search,
    run_suite,
    sample,
)

__version__ = "0.1.0"
