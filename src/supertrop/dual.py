"""Linear functionals, dual bases of closed bases, and ghost kernels.

A functional is represented concretely by its row vector; the dual base of
a closed base matrix A consists of the functionals eps_i whose rows are the
rows of A^{nabla nabla}, so that the evaluation grid on the base is the
quasi-identity A^{nabla nabla} A (diagonal one, ghost off-diagonal).
"""

from __future__ import annotations

import random

from .errors import DomainError, PreconditionError, ShapeError
from .matrices import (
    Matrix,
    _optimum,
    _tangible_minor,
    double_pseudo,
    is_nonsingular,
    mat_mul,
    pseudo_inverse,
    rank,
)
from .scalars import NU_HI, NU_LO, Record, Scalar, Vector, check_trials, dot, random_scalar


class Functional(Record):
    """A linear functional f(v) = sum_j row_j * v_j."""

    __slots__ = ("row",)  # Vector

    def __call__(self, v: Vector) -> Scalar:
        return apply(self, v)


class DualBase(Record):
    __slots__ = ("functionals", "source")  # tuple of Functional, Matrix


def apply(f: Functional, v: Vector) -> Scalar:
    if f.row.dim != v.dim:
        raise ShapeError("functional/vector dimension mismatch")
    return dot(f.row, v)


def project_closed(a: Matrix, v: Vector) -> Vector:
    """The idempotent projection v |-> I_A v onto the closed column space."""
    return a.apply(pseudo_inverse(a).apply(v))


def lower(a: Matrix, v: Vector) -> Vector:
    """v |-> A^{nabla nabla} v; the identity on the closed column space."""
    return double_pseudo(a).apply(v)


def dual_base(a: Matrix) -> DualBase:
    """The dual functionals of the closed base whose columns are the b_i:
    eps_i extracts coordinate i of the lowering map, i.e. its row vector is
    row i of A^{nabla nabla}.  The evaluation grid [eps_i(b_j)] is then the
    quasi-identity A^{nabla nabla} A = I'_A, so eps_i(b_i) is exactly one
    and the off-diagonal evaluations are ghost.  Demands closedness; pass
    close(A) first if the base is not closed.  One solve of A gives both
    the closedness test I_A A = A and the rows of A^{nabla nabla}."""
    try:
        o = _optimum(a)
    except DomainError:  # non-square or singular
        raise PreconditionError("dual base requires a nonsingular base matrix") from None
    if o.close() != a:
        raise PreconditionError(
            "base matrix is not closed; apply close() before taking the dual base"
        )
    grid = o.pinv(ghost_off_sigma=True)
    return DualBase(tuple(Functional(grid.row(i)) for i in range(a.rows)), a)


def dual_eval_matrix(d: DualBase) -> Matrix:
    """The grid [eps_i(b_j)]; diagonal exactly one, off-diagonal ghost."""
    return mat_mul(Matrix.from_rows(f.row for f in d.functionals), d.source)


def dual_rank(d: DualBase) -> int:
    return rank(Matrix.from_rows(tuple(f.row) for f in d.functionals))


def ghost_kernel_contains(m: Matrix, v: Vector) -> bool:
    """True iff M v lies in the standard ghost subspace."""
    return m.apply(v).is_ghost


def is_tropically_onto(m: Matrix) -> bool:
    """The matrix map is tropically onto iff its image contains a thick
    subspace, i.e. the matrix has full rank."""
    if not m.is_square:
        raise ShapeError("tropically-onto test needs a square matrix")
    return _tangible_minor(m, m.rows)


PROVED = "proved"
COUNTEREXAMPLE = "counterexample"
NO_COUNTEREXAMPLE = "no-counterexample"


def ghost_monic_verdict(m: Matrix, trials: int = 100, seed: int = 0) -> str:
    """Exact for nonsingular matrices (the ghost kernel of a nonsingular
    matrix contains no tangible vector); otherwise a seeded refutation
    search over tangible vectors.  ``trials`` must be at least 1."""
    check_trials(trials)
    if not m.is_square:
        raise ShapeError("ghost-monic test needs a square matrix")
    if is_nonsingular(m):
        return PROVED
    for i in range(trials):
        rng = random.Random(f"ghost-monic:{seed}:{i}")
        v = Vector(tuple(random_scalar(rng, 0.0, 0.0) for _ in range(m.cols)))
        if v.is_tangible and m.apply(v).is_ghost:
            return COUNTEREXAMPLE
    return NO_COUNTEREXAMPLE


def is_ghost_monic(m: Matrix, trials: int = 100, seed: int = 0) -> bool:
    return ghost_monic_verdict(m, trials, seed) != COUNTEREXAMPLE


class MapAxiomReport(Record):
    __slots__ = ("trials", "passed", "counterexample")  # int, bool, str or None
    _defaults = {"counterexample": None}


def check_map_axioms(m: Matrix, trials: int = 100, seed: int = 0) -> MapAxiomReport:
    """Sampled check that v |-> M v is a supertropical map: additivity and
    tangible and ghost homogeneity.  The axioms ask additivity and ghost
    homogeneity only up to ghost-surpassing; matrix maps are linear, so all
    three are checked as equalities, which ghost-surpassing follows from.
    ``trials`` must be at least 1."""
    check_trials(trials)
    for i in range(trials):
        rng = random.Random(f"map-axioms:{seed}:{i}")
        v, w = (Vector(tuple(random_scalar(rng, 0.25, 0.15) for _ in range(m.cols)))
                for _ in range(2))
        alpha = Scalar.tangible(rng.randint(NU_LO, NU_HI))
        g = Scalar.ghost_of(rng.randint(NU_LO, NU_HI))

        if m.apply(v + w) != m.apply(v) + m.apply(w):
            return MapAxiomReport(i + 1, False, f"additivity at v={v}, w={w}")
        if m.apply(v.scale(alpha)) != m.apply(v).scale(alpha):
            return MapAxiomReport(i + 1, False, f"tangible homogeneity at v={v}, a={alpha}")
        if m.apply(v.scale(g)) != m.apply(v).scale(g):
            return MapAxiomReport(i + 1, False, f"ghost homogeneity at v={v}, a={g}")
    return MapAxiomReport(trials, True)
