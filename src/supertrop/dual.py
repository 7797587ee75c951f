"""Linear functionals, dual bases of closed bases, and ghost kernels.

A functional is represented concretely by its row vector; the dual base of
a closed base matrix A consists of the functionals eps_i whose rows are the
rows of A^{nabla nabla}, so that the evaluation grid on the base is the
quasi-identity A^{nabla nabla} A (diagonal one, ghost off-diagonal).
Ghost-monic and tropically onto are exact rank tests; that a matrix map is
a supertropical map is checked by the ``det-engines`` suite.
"""

from __future__ import annotations

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
from .scalars import Record, Scalar, Vector, dot


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


def is_ghost_monic(m: Matrix) -> bool:
    """No tangible vector (zeros allowed) maps into the ghost subspace: the
    columns are tropically independent, i.e. |M| is tangible."""
    if not isinstance(m, Matrix):
        raise DomainError("ghost-monic test takes a Matrix")
    if not m.is_square:
        raise ShapeError("ghost-monic test needs a square matrix")
    return is_nonsingular(m)
