"""Quasilinear quadratic forms and their bilinear companions.

Two representations: form-backed (Q(v) = <v,v> for a stored bilinear form)
and diagonal (a sequence of self-pairing values q_i, strictly quasilinear
by construction: Q(sum a_i e_i) = sum a_i^2 q_i).  Quasilinearity is read
off the Gram matrix exactly, with no sampling.  The square-root
construction turns a strictly quasilinear form back into a strict symmetric
bilinear form.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .bilinear import BilinearForm, evaluate, is_supertropically_symmetric
from .errors import DomainError, PreconditionError, ShapeError
from .matrices import Matrix, independent
from .scalars import ZERO, Record, Scalar, Vector, _pairings

STRICT = "strict"
QUASILINEAR = "quasilinear"
NEITHER = "neither"


class QuadraticForm(Record):
    """Tagged union: exactly one of ``form`` (form-backed) or ``diagonal``
    (strictly quasilinear diagonal values) is set."""

    __slots__ = ("form", "diagonal")

    def __init__(self, form: Optional[BilinearForm] = None,
                 diagonal: Optional[Sequence[Scalar]] = None) -> None:
        if (form is None) == (diagonal is None):
            raise DomainError("exactly one representation must be given")
        if form is not None and not isinstance(form, BilinearForm):
            raise DomainError("a form-backed quadratic form takes a BilinearForm")
        if diagonal is not None:
            diagonal = tuple(diagonal)
            if not diagonal:
                raise ShapeError("diagonal forms must have positive dimension")
            if not all(isinstance(x, Scalar) for x in diagonal):
                raise DomainError("diagonal entries must be Scalars")
        super().__init__(form, diagonal)

    @property
    def is_diagonal(self) -> bool:
        return self.diagonal is not None

    @property
    def dim(self) -> int:
        return len(self.diagonal) if self.diagonal is not None else self.form.dim

    @staticmethod
    def from_form(form: BilinearForm) -> "QuadraticForm":
        return QuadraticForm(form=form)

    @staticmethod
    def from_diagonal(qs: Sequence[Scalar]) -> "QuadraticForm":
        return QuadraticForm(diagonal=tuple(qs))


def q_eval(q: QuadraticForm, v: Vector) -> Scalar:
    if v.dim != q.dim:
        raise ShapeError("vector dimension does not match the quadratic form")
    if q.diagonal is not None:
        return _pairings([[x * x for x in v]], [q.diagonal])[0][0]
    return evaluate(q.form, v, v)


def quasilinearity_check(q: QuadraticForm) -> str:
    """Exact, from the Gram matrix G: Q(v+w) = Q(v) + Q(w) + sum h_ij v_i w_j
    with h_ij = g_ij + g_ji.  A term with i = j, or with 2 nu(h_ij) <=
    nu(g_ii) + nu(g_jj), is nu-below max(Q(v), Q(w)) or level with a tie of
    the two, whose sum is a ghost already, so it changes nothing.  Any other
    nonzero h_ij (a ``-inf`` diagonal counts as below every value) dominates
    at v = a e_i, w = b e_j for suitable tangible a, b: a tangible one
    breaks ghost-surpassing (neither), a ghost one only equality
    (quasilinear).  Diagonal forms are strict."""
    if q.diagonal is not None:
        return STRICT
    g = q.form.gram.entries
    diag = [g[i][i].value for i in range(q.dim)]
    verdict = STRICT
    for i in range(q.dim):
        for j in range(i + 1, q.dim):
            h = g[i][j] + g[j][i]
            if h.is_zero or None not in (diag[i], diag[j]) and 2 * h.value <= diag[i] + diag[j]:
                continue
            if h.is_tangible:
                return NEITHER
            verdict = QUASILINEAR
    return verdict


def form_from_q(q: QuadraticForm) -> BilinearForm:
    """The canonical bilinear companion of a strictly quasilinear form:
    g_ij = sqrt(Q(e_i) Q(e_j)), of nu-value (nu_i + nu_j)/2, built once
    from the base values."""
    qs = diagonal_from_form(q).diagonal
    return BilinearForm(Matrix(tuple(
        tuple(ZERO if qi.value is None or qj.value is None else
              Scalar((qi.value + qj.value) / 2, qi.ghost or qj.ghost) for qj in qs) for qi in qs
    )))


def diagonal_from_form(q: QuadraticForm) -> QuadraticForm:
    """Convert a form-backed strictly quasilinear form over a symmetric
    bilinear form to the diagonal representation on the standard base."""
    if q.diagonal is not None:
        return q
    if quasilinearity_check(q) != STRICT:
        raise PreconditionError("quadratic form is not strictly quasilinear")
    if not is_supertropically_symmetric(q.form):
        raise PreconditionError(
            "quadratic form's backing bilinear form is not supertropically symmetric"
        )
    return QuadraticForm.from_diagonal(
        tuple(q.form.gram[i, i] for i in range(q.dim))
    )


def hyperbolic_plane(a: Scalar) -> BilinearForm:
    """The rank-2 form with zero diagonal and tangible cross pairing a."""
    if not a.is_tangible:
        raise DomainError("hyperbolic plane needs a tangible cross pairing")
    return BilinearForm(Matrix(((ZERO, a), (a, ZERO))))


def is_hyperbolic_plane(form: BilinearForm, b1: Vector, b2: Vector) -> bool:
    """Both base vectors g-isotropic, with Q(b1+b2) strictly nu-above
    Q(b1) + Q(b2)."""
    if not independent([b1, b2]):
        raise PreconditionError("hyperbolic-plane test needs an independent pair")
    q1, q2, q12 = (evaluate(form, b, b) for b in (b1, b2, b1 + b2))
    return q1.in_ghost_ideal and q2.in_ghost_ideal and q12.nu_cmp(q1 + q2) > 0


def orthogonal_sum(q1: QuadraticForm, q2: QuadraticForm) -> QuadraticForm:
    """Concatenate diagonal forms, or block-stack form-backed ones with
    zero off-blocks."""
    if q1.is_diagonal != q2.is_diagonal:
        raise DomainError(
            "orthogonal sum needs matching representations; convert first"
        )
    if q1.is_diagonal:
        return QuadraticForm.from_diagonal(q1.diagonal + q2.diagonal)
    n1, n2 = q1.dim, q2.dim
    rows = []
    for i in range(n1):
        rows.append(q1.form.gram.entries[i] + (ZERO,) * n2)
    for i in range(n2):
        rows.append((ZERO,) * n1 + q2.form.gram.entries[i])
    return QuadraticForm.from_form(BilinearForm(Matrix(tuple(rows))))
