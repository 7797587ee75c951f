"""Strict bilinear forms given by Gram matrices.

Every pairing is folded on ints by a ``scalars`` kernel with one scaling
per call; nothing calls ``Matrix.apply`` or ``dot``.  B(v, w) = v . (G w),
by distributivity the strict expansion sum v_i g_ij w_j: ``evaluate``,
``gram_of`` and ``pair_class`` each read their grid from one
``_pair_grid`` call, and ``pair_class`` classifies on its codes'
nu-values.  The dependence test, ``gs_step`` and the rank-2 g-isotropic
strip read every pairing among their vectors from one ``gram_of`` grid.

``gram_schmidt`` and ``decompose`` share one orthogonalization sweep,
whose state keeps (b, G b, <b,b>) for each accepted b, so G is applied
once per processed vector.  ``gram_schmidt`` runs it once and normalizes
what it accepted; ``decompose`` repeats it over the deferred vectors until
a pass accepts nothing.

Every call here is deterministic and does only what its docstring says:
no sampling and no self-checks.  Each public call checks its preconditions
once, and the sweep re-checks nothing its invariant guarantees.  The
suites in ``supertrop.oracle`` re-check strips and sample alternate spans.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import DomainError, PreconditionError, ShapeError
from .matrices import Matrix, det, independent
from .scalars import (ONE, ZERO, Record, Scalar, Vector, _NEG, _nu, _pair_grid, _pairings, _scalars,
                      lin_comb)


class BilinearForm(Record):
    """A strict bilinear form, stored as its Gram matrix on the ambient
    standard base: g_ij = <e_i, e_j>."""

    __slots__ = ("gram",)

    def __init__(self, gram: Matrix) -> None:
        if not isinstance(gram, Matrix):
            raise DomainError("a bilinear form takes a Gram Matrix")
        if not gram.is_square:
            raise ShapeError("Gram matrix must be square")
        super().__init__(gram)

    @property
    def dim(self) -> int:
        return self.gram.rows

    def __call__(self, v: Vector, w: Vector) -> Scalar:
        return evaluate(self, v, w)


def evaluate(form: BilinearForm, v: Vector, w: Vector) -> Scalar:
    """B(v, w) = v . (G w); by distributivity this is the strict expansion
    sum_{i,j} v_i g_ij w_j."""
    _require_dims(form, (v, w))
    scale, grid = _pair_grid(form.gram.entries, [v], [w])
    return _scalars(grid, scale)[0][0]


def _require_dims(form: BilinearForm, vs: Sequence[Vector]) -> None:
    if not all(isinstance(v, Vector) for v in vs):
        raise DomainError("a form pairs Vectors only")
    if any(v.dim != form.dim for v in vs):
        raise ShapeError("vector dimension does not match the form")


def gram_of(form: BilinearForm, vs: Sequence[Vector]) -> Matrix:
    """The k x k grid [<v_i, v_j>] of k >= 1 vectors, applying G once to each."""
    if not vs:
        raise ShapeError("Gram grid of an empty vector list")
    _require_dims(form, vs)
    scale, grid = _pair_grid(form.gram.entries, vs, vs)
    return Matrix(_scalars(grid, scale))


class VectorClass(Record):
    """isotropic: <v,v> is in the ghost ideal (zero included); normal: <v,v>
    is exactly one."""

    __slots__ = ("isotropic", "normal")


def classify_vector(form: BilinearForm, v: Vector) -> VectorClass:
    q = evaluate(form, v, v)
    return VectorClass(isotropic=q.in_ghost_ideal, normal=q == ONE)


def normalize(form: BilinearForm, v: Vector) -> Vector:
    """Scale a g-nonisotropic vector to a normal one (unit self-pairing)."""
    q = evaluate(form, v, v)
    if not q.is_tangible:
        raise DomainError(f"cannot normalize: <v,v> = {q} is not tangible")
    return v.scale(q.power(Fraction(1, 2)).inv())


def is_supertropically_symmetric(form: BilinearForm) -> bool:
    """g_ij + g_ji lands in the ghost ideal for all i <= j, so for all i, j;
    for strict forms this entry condition is equivalent to the vector-level
    one."""
    g, n = form.gram.entries, form.dim
    return all((g[i][j] + g[j][i]).in_ghost_ideal for i in range(n) for j in range(i, n))


def _require_symmetric(form: BilinearForm) -> None:
    if not is_supertropically_symmetric(form):
        raise PreconditionError("form is not supertropically symmetric")


def is_alternate(form: BilinearForm, base: Sequence[Vector]) -> bool:
    """With supertropical symmetry, a base of g-isotropic vectors makes the
    whole span g-isotropic, so the base criterion decides."""
    _require_symmetric(form)
    return all(classify_vector(form, b).isotropic for b in base)


# -- pair classification ---------------------------------------------------


class PairClass(Record):
    __slots__ = ("left_g_orthogonal", "right_g_orthogonal", "compatible", "strictly_compatible",
                 "weakly_cauchy_schwartz", "cauchy_schwartz", "corner_singular")

    def as_dict(self) -> dict:
        return {name.replace("_", "-"): getattr(self, name) for name in self.__slots__}


def pair_class(form: BilinearForm, v: Vector, w: Vector) -> PairClass:
    _require_dims(form, (v, w))
    _, ((b11, b12), (b21, b22)) = _pair_grid(form.gram.entries, [v, w], [v, w])
    return _pair(*(_NEG if b is None else b >> 2 for b in (b11, b12, b21, b22)),
                 b12 is None or b12 & 1 == 1, b21 is None or b21 & 1 == 1)


def _pair(a11, a12, a21, a22, left: bool, right: bool) -> PairClass:
    """The classification of a pair (v, w) from the nu-values of <v,v>,
    <v,w>, <w,v>, <w,w> on one scale, ``-inf`` for zero, so that a sum's
    nu-value is the max; left and right tell whether <v,w> and <w,v> lie in
    the ghost ideal.  Corner-singular is the pattern [[x, x*b], [x*b,
    x*b^2]] up to nu-value, b tangible: x = <v,v> is forced."""
    diag, cross = max(a11, a22), max(a12, a21)
    # A product through zero is zero: adding -inf to a huge int would overflow.
    prod = _NEG if _NEG in (a11, a22) else a11 + a22
    corner = a12 == a21 and (a11 == a12 == a22 if _NEG in (a11, a12, a22) else a11 + a22 == 2 * a12)
    # The fields in order, by position: Record's keyword path is slower.
    return PairClass(left, right, diag >= cross, diag > cross or diag == cross and a11 == a22,
                     prod >= 2 * cross, prod > 2 * cross, corner)


# -- radical and Gram dependence ------------------------------------------


def radical_member(
    form: BilinearForm, spanners: Sequence[Vector], v: Vector
) -> bool:
    """True iff v pairs into the ghost ideal against every spanner; for
    strict forms this extends to the whole span."""
    return all(evaluate(form, v, s).in_ghost_ideal for s in spanners)


def gram_dependent(form: BilinearForm, vs: Sequence[Vector]) -> bool:
    """Ghost Gram determinant; with a nondegenerate span this certifies
    tropical dependence of the vectors."""
    g = gram_of(form, vs)
    if any(all(e.in_ghost_ideal for e in row) for row in g.entries):
        warnings.warn(
            "span is degenerate: a spanner lies in the radical; "
            "the dependence conclusion needs nondegeneracy",
            stacklevel=2,
        )
    return det(g).value.in_ghost_ideal


# -- Gram-Schmidt ----------------------------------------------------------


class GSResult(Record):
    __slots__ = ("projected", "corrected", "dominant")  # Vector, Vector, frozenset


def gs_step(form: BilinearForm, base: Sequence[Vector], v: Vector) -> GSResult:
    """One orthogonalization step against a g-orthogonal set with tangible
    self-pairings: corrected = v + sum_j (<v,b_j>/beta_j) b_j is
    g-orthogonal to every base vector.  Every pairing comes from
    gram_of(form, [*base, v]), which also gives the base's orthogonality and
    self-pairing checks."""
    _require_dims(form, [v])
    _require_symmetric(form)
    if not base:
        return GSResult(Vector((ZERO,) * v.dim), v, frozenset())
    g = gram_of(form, [*base, v])
    k = len(base)
    if any(i != j and not g[i, j].in_ghost_ideal for i in range(k) for j in range(k)):
        raise PreconditionError("base is not pairwise g-orthogonal")
    betas = [g[j, j] for j in range(k)]
    for q in betas:
        if not q.is_tangible:
            raise PreconditionError(f"base self-pairing {q} is not tangible (isotropic or zero)")

    coeffs = [g[k, j] * beta.inv() for j, beta in enumerate(betas)]
    projected = lin_comb(coeffs, list(base))
    corrected = v + projected

    terms = [(g[k, j] + g[j, k]).power(2) * beta.inv() for j, beta in enumerate(betas)]
    top = sum(terms, ZERO)  # a sum's nu-value is the largest one
    dominant = frozenset(j for j, t in enumerate(terms) if not t.is_zero and t.nu_match(top))
    return GSResult(projected, corrected, dominant)


def _correct(state: list, v: Vector) -> Vector:
    """gs_step's correction v + sum_j (<v,b_j>/beta_j) b_j against the sweep state."""
    if not state:
        return v
    pairs = _pairings([v], [gb for _, gb, _ in state])[0]
    return lin_comb([ONE, *(p * beta.inv() for p, (_, _, beta) in zip(pairs, state))],
                    [v, *(b for b, _, _ in state)])


def _sweep(form: BilinearForm, state: list, vs: Sequence[Vector]) -> List[Tuple[Vector, Vector]]:
    """One orthogonalization pass in input order over a state of
    (b, G b, <b,b>) triples, applying G once per vector: v is corrected
    against the state, and its correction c joins it when <c,c> is tangible
    and c is Cauchy-Schwartz against every member.  Returns the rejected
    originals, each with its correction.

    So every <b,b> in the state is tangible, and members need no re-check
    of g-orthogonality: for a member b, <c,b> = <v,b> + <v,b> + (ghost-ideal
    terms from the other members) and <b,c> = <b,v> + <v,b> + (ghost-ideal
    terms), which the caller's symmetry check puts in the ghost ideal."""
    rejected = []
    n = form.dim
    for v in vs:
        c = _correct(state, v)
        # One call gives G c and every <c,b> = c . G b, a second <c,c> and every <b,c>.
        pairs = _pairings([c], [*form.gram.entries, *(gb for _, gb, _ in state)])[0]
        gc = pairs[:n]
        cc, *bc = [p for p, in _pairings([c, *(b for b, _, _ in state)], [gc])]
        if cc.is_tangible and all(
            _pair(cc.value, _nu(c_b), _nu(b_c), beta.value, c_b.in_ghost_ideal,
                  b_c.in_ghost_ideal).cauchy_schwartz
            for c_b, b_c, (_, _, beta) in zip(pairs[n:], bc, state)
        ):
            state.append((c, gc, cc))
        else:
            rejected.append((v, c))
    return rejected


def gram_schmidt(
    form: BilinearForm, vs: Sequence[Vector]
) -> Tuple[List[Vector], List[Vector]]:
    """Iterate the orthogonalization step in input order.  A vector is
    accepted when its corrected form is g-nonisotropic and Cauchy-Schwartz
    against everything accepted so far; accepted vectors are normalized.
    Everything else lands in the leftover list."""
    _require_symmetric(form)
    _require_dims(form, vs)
    state: list = []
    leftover = [v for v, _ in _sweep(form, state, vs)]
    # Rescaling a base vector by a tangible s changes neither a correction
    # (<v,sb>/(s^2 beta) sb = <v,b>/beta b) nor a Cauchy-Schwartz test, so
    # normalizing after the sweep gives what normalizing on acceptance would.
    return [c.scale(cc.power(Fraction(1, 2)).inv()) for c, _, cc in state], leftover


# -- the rank-2 g-isotropic strip -----------------------------------------


class StripResult(Record):
    """The nu-values of tangible beta making v1 + beta*v2 g-isotropic
    (after internally ordering the pair by self-pairing nu-value).

    kind 'interval': lo..hi inclusive; a None endpoint is unbounded, and
    lo = hi = None means every tangible beta works.  kind 'point': the
    single nu-value ``at``.  kind 'empty': no tangible beta works.
    """

    __slots__ = ("kind", "lo", "hi", "at", "swapped")  # kind: 'interval' | 'point' | 'empty'
    _defaults = {"lo": None, "hi": None, "at": None, "swapped": False}

    def as_dict(self) -> dict:
        def fmt(x):
            return "all" if x is None else str(x)

        if self.kind == "interval":
            return {"kind": "interval", "lo": fmt(self.lo), "hi": fmt(self.hi)}
        if self.kind == "point":
            return {"kind": "point", "at": str(self.at)}
        return {"kind": "empty"}


def isotropic_strip(form: BilinearForm, v1: Vector, v2: Vector) -> StripResult:
    """Solve for the tangible beta making v1 + beta*v2 g-isotropic in the
    plane spanned by the pair; the pair is ordered internally so the first
    self-pairing is nu-smaller."""
    _require_symmetric(form)
    g = gram_of(form, [v1, v2])
    a11, a22, alpha = g[0, 0], g[1, 1], g[0, 1] + g[1, 0]

    swapped = a11.nu_cmp(a22) > 0
    if swapped:
        a11, a22 = a22, a11

    if a22.is_zero:
        # The pair is ordered, so the whole diagonal vanishes here and
        # Q(v1 + beta v2) = beta * alpha, which symmetry puts in the ghost
        # ideal for every beta.
        return StripResult("interval", lo=None, hi=None, swapped=swapped)
    alpha_sq_dominates = not alpha.is_zero and (
        a11.is_zero or 2 * alpha.value > a11.value + a22.value
    )
    if alpha_sq_dominates:
        lo = None if a11.is_zero else a11.value - alpha.value
        hi = alpha.value - a22.value
        return StripResult("interval", lo=lo, hi=hi, swapped=swapped)
    if not a11.is_zero:
        return StripResult("point", at=(a11.value - a22.value) / 2, swapped=swapped)
    if a22.is_ghost:
        return StripResult("interval", lo=None, hi=None, swapped=swapped)
    return StripResult("empty", swapped=swapped)


# -- decomposition ---------------------------------------------------------


def decompose(
    form: BilinearForm, base: Sequence[Vector]
) -> Tuple[List[Vector], List[Vector]]:
    """Split the span of an independent base into an anisotropic part (a
    g-orthogonal, g-nonisotropic, pairwise Cauchy-Schwartz set) and an
    alternate part (g-isotropic vectors, g-orthogonal to the first part).

    Deterministic and order-dependent: the orthogonalization sweep of
    ``gram_schmidt`` runs over the base in input order, then again over
    the vectors it deferred, until a pass accepts nothing.  So the
    alternate vectors, the deferred ones corrected against the final
    anisotropic set, are g-orthogonal to the whole anisotropic part, not
    just to the members accepted before them.
    """
    _require_symmetric(form)
    if not independent(list(base)):
        raise PreconditionError("decompose requires a tropically independent base")

    _require_dims(form, base)
    state: list = []
    pending: List[Vector] = list(base)
    while pending:
        deferred = _sweep(form, state, pending)
        if len(deferred) == len(pending):
            # This pass accepted nothing, so it corrected against the final state.
            return [c for c, _, _ in state], [c for _, c in deferred]
        pending = [v for v, _ in deferred]
    return [c for c, _, _ in state], []
