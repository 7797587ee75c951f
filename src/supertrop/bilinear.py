"""Strict bilinear forms given by Gram matrices.

Evaluation is B(v, w) = v . (G w), one ``scalars.dot`` after one
matrix-vector product; the semiring is distributive, so the value is that
of the strict expansion sum v_i g_ij w_j.  On top of it sit the pair
classifications (orthogonality, compatibility, Cauchy-Schwartz, corner
singularity), the Gram-determinant dependence test, the orthogonalization
step and its iterated procedure, the rank-2 g-isotropic strip, and the
anisotropic/alternate decomposition.

Every call here is deterministic and does only what its docstring says:
no sampling and no self-checks.  The suites in ``supertrop.oracle`` re-check
strips and sample alternate spans.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import DomainError, PreconditionError, ShapeError
from .matrices import Matrix, det, independent
from .scalars import ONE, ZERO, Scalar, Vector, dot, lin_comb


@dataclass(frozen=True)
class BilinearForm:
    """A strict bilinear form, stored as its Gram matrix on the ambient
    standard base: g_ij = <e_i, e_j>."""

    gram: Matrix

    def __post_init__(self) -> None:
        if not self.gram.is_square:
            raise ShapeError("Gram matrix must be square")

    @property
    def dim(self) -> int:
        return self.gram.rows

    def __call__(self, v: Vector, w: Vector) -> Scalar:
        return evaluate(self, v, w)


def evaluate(form: BilinearForm, v: Vector, w: Vector) -> Scalar:
    """B(v, w) = v . (G w); by distributivity this is the strict expansion
    sum_{i,j} v_i g_ij w_j."""
    n = form.dim
    if v.dim != n or w.dim != n:
        raise ShapeError("vector dimension does not match the form")
    return dot(v, form.gram.apply(w))


def gram_of(form: BilinearForm, vs: Sequence[Vector]) -> Matrix:
    """The k x k grid [<v_i, v_j>], applying G to each vector once."""
    if any(v.dim != form.dim for v in vs):
        raise ShapeError("vector dimension does not match the form")
    gws = [form.gram.apply(w) for w in vs]
    return Matrix(tuple(tuple(dot(v, gw) for gw in gws) for v in vs))


@dataclass(frozen=True)
class VectorClass:
    isotropic: bool  # <v,v> in the ghost ideal (zero included)
    normal: bool  # <v,v> is exactly one


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
    """g_ij + g_ji lands in the ghost ideal for all i, j; for strict forms
    this entry condition is equivalent to the vector-level one."""
    g = form.gram
    return all(
        (g[i, j] + g[j, i]).in_ghost_ideal
        for i in range(form.dim)
        for j in range(form.dim)
    )


def _require_symmetric(form: BilinearForm) -> None:
    if not is_supertropically_symmetric(form):
        raise PreconditionError("form is not supertropically symmetric")


def is_alternate(form: BilinearForm, base: Sequence[Vector]) -> bool:
    """With supertropical symmetry, a base of g-isotropic vectors makes the
    whole span g-isotropic, so the base criterion decides."""
    _require_symmetric(form)
    return all(classify_vector(form, b).isotropic for b in base)


# -- pair classification ---------------------------------------------------


@dataclass(frozen=True)
class PairClass:
    left_g_orthogonal: bool
    right_g_orthogonal: bool
    compatible: bool
    strictly_compatible: bool
    weakly_cauchy_schwartz: bool
    cauchy_schwartz: bool
    corner_singular: bool

    def as_dict(self) -> dict:
        return {
            "left-g-orthogonal": self.left_g_orthogonal,
            "right-g-orthogonal": self.right_g_orthogonal,
            "compatible": self.compatible,
            "strictly-compatible": self.strictly_compatible,
            "weakly-cauchy-schwartz": self.weakly_cauchy_schwartz,
            "cauchy-schwartz": self.cauchy_schwartz,
            "corner-singular": self.corner_singular,
        }


def _corner_singular(a11: Scalar, a12: Scalar, a21: Scalar, a22: Scalar) -> bool:
    # Pattern [[x, x*b], [x*b, x*b^2]] up to nu-value, b tangible; x = a11
    # is forced, so the test is a finite computation.
    if not a12.nu_match(a21):
        return False
    if a11.is_zero:
        return a12.is_zero and a21.is_zero and a22.is_zero
    if a12.is_zero or a22.is_zero:
        return False
    return a11.value + a22.value == 2 * a12.value


def pair_class(form: BilinearForm, v: Vector, w: Vector) -> PairClass:
    a11 = evaluate(form, v, v)
    a12 = evaluate(form, v, w)
    a21 = evaluate(form, w, v)
    a22 = evaluate(form, w, w)

    diag = a11 + a22
    cross = a12 + a21
    compatible = diag.nu_cmp(cross) >= 0
    strictly_compatible = compatible and (
        a11.nu_match(a22) or diag.nu_cmp(cross) > 0
    )

    prod = a11 * a22
    sq = a12 * a12 + a21 * a21
    weakly_cs = prod.nu_cmp(sq) >= 0
    cs = prod.nu_cmp(sq) > 0

    return PairClass(
        left_g_orthogonal=a12.in_ghost_ideal,
        right_g_orthogonal=a21.in_ghost_ideal,
        compatible=compatible,
        strictly_compatible=strictly_compatible,
        weakly_cauchy_schwartz=weakly_cs,
        cauchy_schwartz=cs,
        corner_singular=_corner_singular(a11, a12, a21, a22),
    )


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
    for s in vs:
        if radical_member(form, list(vs), s):
            warnings.warn(
                "span is degenerate: a spanner lies in the radical; "
                "the dependence conclusion needs nondegeneracy",
                stacklevel=2,
            )
            break
    return det(gram_of(form, vs)).value.in_ghost_ideal


# -- Gram-Schmidt ----------------------------------------------------------


@dataclass(frozen=True)
class GSResult:
    projected: Vector
    corrected: Vector
    dominant: frozenset


def _check_orthogonal_set(form: BilinearForm, base: Sequence[Vector]) -> None:
    for i, bi in enumerate(base):
        for j, bj in enumerate(base):
            if i != j and not evaluate(form, bi, bj).in_ghost_ideal:
                raise PreconditionError("base is not pairwise g-orthogonal")


def gs_step(form: BilinearForm, base: Sequence[Vector], v: Vector) -> GSResult:
    """One orthogonalization step against a g-orthogonal set with tangible
    self-pairings: corrected = v + sum_j (<v,b_j>/beta_j) b_j is
    g-orthogonal to every base vector."""
    if v.dim != form.dim:
        raise ShapeError("vector dimension does not match the form")
    _require_symmetric(form)
    _check_orthogonal_set(form, base)
    betas = []
    for b in base:
        q = evaluate(form, b, b)
        if not q.is_tangible:
            raise PreconditionError(
                f"base self-pairing {q} is not tangible (isotropic or zero)"
            )
        betas.append(q.tangible_lift())

    if not base:
        projected = Vector(tuple(ZERO for _ in range(v.dim)))
        return GSResult(projected, v, frozenset())

    coeffs = [evaluate(form, v, b) * beta.inv() for b, beta in zip(base, betas)]
    projected = lin_comb(coeffs, list(base))
    corrected = v + projected

    terms = []
    for b, beta in zip(base, betas):
        s = evaluate(form, v, b) + evaluate(form, b, v)
        terms.append(s.power(2) * beta.inv() if not s.is_zero else ZERO)
    top = terms[0]
    for t in terms[1:]:
        if t.nu_cmp(top) > 0:
            top = t
    if top.is_zero:
        dominant = frozenset()
    else:
        dominant = frozenset(j for j, t in enumerate(terms) if t.nu_match(top))
    return GSResult(projected, corrected, dominant)


def gram_schmidt(
    form: BilinearForm, vs: Sequence[Vector]
) -> Tuple[List[Vector], List[Vector]]:
    """Iterate the orthogonalization step in input order.  A vector is
    accepted when its corrected form is g-nonisotropic and Cauchy-Schwartz
    against everything accepted so far; accepted vectors are normalized.
    Everything else lands in the leftover list."""
    _require_symmetric(form)
    accepted: List[Vector] = []
    leftover: List[Vector] = []
    for v in vs:
        corrected = gs_step(form, accepted, v).corrected
        q = evaluate(form, corrected, corrected)
        if q.is_tangible and all(
            pair_class(form, corrected, b).cauchy_schwartz for b in accepted
        ):
            accepted.append(normalize(form, corrected))
        else:
            leftover.append(v)
    return accepted, leftover


# -- the rank-2 g-isotropic strip -----------------------------------------


@dataclass(frozen=True)
class StripResult:
    """The nu-values of tangible beta making v1 + beta*v2 g-isotropic
    (after internally ordering the pair by self-pairing nu-value).

    kind 'interval': lo..hi inclusive; a None endpoint is unbounded, and
    lo = hi = None means every tangible beta works.  kind 'point': the
    single nu-value ``at``.  kind 'empty': no tangible beta works.
    """

    kind: str  # 'interval' | 'point' | 'empty'
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    at: Optional[Fraction] = None
    swapped: bool = False

    def as_dict(self) -> dict:
        def fmt(x):
            return "all" if x is None else str(x)

        if self.kind == "interval":
            return {"kind": "interval", "lo": fmt(self.lo), "hi": fmt(self.hi)}
        if self.kind == "point":
            return {"kind": "point", "at": str(self.at)}
        return {"kind": "empty"}


def isotropic_strip(
    form: BilinearForm, v1: Vector, v2: Vector
) -> StripResult:
    """Solve for the tangible beta making v1 + beta*v2 g-isotropic in the
    plane spanned by the pair; the pair is ordered internally so the first
    self-pairing is nu-smaller."""
    _require_symmetric(form)
    a11 = evaluate(form, v1, v1)
    a22 = evaluate(form, v2, v2)
    alpha = evaluate(form, v1, v2) + evaluate(form, v2, v1)

    swapped = a11.nu_cmp(a22) > 0
    if swapped:
        v1, v2 = v2, v1
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


def _accepts(form: BilinearForm, c: Vector, aniso: Sequence[Vector]) -> bool:
    return evaluate(form, c, c).is_tangible and all(
        pair_class(form, c, b).cauchy_schwartz for b in aniso
    )


def _rescue_scale(
    form: BilinearForm, v: Vector, w: Vector
) -> Scalar:
    """A tangible beta large enough that beta*w + v forms a corner-singular,
    Cauchy-Schwartz pair with w (rank-2 analysis, large-beta regime)."""
    a11 = evaluate(form, v, v)
    a22 = evaluate(form, w, w)
    alpha = evaluate(form, v, w) + evaluate(form, w, v)
    threshold = ONE
    if not alpha.is_zero:
        threshold = threshold + alpha * a22.tangible_lift().inv()
        if not a11.is_zero:
            threshold = threshold + a11 * alpha.tangible_lift().inv()
    return Scalar.tangible(threshold.value + 1)


def decompose(
    form: BilinearForm, base: Sequence[Vector]
) -> Tuple[List[Vector], List[Vector]]:
    """Split the span of an independent base into an anisotropic part (a
    g-orthogonal, g-nonisotropic, pairwise Cauchy-Schwartz set) and an
    alternate part (g-isotropic vectors, g-orthogonal to the first part).

    Deterministic and order-dependent: vectors are processed in input
    order, with a large-coefficient rescue attempt before a vector is
    deferred.  Deferred vectors are reprocessed until the anisotropic set
    stops growing, so the alternate vectors end up g-orthogonal to the
    whole anisotropic part, not just to the members accepted before them.
    """
    _require_symmetric(form)
    if not independent(list(base)):
        raise PreconditionError("decompose requires a tropically independent base")

    aniso: List[Vector] = []
    pending: List[Vector] = list(base)
    grew = True
    while grew and pending:
        grew = False
        deferred: List[Vector] = []
        for v in pending:
            corrected = gs_step(form, aniso, v).corrected
            if _accepts(form, corrected, aniso):
                aniso.append(corrected)
                grew = True
                continue
            rescued = False
            for w in aniso:
                if not pair_class(form, w, v).cauchy_schwartz:
                    continue
                beta = _rescue_scale(form, v, w)
                candidate = w.scale(beta) + v
                c2 = gs_step(form, aniso, candidate).corrected
                if _accepts(form, c2, aniso):
                    aniso.append(c2)
                    rescued = True
                    grew = True
                    break
            if not rescued:
                deferred.append(v)
        pending = deferred
    alternate = [gs_step(form, aniso, v).corrected for v in pending]
    return aniso, alternate
