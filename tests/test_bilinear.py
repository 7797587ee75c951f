"""Bilinear forms: evaluation, classification, Gram-Schmidt, strip, decompose."""

import operator
import random
from fractions import Fraction

import pytest

from supertrop import (
    BilinearForm,
    DomainError,
    Matrix,
    ONE,
    PreconditionError,
    Scalar,
    ShapeError,
    ZERO,
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
    parse_matrix,
    radical_member,
    vector,
)
from supertrop import bilinear
from supertrop.bilinear import GSResult, PairClass, StripResult
from supertrop.matrices import independent
from supertrop.oracle import random_scalar, sample
from supertrop.scalars import Vector, dot, lin_comb

T = Scalar.tangible
G = Scalar.ghost_of

IDENTITY = BilinearForm(Matrix.identity(2))
HYPER = BilinearForm(parse_matrix("-inf 0\n0 -inf"))
E1, E2 = Matrix.identity(2).columns()


# -- evaluation ------------------------------------------------------------


def test_bilinear_form_needs_a_gram_matrix():
    with pytest.raises(DomainError, match="takes a Gram Matrix"):
        BilinearForm("x")


def test_pairings_reject_a_tuple_for_a_vector():
    t = (ONE, ZERO)
    for call in (lambda: evaluate(IDENTITY, t, E2), lambda: evaluate(IDENTITY, E1, t),
                 lambda: gram_of(IDENTITY, [E1, t]), lambda: pair_class(IDENTITY, t, E2)):
        with pytest.raises(DomainError, match="pairs Vectors only"):
            call()


def test_evaluate_orthogonal():
    assert evaluate(IDENTITY, E1, E2) == ZERO


def test_evaluate_hyperbolic_sum_is_ghost_one():
    v = vector(0, 0)
    assert evaluate(HYPER, v, v) == G(0)


def test_evaluate_one_sided_gram_is_tangible():
    form = BilinearForm(parse_matrix("-inf 0\n-inf -inf"))
    v = vector(0, 0)
    assert evaluate(form, v, v) == ONE


def test_evaluate_linear_in_each_slot():
    form = BilinearForm(parse_matrix("1 3\n3 2"))
    v, w = vector(2, "0g"), vector(-1, 4)
    a = T(5)
    assert evaluate(form, v.scale(a), w) == a * evaluate(form, v, w)
    assert evaluate(form, v, w.scale(a)) == a * evaluate(form, v, w)


# -- gram_of ---------------------------------------------------------------


def test_gram_of_standard_base():
    assert gram_of(IDENTITY, [E1, E2]) == Matrix.identity(2)
    assert gram_of(HYPER, [E1, E2]) == HYPER.gram


def test_gram_of_frozen():
    assert gram_of(IDENTITY, [vector(0, 0), vector(1, "-inf")]) == parse_matrix(
        "0g 1\n1 2"
    )


def test_gram_of_rejects_an_empty_vector_list():
    with pytest.raises(ShapeError, match="empty vector list"):
        gram_of(IDENTITY, [])
    with pytest.raises(ShapeError, match="empty vector list"):
        gram_dependent(IDENTITY, [])


# -- vector classification -------------------------------------------------


def test_classify():
    c = classify_vector(IDENTITY, E1)
    assert not c.isotropic and c.normal
    assert classify_vector(HYPER, E1).isotropic
    assert classify_vector(IDENTITY, vector(0, 0)).isotropic


def test_normalize():
    assert normalize(IDENTITY, E1) == E1
    assert normalize(IDENTITY, vector(4, "-inf")) == vector(0, "-inf")
    with pytest.raises(DomainError):
        normalize(HYPER, E1)


# -- symmetry and alternation ----------------------------------------------


def test_symmetry():
    assert is_supertropically_symmetric(HYPER)
    assert not is_supertropically_symmetric(
        BilinearForm(parse_matrix("-inf 0\n-inf -inf"))
    )
    assert is_supertropically_symmetric(BilinearForm(parse_matrix("1 3\n3g 2")))
    # The non-ghost sum g_ij + g_ji comes from one entry, below or above the diagonal.
    for text in ("0 -inf 1g\n-inf 0 2g\n1g 5 0", "0 -inf 1g\n-inf 0 5\n1g 2g 0"):
        assert not is_supertropically_symmetric(BilinearForm(parse_matrix(text)))


def test_alternate():
    assert is_alternate(HYPER, [E1, E2])
    assert not is_alternate(IDENTITY, [E1, E2])
    assert is_alternate(BilinearForm(parse_matrix("0g 1g\n1g 2g")), [E1, E2])


def test_alternate_requires_symmetry():
    with pytest.raises(PreconditionError):
        is_alternate(BilinearForm(parse_matrix("-inf 0\n-inf -inf")), [E1, E2])


# -- pair classification ---------------------------------------------------


def test_pair_class_orthogonal_pair():
    pc = pair_class(IDENTITY, E1, E2)
    assert pc.left_g_orthogonal and pc.right_g_orthogonal
    assert pc.compatible and pc.cauchy_schwartz


def test_pair_class_hyperbolic_pair():
    pc = pair_class(HYPER, E1, E2)
    assert not pc.weakly_cauchy_schwartz
    assert not pc.cauchy_schwartz


def test_pair_class_dominating_cross():
    pc = pair_class(BilinearForm(parse_matrix("0 2\n2 0")), E1, E2)
    assert not pc.compatible
    assert not pc.weakly_cauchy_schwartz


def test_pair_class_implications():
    # Cauchy-Schwartz implies strictly compatible; weak CS implies compatible.
    grams = ("0 -5\n-5 0", "3 1\n1 2", "0 2\n2 0", "-inf 0\n0 -inf", "1 1\n1 1")
    for g in grams:
        form = BilinearForm(parse_matrix(g))
        pc = pair_class(form, E1, E2)
        if pc.cauchy_schwartz:
            assert pc.strictly_compatible
        if pc.weakly_cauchy_schwartz:
            assert pc.compatible


def test_corner_singular():
    # [[a, ab], [ab, ab^2]] pattern with a = 0, b = 1
    pc = pair_class(BilinearForm(parse_matrix("0 1\n1 2")), E1, E2)
    assert pc.corner_singular
    assert not pair_class(IDENTITY, E1, E2).corner_singular


# -- radical and Gram dependence ------------------------------------------


def test_radical_member():
    assert radical_member(IDENTITY, [E1, E2], vector("3g", "1g"))
    assert not radical_member(IDENTITY, [E1, E2], E1)
    assert radical_member(
        BilinearForm(parse_matrix("0 -inf\n-inf 0g")), [E1, E2], E2
    )


def test_gram_dependent():
    assert not gram_dependent(IDENTITY, [E1, E2])
    with pytest.warns(UserWarning, match="degenerate"):
        assert gram_dependent(IDENTITY, [vector(0, 0), vector(0, 0)])


# -- Gram-Schmidt ----------------------------------------------------------


def test_gs_step_frozen():
    res = gs_step(IDENTITY, [E1], vector(1, 2))
    assert res.projected == vector(1, "-inf")
    assert res.corrected == vector("1g", 2)
    assert evaluate(IDENTITY, res.corrected, E1).in_ghost_ideal


def test_gs_step_empty_base():
    v = vector(3, "0g")
    assert gs_step(IDENTITY, [], v).corrected == v


def test_gs_step_checks_dimension_with_empty_base():
    with pytest.raises(ShapeError):
        gs_step(IDENTITY, [], vector(1))


def test_gs_step_already_orthogonal():
    res = gs_step(IDENTITY, [E1], E2)
    assert res.projected == vector("-inf", "-inf")
    assert res.corrected == E2


def test_gs_step_rejects_isotropic_base():
    with pytest.raises(PreconditionError):
        gs_step(HYPER, [E1], E2)


def test_gs_step_rejects_non_orthogonal_base():
    # Both self-pairings are tangible (0 and 2); <e1, (0, 1)> = 0 is not.
    with pytest.raises(PreconditionError, match="base is not pairwise g-orthogonal"):
        gs_step(IDENTITY, [E1, vector(0, 1)], E2)


def test_gs_step_orthogonality_error_wins_over_self_pairing():
    # <(1, 1), (1, 1)> = 2g is not tangible, and <(1, 1), e1> = 1 is not
    # ghost; the orthogonality test runs first.
    with pytest.raises(PreconditionError, match="base is not pairwise g-orthogonal"):
        gs_step(IDENTITY, [vector(1, 1), E1], E2)


def test_gram_schmidt_standard_base():
    accepted, leftover = gram_schmidt(IDENTITY, [E1, E2])
    assert accepted == [E1, E2]
    assert leftover == []


def test_gram_schmidt_hyperbolic_all_leftover():
    accepted, leftover = gram_schmidt(HYPER, [E1, E2])
    assert accepted == []
    assert leftover == [E1, E2]


def test_gram_schmidt_corrects_and_normalizes():
    accepted, leftover = gram_schmidt(IDENTITY, [vector(0, "-inf"), vector(1, 2)])
    assert leftover == []
    assert len(accepted) == 2
    for b in accepted:
        assert classify_vector(IDENTITY, b).normal
    for i in range(2):
        for j in range(2):
            if i != j:
                assert evaluate(IDENTITY, accepted[i], accepted[j]).in_ghost_ideal


# -- the g-isotropic strip -------------------------------------------------


def test_strip_interval():
    strip = isotropic_strip(BilinearForm(parse_matrix("0 2\n2 0")), E1, E2)
    assert strip.kind == "interval"
    assert strip.lo == Fraction(-2)
    assert strip.hi == Fraction(2)
    w = E1 + E2.scale(T(0))
    assert evaluate(BilinearForm(parse_matrix("0 2\n2 0")), w, w) == G(2)


def test_strip_point():
    strip = isotropic_strip(BilinearForm(parse_matrix("0 -inf\n-inf 2")), E1, E2)
    assert strip.kind == "point"
    assert strip.at == Fraction(-1)


def test_strip_all():
    strip = isotropic_strip(HYPER, E1, E2)
    assert strip.kind == "interval"
    assert strip.lo is None and strip.hi is None
    assert strip.as_dict() == {"kind": "interval", "lo": "all", "hi": "all"}


def test_strip_empty():
    # Q(e1 + beta e2) = 2 beta is tangible for every tangible beta.
    form = BilinearForm(parse_matrix("-inf -inf\n-inf 0"))
    assert isotropic_strip(form, E1, E2).kind == "empty"


def test_strip_zero_plane_is_all():
    # Q vanishes on the whole plane, and -inf lies in the ghost ideal.
    form = BilinearForm(parse_matrix("-inf -inf\n-inf -inf"))
    assert isotropic_strip(form, E1, E2).as_dict() == {"kind": "interval", "lo": "all", "hi": "all"}


# -- decomposition ---------------------------------------------------------


def test_decompose_identity():
    aniso, alternate = decompose(IDENTITY, [E1, E2])
    assert aniso == [E1, E2]
    assert alternate == []


def test_decompose_hyperbolic():
    aniso, alternate = decompose(HYPER, [E1, E2])
    assert aniso == []
    assert alternate == [E1, E2]


def test_decompose_block():
    gram = parse_matrix("0 -inf -inf\n-inf -inf 0\n-inf 0 -inf")
    base = Matrix.identity(3).columns()
    aniso, alternate = decompose(BilinearForm(gram), base)
    assert aniso == [base[0]]
    assert alternate == [base[1], base[2]]


def test_decompose_requires_independent_base():
    with pytest.raises(PreconditionError):
        decompose(IDENTITY, [vector(0, 0), vector(1, 1)])


def test_decompose_rejects_a_base_shorter_than_the_form():
    form = BilinearForm(Matrix.identity(3))
    with pytest.raises(ShapeError, match="vector dimension does not match the form"):
        decompose(form, [E1, E2])


def test_decompose_postconditions_sampled():
    form = BilinearForm(parse_matrix("0 -3 -inf\n-3 1 -2\n-inf -2 0g"))
    base = Matrix.identity(3).columns()
    aniso, alternate = decompose(form, base)
    assert len(aniso) + len(alternate) == 3
    for x in aniso:
        assert evaluate(form, x, x).is_tangible
    for x in alternate:
        assert classify_vector(form, x).isotropic
    for x in alternate:
        for y in aniso:
            assert evaluate(form, x, y).in_ghost_ideal
            assert evaluate(form, y, x).in_ghost_ideal


# -- grid-read pairings against four-evaluate references --------------------
#
# The references below read every pairing by its own ``evaluate`` call, as
# the library did before it read them from one ``gram_of`` grid.


def ref_corner_singular(a11, a12, a21, a22):
    """[[x, x*b], [x*b, x*b^2]] up to nu-value, b tangible: x = a11 and
    b = a12 / a11 are forced."""
    if a11.is_zero or a12.is_zero:
        return all(a.is_zero for a in (a11, a12, a21, a22))
    xb = a11 * (a12 * a11.inv()).tangible_lift()
    return a12.nu_match(xb) and a21.nu_match(xb) and a22.nu_match(xb * xb * a11.inv())


def ref_pair_class(form, v, w, pairing=evaluate):
    return ref_pair_flags(pairing(form, v, v), pairing(form, v, w),
                          pairing(form, w, v), pairing(form, w, w))


def ref_pair_flags(a11, a12, a21, a22):
    diag, cross = a11 + a22, a12 + a21
    compatible = diag.nu_cmp(cross) >= 0
    prod, sq = a11 * a22, a12 * a12 + a21 * a21
    return PairClass(
        left_g_orthogonal=a12.in_ghost_ideal,
        right_g_orthogonal=a21.in_ghost_ideal,
        compatible=compatible,
        strictly_compatible=compatible and (a11.nu_match(a22) or diag.nu_cmp(cross) > 0),
        weakly_cauchy_schwartz=prod.nu_cmp(sq) >= 0,
        cauchy_schwartz=prod.nu_cmp(sq) > 0,
        corner_singular=ref_corner_singular(a11, a12, a21, a22),
    )


def dot_pairing(form, v, w):
    """<v, w> = v . (G w) on the Scalar-level ``dot``."""
    return dot(v.entries, [dot(row, w.entries) for row in form.gram.entries])


def draw_scalar(rng):
    """-inf, a ghost or a tangible, of denominator 1, 2, 3 or 6."""
    r = rng.random()
    if r < 0.2:
        return ZERO
    return Scalar(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 6))), r < 0.45)


def test_pair_grid_matches_dot_references_sampled():
    rng = random.Random("pair-grid-vs-dot")
    flags = {}
    for i in range(1200):
        n = 1 + i % 6
        form = BilinearForm(Matrix.from_rows([draw_scalar(rng) for _ in range(n)] for _ in range(n)))
        vs = [Vector(tuple(draw_scalar(rng) for _ in range(n))) for _ in range(3)]
        if i % 7 == 0:
            vs[i % 3] = Vector((ZERO,) * n)
        v, w = vs[:2]
        assert evaluate(form, v, w) == dot_pairing(form, v, w), (form.gram, v, w)
        assert gram_of(form, vs) == Matrix.from_rows(
            [dot_pairing(form, x, y) for y in vs] for x in vs), (form.gram, vs)
        got = pair_class(form, v, w)
        assert got == ref_pair_class(form, v, w, dot_pairing), (form.gram, v, w)
        for name, flag in got.as_dict().items():
            flags.setdefault(name, set()).add(flag)
    assert all(seen == {True, False} for seen in flags.values()), flags


def ref_isotropic_strip(form, v1, v2):
    if not is_supertropically_symmetric(form):
        raise PreconditionError("form is not supertropically symmetric")
    a11 = evaluate(form, v1, v1)
    a22 = evaluate(form, v2, v2)
    alpha = evaluate(form, v1, v2) + evaluate(form, v2, v1)
    swapped = a11.nu_cmp(a22) > 0
    if swapped:
        a11, a22 = a22, a11
    if a22.is_zero:
        return StripResult("interval", swapped=swapped)
    if not alpha.is_zero and (a11.is_zero or 2 * alpha.value > a11.value + a22.value):
        lo = None if a11.is_zero else a11.value - alpha.value
        return StripResult("interval", lo=lo, hi=alpha.value - a22.value, swapped=swapped)
    if not a11.is_zero:
        return StripResult("point", at=(a11.value - a22.value) / 2, swapped=swapped)
    if a22.is_ghost:
        return StripResult("interval", swapped=swapped)
    return StripResult("empty", swapped=swapped)


def ref_gs_step(form, base, v):
    if v.dim != form.dim:
        raise ShapeError("vector dimension does not match the form")
    if not is_supertropically_symmetric(form):
        raise PreconditionError("form is not supertropically symmetric")
    for i, bi in enumerate(base):
        for j, bj in enumerate(base):
            if i != j and not evaluate(form, bi, bj).in_ghost_ideal:
                raise PreconditionError("base is not pairwise g-orthogonal")
    betas = []
    for b in base:
        q = evaluate(form, b, b)
        if not q.is_tangible:
            raise PreconditionError(f"base self-pairing {q} is not tangible (isotropic or zero)")
        betas.append(q.tangible_lift())
    if not base:
        return GSResult(Vector((ZERO,) * v.dim), v, frozenset())
    coeffs = [evaluate(form, v, b) * beta.inv() for b, beta in zip(base, betas)]
    projected = lin_comb(coeffs, list(base))
    terms = []
    for b, beta in zip(base, betas):
        s = evaluate(form, v, b) + evaluate(form, b, v)
        terms.append(s.power(2) * beta.inv() if not s.is_zero else ZERO)
    top = terms[0]
    for t in terms[1:]:
        if t.nu_cmp(top) > 0:
            top = t
    dominant = frozenset() if top.is_zero else frozenset(
        j for j, t in enumerate(terms) if t.nu_match(top)
    )
    return GSResult(projected, v + projected, dominant)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ShapeError, PreconditionError) as exc:
        return type(exc).__name__, str(exc)


def sample_form(rng, n, mode):
    """A Gram matrix with ghosts and -inf: exactly symmetric ('sym'),
    supertropically symmetric with g_ij != g_ji ('super': equal nu-values
    of different layers, or a larger ghost partner) or arbitrary ('any')."""
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a = random_scalar(rng, 0.25, 0.2)
            b = a
            if i != j and mode == "super":
                if a.is_zero or rng.random() < 0.3:
                    nu = rng.randint(-3, 3)
                    a, b = T(nu), G(nu)
                else:
                    b = G(a.value + rng.randint(1, 3))
                if rng.random() < 0.5:
                    a, b = b, a
            elif i != j and mode == "any":
                b = random_scalar(rng, 0.25, 0.2)
            g[i][j], g[j][i] = a, b
    return BilinearForm(Matrix.from_rows(g))


def sample_vector(rng, n):
    return Vector(tuple(random_scalar(rng, 0.25, 0.2) for _ in range(n)))


STEP_ERRORS = {
    "vector dimension does not match the form": "dimension",
    "form is not supertropically symmetric": "symmetry",
    "base is not pairwise g-orthogonal": "orthogonality",
}


def test_grid_pairings_match_four_evaluate_references():
    reached = set()
    steps_with_base = 0
    for idx in range(240):
        rng = random.Random(f"grid-pairings:{idx}")
        n = 2 + idx % 4
        mode = ("sym", "super", "super", "any")[(idx // 4) % 4]
        form = sample_form(rng, n, mode)
        if mode == "super":
            assert form.gram != form.gram.transpose()
        v, w, short = sample_vector(rng, n), sample_vector(rng, n), sample_vector(rng, n - 1)
        for a, b in ((v, w), (w, v), (v, v), (v, short)):
            assert outcome(pair_class, form, a, b) == outcome(ref_pair_class, form, a, b)
            assert outcome(isotropic_strip, form, a, b) == outcome(ref_isotropic_strip, form, a, b)
        vs = [sample_vector(rng, n) for _ in range(n)]
        accepted = outcome(gram_schmidt, form, vs)
        accepted = accepted[0] if isinstance(accepted[0], list) else []
        units = Matrix.identity(n).columns()
        bases = (accepted, units[: rng.randint(1, n)], vs[:2], [units[0], v])
        for base in bases:
            for x in (w, short):
                got = outcome(gs_step, form, base, x)
                assert got == outcome(ref_gs_step, form, base, x)
                if isinstance(got, tuple):
                    msg = got[1]
                    reached.add("self-pairing" if msg.startswith("base self-pairing") else STEP_ERRORS[msg])
                elif base:
                    steps_with_base += 1
    assert reached == {"dimension", "symmetry", "orthogonality", "self-pairing"}
    assert steps_with_base >= 100


# -- the one orthogonalization sweep against the pre-sweep algorithms -------
#
# ``ref_decompose`` is ``decompose`` as it was before the shared sweep: it
# tries a large-coefficient rescue beta*w + v (w accepted, beta nu-above
# <v,w>/beta_w) before it defers v.  The step's coefficient on w is then
# beta itself, so the candidate's w-part is beta*w + beta*w, a ghost; every
# other coefficient gains beta*<w,b>/beta_b, a ghost since the accepted set
# is g-orthogonal.  The candidate's correction is the plain one plus a
# ghost vector, so it fails every test the plain one failed.  The reference
# checks that lemma on each candidate and counts the candidates it tried.


def ref_accepts(form, c, aniso):
    return evaluate(form, c, c).is_tangible and all(
        ref_pair_class(form, c, b).cauchy_schwartz for b in aniso
    )


def ref_rescue_scale(form, v, w):
    a11, a22 = evaluate(form, v, v), evaluate(form, w, w)
    alpha = evaluate(form, v, w) + evaluate(form, w, v)
    threshold = ONE
    if not alpha.is_zero:
        threshold = threshold + alpha * a22.tangible_lift().inv()
        if not a11.is_zero:
            threshold = threshold + a11 * alpha.tangible_lift().inv()
    return Scalar.tangible(threshold.value + 1)


def ref_decompose(form, base, rescues):
    if not is_supertropically_symmetric(form):
        raise PreconditionError("form is not supertropically symmetric")
    if not independent(list(base)):
        raise PreconditionError("decompose requires a tropically independent base")
    aniso, pending, grew = [], list(base), True
    while grew and pending:
        grew = False
        deferred = []
        for v in pending:
            corrected = ref_gs_step(form, aniso, v).corrected
            if ref_accepts(form, corrected, aniso):
                aniso.append(corrected)
                grew = True
                continue
            for w in aniso:
                if not ref_pair_class(form, w, v).cauchy_schwartz:
                    continue
                c2 = ref_gs_step(form, aniso, w.scale(ref_rescue_scale(form, v, w)) + v).corrected
                assert c2.ghost_surpasses(corrected)
                taken = ref_accepts(form, c2, aniso)
                rescues.append(taken)
                if taken:
                    aniso.append(c2)
                    grew = True
                    break
            else:
                deferred.append(v)
        pending = deferred
    return aniso, [ref_gs_step(form, aniso, v).corrected for v in pending]


def ref_gram_schmidt(form, vs):
    if not is_supertropically_symmetric(form):
        raise PreconditionError("form is not supertropically symmetric")
    accepted, leftover = [], []
    for v in vs:
        corrected = ref_gs_step(form, accepted, v).corrected
        if ref_accepts(form, corrected, accepted):
            accepted.append(normalize(form, corrected))
        else:
            leftover.append(v)
    return accepted, leftover


def test_sweep_matches_pre_sweep_gram_schmidt_and_decompose():
    rescues = []
    reached = {"decompose": set(), "gram_schmidt": set()}
    successes = {"decompose": 0, "gram_schmidt": 0}

    def tally(name, got):
        if isinstance(got[0], list):
            successes[name] += 1
        else:
            reached[name].add(got[1])

    for idx in range(240):
        rng = random.Random(f"sweep:{idx}")
        n = 2 + idx % 4
        mode = ("sym", "super", "super", "any")[(idx // 4) % 4]
        form = sample_form(rng, n, mode)
        if idx % 2 == 0:
            base = Matrix.identity(n).columns()
        else:
            base = sample("nonsingular-matrix", n, 0, idx).columns()
        if idx % 16 == 5:
            base = [base[0], base[0].scale(T(1))]
        got = outcome(decompose, form, base)
        assert got == outcome(ref_decompose, form, base, rescues)
        tally("decompose", got)
        vs = [sample_vector(rng, n) for _ in range(n)] + list(base)
        if idx % 8 == 1:
            vs.insert(rng.randint(0, n), sample_vector(rng, n - 1))
        got = outcome(gram_schmidt, form, vs)
        assert got == outcome(ref_gram_schmidt, form, vs)
        tally("gram_schmidt", got)
    assert len(rescues) >= 100
    assert not any(rescues)
    assert min(successes.values()) >= 100
    assert reached["decompose"] == {
        "form is not supertropically symmetric",
        "decompose requires a tropically independent base",
    }
    assert reached["gram_schmidt"] == {
        "form is not supertropically symmetric",
        "vector dimension does not match the form",
    }


def test_sweep_applies_the_gram_once_per_vector(monkeypatch):
    """G is applied by the pairing kernel, with the Gram rows as its first
    columns; ``calls`` collects the vectors of each such call."""
    calls = []
    pairings = bilinear._pairings

    def counted(rows, cols):
        if any(len(cols) >= len(g) and all(map(operator.is_, cols, g)) for g in grams):
            calls.extend(rows)
        return pairings(rows, cols)

    monkeypatch.setattr(bilinear, "_pairings", counted)
    monkeypatch.setattr(Matrix, "apply", None)  # the form layer never calls it
    for n in range(2, 7):
        rng = random.Random(f"applies:{n}")
        form = sample_form(rng, n, "sym")
        diagonal = BilinearForm(Matrix.from_rows(
            [T(i) if i == j else ZERO for j in range(n)] for i in range(n)))
        grams = (form.gram.entries, diagonal.gram.entries)
        vs = [sample_vector(rng, n) for _ in range(n + 2)]
        calls.clear()
        gram_schmidt(form, vs)
        assert 0 < len(calls) <= len(vs)
        calls.clear()
        aniso, alternate = decompose(diagonal, Matrix.identity(n).columns())
        assert (len(aniso), alternate, len(calls)) == (n, [], n)
