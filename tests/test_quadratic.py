"""Quadratic forms: evaluation, quasilinearity, companions, hyperbolic planes."""

import random

import pytest

from supertrop import (
    BilinearForm,
    DomainError,
    Matrix,
    PreconditionError,
    QuadraticForm,
    Scalar,
    ShapeError,
    diagonal_from_form,
    form_from_q,
    hyperbolic_plane,
    is_hyperbolic_plane,
    orthogonal_sum,
    parse_matrix,
    q_eval,
    vector,
)
from supertrop.oracle import random_scalar, sample
from supertrop.quadratic import NEITHER, QUASILINEAR, STRICT, quasilinearity_check

T = Scalar.tangible
G = Scalar.ghost_of
E1, E2 = Matrix.identity(2).columns()


# -- construction ----------------------------------------------------------


def test_neither_or_both_representations_raise_domain_error():
    form = hyperbolic_plane(T(0))
    for kwargs in ({}, {"form": form, "diagonal": (T(0), T(2))}):
        with pytest.raises(DomainError, match="exactly one representation must be given"):
            QuadraticForm(**kwargs)


def test_empty_diagonal_raises_shape_error():
    with pytest.raises(ShapeError, match="diagonal forms must have positive dimension"):
        QuadraticForm.from_diagonal([])


def test_non_scalar_diagonal_raises_domain_error():
    for diagonal in ((1, 2), ("a", T(2)), (T(0), None)):
        with pytest.raises(DomainError, match="diagonal entries must be Scalars"):
            QuadraticForm.from_diagonal(diagonal)


def test_form_backed_needs_a_bilinear_form():
    with pytest.raises(DomainError, match="takes a BilinearForm"):
        QuadraticForm.from_form(parse_matrix("0 1\n1 0"))


# -- evaluation ------------------------------------------------------------


def test_q_eval_hyperbolic_form_backed():
    q = QuadraticForm.from_form(hyperbolic_plane(T(0)))
    assert q_eval(q, vector(0, 0)) == G(0)


def test_q_eval_diagonal():
    q = QuadraticForm.from_diagonal((T(0), T(2)))
    assert q_eval(q, E2) == T(2)
    assert q_eval(q, vector(1, 1)) == T(4)


# -- quasilinearity --------------------------------------------------------


def test_diagonal_is_strict():
    q = QuadraticForm.from_diagonal((T(0), G(2), T(-3)))
    assert quasilinearity_check(q) == STRICT


def test_one_sided_gram_is_neither():
    q = QuadraticForm.from_form(BilinearForm(parse_matrix("-inf 0\n-inf -inf")))
    assert quasilinearity_check(q) == NEITHER


def test_identity_gram_is_strict():
    q = QuadraticForm.from_form(BilinearForm(Matrix.identity(2)))
    assert quasilinearity_check(q) == STRICT


RANK = {STRICT: 0, QUASILINEAR: 1, NEITHER: 2}


def _verdict(lhs, rhs):
    """How Q(v+w) = lhs stands to Q(v) + Q(w) = rhs."""
    if lhs == rhs:
        return STRICT
    return QUASILINEAR if lhs.ghost_surpasses(rhs) else NEITHER


def _pair_verdict(q, v, w):
    return _verdict(q_eval(q, v + w), q_eval(q, v) + q_eval(q, w))


def _witness_verdict(q):
    """The strongest verdict over the pairs v = a e_i, w = b e_j, i < j, with
    Q(v) and Q(w) balanced, or the finite one beaten where a diagonal is
    -inf."""
    g, n = q.form.gram, q.dim
    basis = Matrix.identity(n).columns()
    best = STRICT
    for i in range(n):
        for j in range(i + 1, n):
            h, gi, gj = g[i, j] + g[j, i], g[i, i].value, g[j, j].value
            if h.is_zero:
                continue
            if gi is None and gj is None:
                a = b = 0
            elif gi is None:
                a, b = gj - h.value + 1, 0
            elif gj is None:
                a, b = 0, gi - h.value + 1
            else:
                a, b = gj / 2, gi / 2
            got = _pair_verdict(q, basis[i].scale(T(a)), basis[j].scale(T(b)))
            best = max(best, got, key=RANK.get)
    return best


# Forms whose verdict a 200-trial seeded search got wrong for some seed.
PINNED = [
    ("7 3\n5 2", NEITHER),
    ("-4g -inf\n3 9", NEITHER),
    ("7g 3g\n5g 2g", QUASILINEAR),
    ("0 1\n-inf 0", NEITHER),
]


@pytest.mark.parametrize("gram, verdict", PINNED, ids=[g.replace("\n", "; ") for g, _ in PINNED])
def test_pinned_verdict_is_exact(gram, verdict):
    q = QuadraticForm.from_form(BilinearForm(parse_matrix(gram)))
    assert quasilinearity_check(q) == verdict == _witness_verdict(q)


def _sampled_forms():
    """Sampled Gram matrices, n = 1-5, over three ghost and three zero
    densities; every third one is made symmetric."""
    k = 0
    for n in range(1, 6):
        for ghost in (0.0, 0.2, 0.5):
            for zero in (0.0, 0.15, 0.4):
                for _ in range(6):
                    m = sample("matrix", n, 7, 1000 * n + k, ghost_density=ghost, zero_density=zero)
                    if k % 3 == 0:
                        m = Matrix(tuple(tuple(m[min(i, j), max(i, j)] for j in range(n))
                                         for i in range(n)))
                    k += 1
                    yield QuadraticForm.from_form(BilinearForm(m))


def test_exact_verdict_has_witnesses_and_beats_sampling():
    counts = {STRICT: 0, QUASILINEAR: 0, NEITHER: 0}
    for k, q in enumerate(_sampled_forms()):
        exact = quasilinearity_check(q)
        counts[exact] += 1
        assert _witness_verdict(q) == exact, q.form.gram
        rng = random.Random(f"quasilinear-reference:{k}")
        for _ in range(30):
            v, w = (vector(*(random_scalar(rng, 0.2, 0.15) for _ in range(q.dim))) for _ in range(2))
            assert RANK[_pair_verdict(q, v, w)] <= RANK[exact], (q.form.gram, v, w)
    assert min(counts.values()) > 20, counts


# -- companions ------------------------------------------------------------


def test_form_from_q_halved_sums():
    q = QuadraticForm.from_diagonal((T(0), T(2)))
    assert form_from_q(q).gram == parse_matrix("0 1\n1 2")


def test_form_from_q_flat():
    q = QuadraticForm.from_diagonal((T(0), T(0)))
    assert form_from_q(q).gram == parse_matrix("0 0\n0 0")


def test_form_from_q_ghost_propagates():
    q = QuadraticForm.from_diagonal((G(0), T(2)))
    assert form_from_q(q).gram == parse_matrix("0g 1g\n1g 2")


def test_form_from_q_matches_square():
    q = QuadraticForm.from_diagonal((T(1), T(3), G(-2)))
    form = form_from_q(q)
    v = vector(2, "-inf", "0g")
    w = vector(-1, 0, 4)
    b = form(v, w)
    lhs = b * b
    assert lhs == q_eval(q, v) * q_eval(q, w)


def test_diagonal_from_form_round_trip():
    q = QuadraticForm.from_diagonal((T(0), T(2)))
    back = diagonal_from_form(QuadraticForm.from_form(form_from_q(q)))
    assert back.diagonal == q.diagonal


def test_diagonal_from_form_rejects_non_strict():
    q = QuadraticForm.from_form(BilinearForm(parse_matrix("-inf 0\n-inf -inf")))
    with pytest.raises(PreconditionError):
        diagonal_from_form(q)
    with pytest.raises(PreconditionError):
        form_from_q(q)


# -- hyperbolic planes -----------------------------------------------------


def test_hyperbolic_plane_gram():
    form = hyperbolic_plane(T(0))
    assert form.gram == parse_matrix("-inf 0\n0 -inf")
    q = QuadraticForm.from_form(form)
    assert q_eval(q, vector(0, 0)) == G(0)


def test_hyperbolic_plane_scaled():
    q = QuadraticForm.from_form(hyperbolic_plane(T(5)))
    assert q_eval(q, vector(0, 0)) == G(5)


def test_hyperbolic_plane_needs_tangible():
    with pytest.raises(DomainError):
        hyperbolic_plane(G(0))
    with pytest.raises(DomainError):
        hyperbolic_plane(Scalar(None, False))


def test_is_hyperbolic_plane():
    assert is_hyperbolic_plane(hyperbolic_plane(T(0)), E1, E2)
    assert not is_hyperbolic_plane(BilinearForm(Matrix.identity(2)), E1, E2)
    assert is_hyperbolic_plane(BilinearForm(parse_matrix("0g 5\n5 0g")), E1, E2)


def test_is_hyperbolic_plane_needs_independent_pair():
    with pytest.raises(PreconditionError):
        is_hyperbolic_plane(hyperbolic_plane(T(0)), vector(0, 0), vector(1, 1))


# -- orthogonal sums -------------------------------------------------------


def test_orthogonal_sum_diagonal():
    q = orthogonal_sum(
        QuadraticForm.from_diagonal((T(0),)), QuadraticForm.from_diagonal((T(2),))
    )
    assert q.diagonal == (T(0), T(2))


def test_orthogonal_sum_form_backed_blocks():
    h = QuadraticForm.from_form(hyperbolic_plane(T(0)))
    hh = orthogonal_sum(h, h)
    assert hh.form.gram == parse_matrix(
        "-inf 0 -inf -inf\n0 -inf -inf -inf\n-inf -inf -inf 0\n-inf -inf 0 -inf"
    )
    v = vector(0, 0, "-inf", "-inf")
    assert q_eval(hh, v) == G(0)


def test_orthogonal_sum_rejects_mixed_reps():
    with pytest.raises(DomainError):
        orthogonal_sum(
            QuadraticForm.from_diagonal((T(0),)),
            QuadraticForm.from_form(BilinearForm(Matrix.identity(2))),
        )


def test_diagonal_is_sum_of_singletons():
    q = QuadraticForm.from_diagonal((T(0), T(2), G(1)))
    acc = QuadraticForm.from_diagonal((q.diagonal[0],))
    for x in q.diagonal[1:]:
        acc = orthogonal_sum(acc, QuadraticForm.from_diagonal((x,)))
    assert acc.diagonal == q.diagonal


def test_orthogonal_sum_evaluation_identity():
    q1 = QuadraticForm.from_diagonal((T(0), T(2)))
    q2 = QuadraticForm.from_diagonal((G(1),))
    v1, v2 = vector(1, "0g"), vector(-2)
    joined = vector(1, "0g", -2)
    assert q_eval(orthogonal_sum(q1, q2), joined) == q_eval(q1, v1) + q_eval(q2, v2)
