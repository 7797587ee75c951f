"""The sum-of-products kernels against the folds they replaced: ``dot``
and the integer pairing grid ``_pairings``."""

import random
from fractions import Fraction

import pytest

from supertrop import ZERO, BilinearForm, Matrix, Scalar, ShapeError, Vector, evaluate
from supertrop.scalars import _pairings, dot

T = Scalar.tangible
G = Scalar.ghost_of


def _fold(xs, ys):
    """Reference: every product folded through scalar ``*`` and ``+``."""
    acc = ZERO
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def _strict_double_sum(form, v, w):
    """Reference: the strict expansion sum_{i,j} v_i g_ij w_j."""
    acc = ZERO
    for i in range(form.dim):
        for j in range(form.dim):
            acc = acc + v[i] * form.gram[i, j] * w[j]
    return acc


def _draw(rng):
    """-inf, a ghost or a tangible; nu-values in [-3, 3] so that products
    tie often, divided by a denominator up to 6 a third of the time."""
    r = rng.random()
    if r < 0.2:
        return ZERO
    den = rng.randint(1, 6) if rng.random() < 1 / 3 else 1
    return Scalar(Fraction(rng.randint(-3, 3), den), r < 0.45)


def test_dot_frozen():
    assert dot([], []) == ZERO
    assert dot([ZERO, T(1)], [T(2), ZERO]) == ZERO  # every product is -inf
    assert dot([T(1), T(2)], [T(2), T(1)]) == G(3)  # a tie
    assert dot([G(1), T(0)], [T(2), T(1)]) == G(3)  # a lone ghost maximum
    assert dot([G(1), T(3)], [T(0), T(1)]) == T(4)  # a lower ghost is absorbed
    assert dot([T(Fraction(1, 2)), T(Fraction(1, 3))], [T(0), T(Fraction(1, 6))]) == G(Fraction(1, 2))


def test_dot_length_mismatch():
    with pytest.raises(ShapeError):
        dot([T(1)], [T(1), T(2)])


def test_dot_matches_fold_sampled():
    rng = random.Random("dot-vs-fold")
    seen = set()
    for i in range(2500):
        n = i % 8
        xs = [_draw(rng) for _ in range(n)]
        ys = [_draw(rng) for _ in range(n)]
        got = dot(xs, ys)
        assert got == _fold(xs, ys), (xs, ys)
        seen.add("zero" if got.is_zero else "ghost" if got.ghost else "tangible")
    assert seen == {"zero", "ghost", "tangible"}


def test_evaluate_matches_strict_double_sum_sampled():
    rng = random.Random("evaluate-vs-double-sum")
    for i in range(2000):
        n = 1 + i % 6
        form = BilinearForm(Matrix.from_rows([_draw(rng) for _ in range(n)] for _ in range(n)))
        v, w = (Vector(tuple(_draw(rng) for _ in range(n))) for _ in range(2))
        assert evaluate(form, v, w) == _strict_double_sum(form, v, w), (form.gram, v, w)


def _grid(rows, cols):
    return [[dot(x, y) for y in cols] for x in rows]


def test_pairings_match_dot_sampled():
    rng = random.Random("pairings-vs-dot")
    denominators, ties = set(), 0
    for i in range(1500):
        n = 1 + i % 7
        rows = [[_draw(rng) for _ in range(n)] for _ in range(1 + i % 3)]
        cols = [[_draw(rng) for _ in range(n)] for _ in range(1 + i % 4)]
        rows.append([ZERO] * n)  # all -inf: every pairing is ZERO
        # Every finite product of row 0 with this column is 5: a forced tie.
        cols.append([ZERO if x.is_zero else T(5 - x.value) for x in rows[0]])
        got = _pairings(rows, cols)
        assert got == _grid(rows, cols), (rows, cols)
        assert got[-1] == [ZERO] * len(cols)
        if sum(not x.is_zero for x in rows[0]) >= 2:
            assert got[0][-1] == G(5)
            ties += 1
        denominators |= {x.value.denominator for r in rows + cols for x in r if not x.is_zero}
    assert denominators == {1, 2, 3, 4, 5, 6}
    assert ties >= 500


def test_pairings_edge_shapes():
    assert _pairings([], [[T(1)]]) == []
    assert _pairings([[T(1)], [T(2)]], []) == [[], []]
    assert _pairings([[]], [[], []]) == [[ZERO, ZERO]]
    half = T(Fraction(1, 2))
    assert _pairings([[half, G(1)]], [[half, G(0)], [T(Fraction(-1, 3)), ZERO]]) == [
        [G(1), T(Fraction(1, 6))]
    ]


@pytest.mark.parametrize("rows, cols", [
    ([[T(1)]], [[T(1), T(2)]]),
    ([[T(1), T(2)], [T(1)]], [[T(1), T(2)]]),
    ([[T(1), T(2)]], [[T(1), T(2)], [ZERO]]),
])
def test_pairings_length_mismatch(rows, cols):
    with pytest.raises(ShapeError, match="dot product length mismatch"):
        _pairings(rows, cols)
