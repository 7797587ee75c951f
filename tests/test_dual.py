"""Dual bases of closed bases, ghost kernels, and the double dual."""

from fractions import Fraction

import pytest

from supertrop import (
    DomainError,
    Functional,
    Matrix,
    ONE,
    PreconditionError,
    Scalar,
    ShapeError,
    Vector,
    ZERO,
    apply,
    close,
    det,
    dual_base,
    dual_eval_matrix,
    dual_rank,
    ghost_kernel_contains,
    is_ghost_monic,
    is_nonsingular,
    is_tropically_onto,
    lower,
    parse_matrix,
    project_closed,
    vector,
)
from supertrop import matrices
from supertrop.oracle import dependence_search, sample

A = parse_matrix("0 1\n2 0")
T = Scalar.tangible
G = Scalar.ghost_of


# -- functionals -----------------------------------------------------------


def test_coordinate_functional():
    f = Functional(vector(0, "-inf"))
    assert apply(f, vector(3, 5)) == T(3)


def test_functional_tie_goes_ghost():
    f = Functional(vector(0, 0))
    assert apply(f, vector(2, 2)) == G(2)


def test_functional_ghost_absorption():
    f = Functional(vector("1g", "-inf"))
    assert apply(f, vector(4, 7)) == G(5)


# -- projection and lowering ----------------------------------------------


def test_project_closed_identity():
    v = vector(3, 5)
    assert project_closed(Matrix.identity(2), v) == v


def test_project_closed_fixes_closed_columns():
    for j in range(2):
        b = close(A).col(j)
        assert project_closed(A, b) == b


def test_project_closed_frozen():
    assert project_closed(A, vector(0, "-inf")) == vector(0, "-1g")


def test_lower_identity():
    v = vector(3, 5)
    assert lower(Matrix.identity(2), v) == v


def test_lower_diagonal_subtracts():
    assert lower(parse_matrix("2 -inf\n-inf 3"), vector(5, 4)) == vector(3, 1)


# -- dual base -------------------------------------------------------------


def test_dual_base_identity_is_coordinate_projections():
    d = dual_base(Matrix.identity(3))
    for i, f in enumerate(d.functionals):
        assert f.row == Matrix.identity(3).row(i)


def test_dual_base_requires_closed():
    with pytest.raises(PreconditionError, match="close"):
        dual_base(A)


def test_dual_base_requires_nonsingular():
    with pytest.raises(PreconditionError):
        dual_base(parse_matrix("1 2\n3 4"))


def _assert_dual_pattern(grid: Matrix):
    n = grid.rows
    for i in range(n):
        for j in range(n):
            if i == j:
                assert grid[i, j] == ONE
            else:
                assert grid[i, j].in_ghost_ideal


def test_dual_grid_of_closed_base():
    d = dual_base(close(A))
    grid = dual_eval_matrix(d)
    _assert_dual_pattern(grid)
    assert grid == parse_matrix("0 -2g\n-1g 0")


def test_dual_grid_random_closed_3x3():
    for i in range(10):
        a = sample("closed-base", 3, seed=42, index=i)
        _assert_dual_pattern(dual_eval_matrix(dual_base(a)))


def test_dual_rank():
    assert dual_rank(dual_base(Matrix.identity(3))) == 3
    assert dual_rank(dual_base(close(A))) == 2


def test_dual_rank_random_4x4():
    a = sample("closed-base", 4, seed=7, index=0)
    assert dual_rank(dual_base(a)) == 4


# -- ghost kernel and ghost-monic maps ------------------------------------


def test_ghost_kernel_ghost_vectors_always_in():
    assert ghost_kernel_contains(A, vector("3g", "1g"))
    assert ghost_kernel_contains(A, vector("-inf", "-inf"))


def test_ghost_kernel_frozen():
    assert not ghost_kernel_contains(Matrix.identity(2), vector(3, "-inf"))
    assert ghost_kernel_contains(parse_matrix("0 0\n0 0"), vector(1, 1))


def test_ghost_monic():
    assert is_ghost_monic(A)
    assert is_ghost_monic(Matrix.identity(2))
    assert not is_ghost_monic(parse_matrix("0 0\n0 0"))
    # Singular only through a zero coefficient: M (0, -inf) is ghost.
    assert not is_ghost_monic(parse_matrix("0g 1\n-inf 2"))


def test_ghost_monic_needs_a_square_matrix():
    with pytest.raises(ShapeError, match="square"):
        is_ghost_monic(parse_matrix("0 1 2\n3 4 5"))


def test_ghost_monic_rejects_a_non_matrix():
    with pytest.raises(DomainError, match="takes a Matrix"):
        is_ghost_monic("x")


@pytest.mark.parametrize("n, draws", [(2, 60), (3, 8)])
def test_ghost_monic_agrees_with_dependence_search(n, draws):
    # Every singular draw has a tangible witness c (zeros allowed) with M c
    # ghost; no nonsingular one has any.
    grid = [Fraction(k) for k in range(-15, 16)]
    monic = []
    for i in range(draws):
        m = sample("matrix", n, 9, i)
        c = dependence_search(m.columns(), grid)
        monic.append(is_ghost_monic(m))
        assert (c is None) == monic[-1] == is_nonsingular(m), m
        if c is not None:
            assert m.apply(Vector(c)).is_ghost
    assert set(monic) == {True, False}


def test_tropically_onto():
    assert is_tropically_onto(Matrix.identity(2))
    assert not is_tropically_onto(parse_matrix("1 2\n3 4"))
    assert is_tropically_onto(A)


def test_tropically_onto_asks_one_level(monkeypatch):
    # A ghost-heavy 10 x 10 that is not onto: one 10 x 10 determinant
    # answers, with no descent through the lower minors.
    calls = []
    monkeypatch.setattr(matrices, "det", lambda m: calls.append(m) or det(m))
    m = sample("matrix", 10, 1, 0, ghost_density=0.9, zero_density=0.0)
    assert not is_tropically_onto(m)
    assert len(calls) == 1


# -- double dual -----------------------------------------------------------


def test_double_dual_standard_base():
    d = dual_base(Matrix.identity(3))
    for i, f in enumerate(d.functionals):
        for j in range(3):
            e_j = Matrix.identity(3).col(j)
            assert apply(f, e_j) == (ONE if i == j else ZERO)


def test_double_dual_eval_frozen():
    assert apply(Functional(vector(0, 0)), vector(3, 5)) == T(5)


def test_double_dual_closed_base_pattern():
    a = close(A)
    d = dual_base(a)
    grid = Matrix(
        tuple(
            tuple(apply(f, a.col(j)) for j in range(2))
            for f in d.functionals
        )
    )
    _assert_dual_pattern(grid)


# -- map axioms ------------------------------------------------------------


def test_map_axioms_pass():
    # The det-engines suite checks sampled matrices; these are fixed ones,
    # with zero and ghost entries in the vectors.
    for m in (A, Matrix.identity(3), parse_matrix("0 0\n0 0")):
        n = m.cols
        v, w = vector(*([3, "-inf", "1g"][:n])), vector(*(["2g", 0, -4][:n]))
        assert m.apply(v + w) == m.apply(v) + m.apply(w)
        for a in (T(-2), G(5)):
            assert m.apply(v.scale(a)) == m.apply(v).scale(a)
