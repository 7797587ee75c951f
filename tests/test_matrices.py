"""Matrix algebra: determinants, pseudo-inverses, quasi-identities, rank."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from supertrop import (
    CapacityError,
    DomainError,
    Matrix,
    ONE,
    ParseError,
    PreconditionError,
    Scalar,
    ShapeError,
    ZERO,
    adjoint,
    close,
    det,
    dual_base,
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
    vector,
)
from supertrop import matrices
from supertrop.matrices import double_pseudo, minor_grid
from supertrop.oracle import brute_force_det, sample

A = parse_matrix("0 1\n2 0")
T = Scalar.tangible
G = Scalar.ghost_of


# -- constructors ----------------------------------------------------------


def test_empty_matrix_raises_shape_error():
    with pytest.raises(ShapeError, match="matrices must have positive dimensions"):
        Matrix(())


def test_ragged_matrix_raises_shape_error():
    with pytest.raises(ShapeError, match="ragged rows"):
        Matrix(((T(0), T(1)), (T(2),)))


@pytest.mark.parametrize("rows", [((1, 2), (3, 4)), ((ONE, ZERO), (ONE, Fraction(0))), ((None,),)])
def test_matrix_rejects_non_scalar_entries(rows):
    with pytest.raises(DomainError, match="matrix entries must be Scalars"):
        Matrix(rows)


# -- multiplication --------------------------------------------------------


def test_mat_mul_identity():
    assert mat_mul(Matrix.identity(2), A) == A


def test_mat_mul_all_zero_values():
    m = parse_matrix("0 0\n0 0")
    assert mat_mul(m, Matrix.identity(2)) == m


def test_mat_mul_with_ghosts():
    left = parse_matrix("0 -2g\n-1g 0")
    assert mat_mul(left, A) == parse_matrix("0g 1\n2 0g")


# -- determinants ----------------------------------------------------------


def test_det_identity():
    r = det(Matrix.identity(2))
    assert r.value == ONE
    assert r.witnesses == frozenset({(0, 1)})


def test_det_tie_goes_ghost():
    r = det(parse_matrix("0 0\n0 0"))
    assert r.value == G(0)
    assert r.witnesses == frozenset({(0, 1), (1, 0)})


def test_det_transposition_witness():
    r = det(A)
    assert r.value == T(3)
    assert r.witnesses == frozenset({(1, 0)})


def test_det_frozen_values():
    assert det(parse_matrix("1 2\n3 4")).value == G(5)
    r = det(parse_matrix("-inf -inf\n-inf 0"))
    assert r.value == ZERO
    assert r.witnesses == frozenset()
    r = det(parse_matrix("1/2 -inf\n-1/3 2/3g"))
    assert r.value == G(Fraction(7, 6))
    assert r.witnesses == frozenset({(0, 1)})


def test_det_identity_50():
    r = det(Matrix.identity(50))
    assert r.value == ONE
    assert r.witnesses == frozenset({tuple(range(50))})


def test_det_planted_ghost_optimum():
    # Row i scores i on column plant[i] and -20 elsewhere, so plant is the
    # unique optimum; its one ghost entry makes the value ghost.
    plant = (3, 7, 0, 9, 1, 5, 2, 8, 6, 4)
    rows = [[T(i) if j == plant[i] else T(-20) for j in range(10)] for i in range(10)]
    rows[4][plant[4]] = G(4)
    r = det(Matrix.from_rows(rows))
    assert r.value == G(45)
    assert r.witnesses == frozenset({plant})


def test_det_all_tie_reports_two_witnesses():
    r = det(Matrix.from_rows([[ONE] * 12 for _ in range(12)]))
    assert r.value == G(0)
    assert len(r.witnesses) == 2
    for perm in r.witnesses:  # every permutation is optimal here
        assert sorted(perm) == list(range(12))


# -- adjoint and pseudo-inverse -------------------------------------------


def test_adjoint_diagonal():
    assert adjoint(parse_matrix("2 -inf\n-inf 3")) == parse_matrix("3 -inf\n-inf 2")


def test_adjoint_swap_diagonal():
    assert adjoint(A) == A
    assert adjoint(parse_matrix("0 0\n0 0")) == parse_matrix("0 0\n0 0")


def test_adjoint_matches_minor_grid_oracle():
    # Small numerators over denominators up to 6 make ties, ghosts and -inf
    # entries common, so both the closure (nonsingular) and the minor grid
    # (singular) run.
    rng = random.Random(20261018)
    paths = set()
    for n in range(1, 8):
        for _ in range(40 if n < 7 else 8):
            a = Matrix.from_rows(
                [
                    ZERO if rng.random() < 0.15
                    else Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 6)), rng.random() < 0.2)
                    for _ in range(n)
                ]
                for _ in range(n)
            )
            paths.add(is_nonsingular(a))
            assert adjoint(a) == minor_grid(a, brute_force_det), str(a)
    assert paths == {True, False}


def test_adjoint_minor_ghost_by_tie():
    # Minor (row 2, column 0): -1 + -1 and -2 + 0 tie at -2.
    a = parse_matrix("0 -1 -2\n-5 0 -1\n-5 -5 0")
    assert is_nonsingular(a)
    assert adjoint(a) == parse_matrix("0 -1 -2g\n-5 0 -1\n-5 -5 0")


def test_adjoint_minor_ghost_by_ghost_entry():
    # The unique best path of minors (row 2, column 0) and (row 2, column 1)
    # runs through the ghost entry -1g.
    a = parse_matrix("0 -1 -3\n-5 0 -1g\n-5 -5 0")
    assert is_nonsingular(a)
    assert adjoint(a) == parse_matrix("0 -1 -2g\n-5 0 -1g\n-5 -5 0")


def test_pseudo_inverse_quasi_identity_laws_at_n40():
    a = sample("nonsingular-matrix", 40, 3, 0)
    pinv = pseudo_inverse(a)
    assert is_quasi_identity(mat_mul(a, pinv))
    assert is_quasi_identity(mat_mul(pinv, a))


def test_pseudo_inverse_identity():
    assert pseudo_inverse(Matrix.identity(2)) == Matrix.identity(2)


def test_pseudo_inverse_diagonal():
    assert pseudo_inverse(parse_matrix("2 -inf\n-inf 3")) == parse_matrix(
        "-2 -inf\n-inf -3"
    )


def test_pseudo_inverse_frozen():
    assert pseudo_inverse(A) == parse_matrix("-3 -2\n-1 -3")


def test_pseudo_inverse_singular_message():
    with pytest.raises(DomainError, match=r"singular matrix: \|A\| = 5g"):
        pseudo_inverse(parse_matrix("1 2\n3 4"))


# -- quasi-identities ------------------------------------------------------


def test_quasi_identities_identity():
    i_a, i_a_prime = quasi_identities(Matrix.identity(2))
    assert i_a == Matrix.identity(2)
    assert i_a_prime == Matrix.identity(2)


def test_quasi_identities_frozen():
    i_a, _ = quasi_identities(A)
    assert i_a == parse_matrix("0 -2g\n-1g 0")


def test_quasi_identities_diagonal():
    i_a, i_a_prime = quasi_identities(parse_matrix("2 -inf\n-inf 3"))
    assert i_a == Matrix.identity(2)
    assert i_a_prime == Matrix.identity(2)


def test_is_quasi_identity():
    assert is_quasi_identity(Matrix.identity(2))
    assert is_quasi_identity(parse_matrix("0 -2g\n-1g 0"))
    assert not is_quasi_identity(parse_matrix("0 0\n0 0"))


def test_double_pseudo():
    assert double_pseudo(Matrix.identity(2)) == Matrix.identity(2)
    assert double_pseudo(parse_matrix("2 -inf\n-inf 3")) == parse_matrix(
        "-2 -inf\n-inf -3"
    )
    pinv = pseudo_inverse(A)
    i_a, _ = quasi_identities(A)
    assert double_pseudo(A) == mat_mul(pinv, i_a)
    assert double_pseudo(A) == mat_mul(pinv, mat_mul(A, pinv))


# -- closure ---------------------------------------------------------------


def test_close_identity_and_diagonal():
    assert close(Matrix.identity(2)) == Matrix.identity(2)
    d = parse_matrix("2 -inf\n-inf 3")
    assert close(d) == d


def test_close_frozen():
    assert close(A) == parse_matrix("0g 1\n2 0g")


def test_is_closed_base():
    assert is_closed_base(Matrix.identity(2))
    assert not is_closed_base(A)
    i_a, _ = quasi_identities(A)
    assert mat_mul(i_a, close(A)) == close(A)


def test_one_solve_matches_the_product_definitions():
    # The quasi-identities, close, A^nabla nabla and the dual base are read
    # off one solve; each must equal its product definition exactly.  Small
    # numerators over denominators up to 6 make ties, ghosts, -inf entries
    # and singular draws common.
    rng = random.Random(20261019)
    seen = {"nonsingular": 0, "singular": 0, "closed": 0}
    for n in range(1, 9):
        for _ in range(50 if n < 7 else 20):
            a = Matrix.from_rows(
                [
                    ZERO if rng.random() < 0.15
                    else Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 6)), rng.random() < 0.2)
                    for _ in range(n)
                ]
                for _ in range(n)
            )
            try:
                pinv = pseudo_inverse(a)
            except DomainError as exc:
                seen["singular"] += 1
                message = f"singular matrix: |A| = {det(a).value}"
                assert str(exc) == message
                for op in (quasi_identities, close, double_pseudo):
                    with pytest.raises(DomainError) as info:
                        op(a)
                    assert str(info.value) == message
                with pytest.raises(PreconditionError, match="requires a nonsingular base matrix"):
                    dual_base(a)
                continue
            seen["nonsingular"] += 1
            i_a = mat_mul(a, pinv)
            assert quasi_identities(a) == (i_a, mat_mul(pinv, a)), str(a)
            assert close(a) == mat_mul(i_a, a), str(a)
            assert double_pseudo(a) == mat_mul(pinv, i_a), str(a)
            for base in (a, close(a)):
                if mat_mul(mat_mul(base, pseudo_inverse(base)), base) != base:
                    with pytest.raises(PreconditionError, match="not closed"):
                        dual_base(base)
                    continue
                seen["closed"] += 1
                p = pseudo_inverse(base)
                rows = Matrix.from_rows(f.row for f in dual_base(base).functionals)
                assert rows == mat_mul(p, mat_mul(base, p)), str(base)
    assert min(seen.values()) >= 100, seen


# -- rank and independence -------------------------------------------------


def test_rank_identity():
    assert rank(Matrix.identity(3)) == 3


def test_rank_ghost_det_drops():
    assert rank(parse_matrix("1 2\n3 4")) == 1


def test_rank_of_closed_base():
    assert rank(parse_matrix("0g 1\n2 0g")) == 2


def test_rank_identity_at_cap():
    assert rank(Matrix.identity(10)) == 10


def test_rank_cap():
    with pytest.raises(CapacityError):
        rank(Matrix.identity(11))


def test_independent_standard_base():
    assert independent(Matrix.identity(3).columns())


def test_independent_scaled_pair():
    assert not independent([vector(0, 0), vector(1, 1)])


def test_independent_ghost_pair():
    assert not independent([vector("3g", 0), vector(0, "3g")])


def test_independent_too_many():
    assert not independent([vector(0), vector(1)])


def test_independent_asks_one_level(monkeypatch):
    # n dependent vectors in n dimensions: one n x n determinant answers,
    # with no descent through the lower minors.
    calls = []
    monkeypatch.setattr(matrices, "det", lambda m: calls.append(m) or det(m))
    for n in (3, 6, 8):
        vectors = sample("matrix", n, 1, 0, ghost_density=0.9, zero_density=0.0).columns()
        calls.clear()
        assert not independent(vectors)
        assert len(calls) == 1


def test_nonsingular():
    assert is_nonsingular(A)
    assert not is_nonsingular(parse_matrix("1 2\n3 4"))


# -- I/O -------------------------------------------------------------------


def test_parse_matrix_comments_and_blanks():
    m = parse_matrix("# header\n0 1\n\n2 0  # trailing\n")
    assert m == A


def test_matrix_json_round_trip():
    m = parse_matrix("0g 1\n2 -inf")
    assert matrix_from_json(matrix_to_json(m)) == m


@pytest.mark.parametrize(
    "text",
    [
        '{"rows": [["1", ',
        '{"rows": [[1, 2], [3, 4]]}',
        '{"rows": [["1", "2"], ["3"]]}',
        '{"rows": [[]]}',
        '{"rows": ["1 2"]}',
        '{"cols": [["1"]]}',
        '[["1"]]',
    ],
)
def test_matrix_from_json_rejects_malformed(text):
    with pytest.raises(ParseError):
        matrix_from_json(text)


def test_matrix_text_round_trip():
    m = parse_matrix("0g 1/2\n-7/3 -inf")
    assert parse_matrix(str(m)) == m


SCALARS = st.one_of(
    st.just(ZERO),
    st.builds(Scalar, st.fractions(-20, 20, max_denominator=6), st.booleans()),
)
MATRICES = st.integers(1, 4).flatmap(
    lambda cols: st.lists(st.lists(SCALARS, min_size=cols, max_size=cols), min_size=1, max_size=4)
).map(Matrix.from_rows)


@given(MATRICES)
def test_text_round_trip_property(m):
    assert parse_matrix(str(m)) == m


@given(MATRICES)
def test_json_round_trip_property(m):
    assert matrix_from_json(matrix_to_json(m)) == m
    assert matrix_from_json(json.dumps(matrix_to_json(m))) == m
