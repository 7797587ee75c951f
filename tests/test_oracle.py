"""Brute-force engines, samplers, and suite report determinism."""

from fractions import Fraction

import pytest

from supertrop import (
    DomainError,
    Matrix,
    ONE,
    Scalar,
    ZERO,
    brute_force_det,
    det,
    independent,
    parse_matrix,
    run_suite,
    sample,
    vector,
)
from supertrop.oracle import SUITES, dependence_search

T = Scalar.tangible
G = Scalar.ghost_of


# -- brute-force determinant ----------------------------------------------


def test_brute_force_det_frozen():
    assert brute_force_det(parse_matrix("0 1\n2 0")).value == T(3)
    assert brute_force_det(parse_matrix("1 2\n3 4")).value == G(5)
    assert brute_force_det(Matrix.identity(4)).value == ONE


def test_det_agrees_with_oracle_sampled():
    for i in range(30):
        m = sample("matrix", 2 + i % 4, seed=5, index=i)
        got, want = det(m), brute_force_det(m)
        assert got.value == want.value
        assert got.witnesses <= want.witnesses
        for k in (1, 2):
            assert (len(got.witnesses) >= k) == (len(want.witnesses) >= k)


# -- dependence search -----------------------------------------------------


def test_dependence_search_equal_vectors():
    witness = dependence_search([vector(0, 0), vector(0, 0)], [Fraction(0)])
    assert witness is not None


def test_dependence_search_standard_base():
    grid = [Fraction(k) for k in range(-2, 3)]
    assert dependence_search(Matrix.identity(2).columns(), grid) is None


def test_dependence_search_witness_implies_dependent():
    vs = [vector(1, 2), vector(3, 4)]
    grid = [Fraction(k) for k in range(-2, 3)]
    witness = dependence_search(vs, grid)
    assert witness is not None
    assert not independent(vs)


def test_dependence_search_empty_grid():
    with pytest.raises(DomainError):
        dependence_search([vector(0, 0)], [])


# -- samplers --------------------------------------------------------------


def test_sampler_determinism():
    assert sample("tangible-scalar", None, 3, 9) == sample("tangible-scalar", None, 3, 9)
    assert sample("matrix", 3, 3, 9) == sample("matrix", 3, 3, 9)


def test_nonsingular_sampler_postcondition():
    for i in range(10):
        m = sample("nonsingular-matrix", 3, seed=1, index=i)
        assert det(m).value.is_tangible


def test_symmetric_gram_sampler_mirrors():
    g = sample("symmetric-gram", 4, seed=1, index=0)
    for i in range(4):
        for j in range(4):
            assert g[i, j] == g[j, i]


def test_closed_base_sampler_postcondition():
    from supertrop import is_closed_base, is_nonsingular

    for i in range(10):
        m = sample("closed-base", 3, seed=2, index=i)
        assert is_nonsingular(m)
        assert is_closed_base(m)


def test_sampler_unknown_kind():
    with pytest.raises(DomainError):
        sample("nope", 2, 0, 0)


# -- suites and reports ----------------------------------------------------


def test_all_suites_pass_small():
    for name in SUITES:
        assert run_suite(name, 5, seed=0).passed


def test_report_determinism():
    a = run_suite("det-engines", 10, seed=7)
    b = run_suite("det-engines", 10, seed=7)
    assert a.to_json() == b.to_json()


def test_report_fields():
    r = run_suite("frobenius", 3, seed=1)
    assert r.suite == "frobenius"
    assert r.trials == 3
    assert r.seed == 1
    assert r.verdict == "pass"
    assert r.failures == ()


def test_run_suite_unknown_name():
    with pytest.raises(DomainError):
        run_suite("no-such-suite", 1, 0)
