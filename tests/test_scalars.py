"""Scalar and vector arithmetic: frozen values and algebraic laws."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from supertrop import (
    E,
    ONE,
    ZERO,
    DomainError,
    ParseError,
    Scalar,
    ShapeError,
    Vector,
    lin_comb,
    parse_scalar,
    parse_vector,
    vector,
)
from supertrop.oracle import NU_HI, NU_LO, random_scalar

T = Scalar.tangible
G = Scalar.ghost_of


# -- constructors ----------------------------------------------------------


def test_zero_with_a_layer_raises_domain_error():
    with pytest.raises(DomainError, match="zero scalar carries no layer"):
        Scalar(None, True)


def test_empty_vector_raises_shape_error():
    with pytest.raises(ShapeError, match="vectors must have positive dimension"):
        Vector(())


@pytest.mark.parametrize("entries", [(1, 2), (ONE, Fraction(1)), (ONE, "0"), (ONE, None)])
def test_vector_rejects_non_scalar_entries(entries):
    with pytest.raises(DomainError, match="vector entries must be Scalars"):
        Vector(entries)


# -- addition --------------------------------------------------------------


def test_add_distinct_values_is_max():
    assert T(3) + T(5) == T(5)


def test_add_equal_tangibles_goes_ghost():
    assert T(3) + T(3) == G(3)


def test_add_ghost_absorbs_nu_match():
    assert G(3) + T(3) == G(3)


def test_add_zero_is_neutral():
    assert ZERO + T(7) == T(7)
    assert T(7) + ZERO == T(7)


# -- multiplication --------------------------------------------------------


def test_mul_adds_values():
    assert T(3) * T(5) == T(8)


def test_mul_ghost_absorbs():
    assert G(3) * T(5) == G(8)


def test_mul_zero_annihilates():
    assert ZERO * T(5) == ZERO


# -- nu, inv, power --------------------------------------------------------


def test_nu_map():
    assert T(3).nu() == G(3)
    assert G(3).nu() == G(3)
    assert ZERO.nu() == ZERO


def test_inv():
    assert T(3).inv() == T(-3)
    assert G(3).inv() == G(-3)
    with pytest.raises(DomainError):
        ZERO.inv()


def test_power():
    assert T(3).power(2) == T(6)
    assert G(4).power(Fraction(1, 2)) == G(2)
    with pytest.raises(DomainError):
        ZERO.power(0)
    assert ZERO.power(2) == ZERO


def test_power_rejects_a_float_exponent():
    with pytest.raises(DomainError, match="float scalar value 0.5"):
        T(3).power(0.5)


def test_power_rejects_a_non_rational_exponent():
    with pytest.raises(ParseError, match="bad rational scalar value 'x'"):
        T(3).power("x")


def test_frobenius_instance():
    # (3+5)^2 and 3^2 + 5^2 both come to 10
    assert (T(3) + T(5)).power(2) == T(10)
    assert T(3).power(2) + T(5).power(2) == T(10)


@given(
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.booleans(),
    st.booleans(),
    st.integers(1, 6),
)
def test_frobenius_property(a, b, ga, gb, m):
    x = Scalar(Fraction(a), ga)
    y = Scalar(Fraction(b), gb)
    assert (x + y).power(m) == x.power(m) + y.power(m)


# -- order, lift, surpassing ----------------------------------------------


def test_nu_cmp():
    assert T(3).nu_cmp(T(5)) == -1
    assert T(3).nu_cmp(G(3)) == 0
    assert G(5).nu_cmp(T(3)) == 1
    assert ZERO.nu_cmp(T(3)) == -1


def test_tangible_lift():
    assert G(3).tangible_lift() == T(3)
    assert T(3).tangible_lift() == T(3)
    with pytest.raises(DomainError):
        ZERO.tangible_lift()


def test_ghost_surpasses():
    assert G(5).ghost_surpasses(T(3))
    assert not G(2).ghost_surpasses(T(3))
    assert T(3).ghost_surpasses(T(3))
    assert not T(3).ghost_surpasses(T(5))
    assert G(3).ghost_surpasses(ZERO)


@given(st.sampled_from([ZERO, T(1), G(1), T(4), G(4), T(-2), G(-2)]))
def test_surpass_reflexive(a):
    assert a.ghost_surpasses(a)


# -- text ------------------------------------------------------------------


def test_str_and_parse_round_trip():
    for s in (ZERO, ONE, E, T(3), G(3), T(Fraction(1, 2)), G(Fraction(-7, 3))):
        assert parse_scalar(str(s)) == s


def test_parse_rejects_garbage():
    for bad in ("", "x", "3gg", "1.5", "inf", "1/0", "2/0g"):
        with pytest.raises(ParseError):
            parse_scalar(bad)


def test_constructors_reject_floats():
    assert T("-3/2") == T(Fraction(-3, 2)) == parse_scalar("-3/2")
    assert G(2) == parse_scalar("2g")
    for make in (T, G, vector):
        with pytest.raises(DomainError):
            make(0.1)


@pytest.mark.parametrize("bad", [None, [1], 1 + 2j, b"1"], ids=["None", "list", "complex", "bytes"])
def test_non_rational_types_raise_domain_error(bad):
    for make in (T, G, ONE.power):
        with pytest.raises(DomainError, match="scalar value .*; give an int, Fraction or rational string"):
            make(bad)


def test_constructors_reject_bad_strings():
    for make in (T, G):
        for bad in ("abc", "1/0", ""):
            with pytest.raises(ParseError, match="bad rational"):
                make(bad)


# -- sampler ---------------------------------------------------------------


def test_random_scalar_tangible_draws_one_randint():
    rng, twin = random.Random("s"), random.Random("s")
    for _ in range(20):
        assert random_scalar(rng, 0.0, 0.0) == T(twin.randint(NU_LO, NU_HI))


def test_random_scalar_layers():
    rng = random.Random("layers")
    draws = [random_scalar(rng, 0.3, 0.2) for _ in range(300)]
    assert {x.is_zero for x in draws} == {True, False}
    assert {x.is_ghost for x in draws} == {True, False}
    assert all(x.is_zero or NU_LO <= x.value <= NU_HI for x in draws)
    assert all(random_scalar(rng, 0.0, 1.0) == ZERO for _ in range(20))


# -- vectors ---------------------------------------------------------------


def test_vector_add_and_scale():
    assert vector(0, 1) + vector(1, 0) == vector(1, 1)
    assert vector(0, 0) + vector(0, "-inf") == vector("0g", 0)
    assert vector(1, 2).scale(T(3)) == vector(4, 5)


def test_vector_layers():
    assert vector("3g", "-inf").is_ghost
    assert not vector("3g", 2).is_ghost
    assert vector("-inf", "-inf").is_ghost
    assert vector(3, "-inf").is_tangible
    assert not vector("-inf", "-inf").is_tangible


def test_vector_ghost_surpasses():
    assert vector("5g", 3).ghost_surpasses(vector(3, 3))
    assert not vector("2g", 3).ghost_surpasses(vector(3, 3))
    assert vector("3g", "3g").ghost_surpasses(vector("-inf", "-inf"))


def test_lin_comb():
    assert lin_comb([ONE], [vector(1, 2)]) == vector(1, 2)
    assert lin_comb(
        [ONE, ONE], [vector(0, "-inf"), vector(0, "-inf")]
    ) == vector("0g", "-inf")
    assert lin_comb(
        [T(1), T(2)], [vector(0, "-inf"), vector("-inf", 0)]
    ) == vector(1, 2)


def test_parse_vector_round_trip():
    v = parse_vector("3 -inf 1/2g")
    assert v == Vector((T(3), ZERO, G(Fraction(1, 2))))
    assert parse_vector(str(v)) == v


# -- records ---------------------------------------------------------------


def test_every_record_pickles_and_copies():
    from supertrop import (
        BilinearForm, QuadraticForm, classify_vector, det, dual_base,
        gs_step, isotropic_strip, pair_class, parse_matrix, run_suite, sample,
    )
    from supertrop.scalars import Record

    m = parse_matrix("1 2\n3 4")
    form = BilinearForm(parse_matrix("1 0\n0 2"))
    v, w = parse_vector("1 2"), parse_vector("0 -1")
    d = dual_base(sample("closed-base", 2, 0, 0))
    values = [ONE, v, m, det(m), form, classify_vector(form, v), pair_class(form, v, w),
              gs_step(form, [], v), isotropic_strip(form, v, w), d.functionals[0], d,
              QuadraticForm.from_diagonal((ONE, T(2))), run_suite("frobenius", 2, 0)]
    subclasses = {type(x) for x in values}
    assert subclasses == set(Record.__subclasses__()) and len(subclasses) == 13
    for x in values:
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(y) is type(x) and y == x
