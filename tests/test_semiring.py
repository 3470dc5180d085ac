import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxplus import (
    BOTTOM,
    MaxPlusMatrix,
    MaxPlusScalar,
    as_scalar,
    mat_mul,
    mat_oplus,
    negate,
    parse_scalar,
    scalar_power,
)

finite = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
).map(MaxPlusScalar)
scalars = st.one_of(st.just(BOTTOM), finite)


def s(x):
    return as_scalar(x)


# The semiring laws hold for the library's sum and product, which it
# forms on matrices: on 1x1 matrices they are max and +, -inf absorbing.
UNIT = MaxPlusScalar(0)


def oplus(a, b):
    return MaxPlusScalar(mat_oplus(MaxPlusMatrix([[a.value]]), MaxPlusMatrix([[b.value]])).raw()[0][0])


def otimes(a, b):
    return MaxPlusScalar(mat_mul(MaxPlusMatrix([[a.value]]), MaxPlusMatrix([[b.value]])).raw()[0][0])


def test_oplus_examples():
    assert oplus(s(3), BOTTOM) == s(3)
    assert oplus(s(Fraction(1, 2)), s(Fraction(1, 3))) == s(Fraction(1, 2))


def test_otimes_examples():
    assert otimes(s(3), BOTTOM) == BOTTOM
    assert otimes(s(Fraction(2, 3)), s(Fraction(1, 3))) == s(1)


def test_scalar_power_examples():
    assert scalar_power(s(Fraction(-1, 2)), 4) == s(-2)
    assert scalar_power(BOTTOM, 3) == BOTTOM
    assert scalar_power(BOTTOM, 0) == UNIT  # empty product convention
    with pytest.raises(ValueError):
        scalar_power(s(1), -1)


@pytest.mark.parametrize("t", [Fraction(1, 2), Fraction(2), True, False, 2.0, "2", None])
def test_scalar_power_needs_an_int_exponent(t):
    # a Fraction t gave t*a, 1/2 for a = 1, and a bool t gave a or UNIT
    for a in (s(1), BOTTOM):
        with pytest.raises(TypeError, match="scalar_power needs an int t"):
            scalar_power(a, t)


def test_idempotence_and_neutral_on_random_rationals():
    rng = random.Random(7)
    for _ in range(100):
        a = s(Fraction(rng.randint(-99, 99), rng.randint(1, 30)))
        assert oplus(a, a) == a
        assert otimes(a, UNIT) == a
        assert scalar_power(a, 0) == UNIT


@given(scalars, scalars)
def test_oplus_commutative(a, b):
    assert oplus(a, b) == oplus(b, a)


@given(scalars, scalars, scalars)
def test_oplus_associative(a, b, c):
    assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c))


@given(scalars)
def test_oplus_unit_and_idempotence(a):
    assert oplus(a, BOTTOM) == a
    assert oplus(a, a) == a


@given(scalars, scalars)
def test_otimes_commutative(a, b):
    assert otimes(a, b) == otimes(b, a)


@given(scalars, scalars, scalars)
def test_otimes_associative(a, b, c):
    assert otimes(otimes(a, b), c) == otimes(a, otimes(b, c))


@given(scalars)
def test_otimes_unit_and_absorbing(a):
    assert otimes(a, UNIT) == a
    assert otimes(a, BOTTOM) == BOTTOM


@given(scalars, scalars, scalars)
def test_distributivity(a, b, c):
    assert otimes(a, oplus(b, c)) == oplus(otimes(a, b), otimes(a, c))


@given(finite)
def test_inverse_law(a):
    assert negate(a).value == -a.value


def test_negate_rejects_bottom():
    with pytest.raises(ValueError):
        negate(BOTTOM)


@given(scalars, scalars)
def test_total_order_consistent_with_oplus(a, b):
    assert oplus(a, b) == max(a, b)
    assert BOTTOM <= a


@given(finite, st.integers(min_value=0, max_value=50))
def test_scalar_power_is_iterated_product(a, t):
    acc = UNIT
    for _ in range(t):
        acc = otimes(acc, a)
    assert scalar_power(a, t) == acc


@pytest.mark.parametrize(
    "token,expected",
    [
        ("-inf", BOTTOM),
        ("*", BOTTOM),
        ("3", MaxPlusScalar(3)),
        ("-7/2", MaxPlusScalar(Fraction(-7, 2))),
        ("4/2", MaxPlusScalar(2)),
    ],
)
def test_parse_scalar(token, expected):
    assert parse_scalar(token) == expected


def test_parse_scalar_rejects_junk():
    with pytest.raises(ValueError):
        parse_scalar("1/0")
    with pytest.raises(ValueError):
        parse_scalar("abc")


@given(scalars)
def test_render_parse_roundtrip(a):
    assert parse_scalar(str(a)) == a


def test_normalization_makes_equality_structural():
    assert MaxPlusScalar(Fraction(2, 4)) == MaxPlusScalar(Fraction(1, 2))
    assert hash(MaxPlusScalar(Fraction(2, 4))) == hash(MaxPlusScalar(Fraction(1, 2)))


def test_floats_rejected_except_minus_inf():
    assert as_scalar(float("-inf")) == BOTTOM
    with pytest.raises(TypeError):
        as_scalar(0.5)


@pytest.mark.parametrize(
    "make",
    [
        lambda: MaxPlusScalar(0.1),
        lambda: scalar_power(MaxPlusScalar(1), 0.1),
        lambda: MaxPlusScalar(float("-inf")),
    ],
    ids=["float", "float_power", "minus_inf_float"],
)
def test_scalar_constructor_refuses_floats(make):
    # the constructor stored 0.1 as the float's binary fraction and overflowed on -inf
    with pytest.raises(TypeError, match="refusing inexact float"):
        make()
