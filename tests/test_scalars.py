"""Field axioms, parsing and formatting of the exact scalars."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from mouldpert.scalars import (
    GaussianRational,
    I,
    ONE,
    ScalarParseError,
    ZERO,
    format_scalar,
    parse_scalar,
)


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


small_fractions = st.fractions(
    min_value=-8, max_value=8, max_denominator=12
)

scalars = st.builds(GaussianRational, small_fractions, small_fractions)
nonzero_scalars = scalars.filter(bool)


def test_rational_addition():
    assert gr(Fraction(1, 2)) + gr(Fraction(1, 3)) == gr(Fraction(5, 6))


def test_i_squared():
    assert I * I == -ONE


def test_division_by_complex():
    assert ONE / gr(2, -1) == gr(Fraction(2, 5), Fraction(1, 5))


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.reciprocal()


def test_mixed_arithmetic_with_int_and_fraction():
    x = gr(1, 2)
    assert x + 1 == gr(2, 2)
    assert 3 * x == gr(3, 6)
    assert x - Fraction(1, 2) == gr(Fraction(1, 2), 2)
    assert 1 / I == -I


def test_power():
    assert I ** 2 == -ONE
    assert I ** -1 == -I
    assert gr(2) ** 5 == gr(32)
    assert gr(2, 1) ** 0 == ONE


@given(scalars, scalars)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(scalars)
def test_conjugation_is_an_involution(a):
    assert a.conjugate().conjugate() == a


@given(scalars, nonzero_scalars)
def test_division_inverts_multiplication(a, b):
    assert (a / b) * b == a


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a


@given(scalars)
def test_conjugate_product_is_real(a):
    assert (a * a.conjugate()).im == 0


def test_canonical_form_and_hash():
    assert gr(Fraction(2, 4)) == gr(Fraction(1, 2))
    assert hash(gr(3)) == hash(3)
    assert hash(gr(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert gr(3) == 3
    assert gr(Fraction(1, 2)) == Fraction(1, 2)


def test_parse_examples():
    assert parse_scalar("3/4") == gr(Fraction(3, 4))
    assert parse_scalar("-1/2+2/3i") == gr(Fraction(-1, 2), Fraction(2, 3))
    assert parse_scalar("i") == I
    assert parse_scalar("-i") == -I
    assert parse_scalar("2i") == gr(0, 2)
    assert parse_scalar("1-i") == gr(1, -1)
    assert parse_scalar("0") == ZERO
    assert parse_scalar(" 5/2 ") == gr(Fraction(5, 2))


@pytest.mark.parametrize(
    "text",
    ["", "abc", "1/", "1/0", "1+", "1+2", "1 + 2i", "2i+1", "--1", "1//2", "3/4x", "٣/٤", "²"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ScalarParseError) as err:
        parse_scalar(text)
    assert err.value.pos >= 0


def test_parse_error_positions():
    with pytest.raises(ScalarParseError) as err:
        parse_scalar("1/0")
    assert err.value.pos == 2
    with pytest.raises(ScalarParseError) as err:
        parse_scalar("3/4x")
    assert err.value.pos == 3


@given(scalars)
def test_format_parse_roundtrip(a):
    assert parse_scalar(format_scalar(a)) == a


def test_format_examples():
    assert format_scalar(gr(0)) == "0"
    assert format_scalar(I) == "i"
    assert format_scalar(-I) == "-i"
    assert format_scalar(gr(0, Fraction(-2, 3))) == "-2/3i"
    assert format_scalar(gr(1, -1)) == "1-i"
    assert format_scalar(gr(Fraction(-1, 2), Fraction(2, 3))) == "-1/2+2/3i"


def test_literals_of_any_length_round_trip():
    """Integers past the interpreter's 4300-digit limit on int/str
    conversion print and parse exactly, with that limit left as it is."""
    numerator = 10**5001 + 7
    z = GaussianRational(Fraction(-numerator, 3**9000), Fraction(2**20000 + 1, 10**5200))
    text = format_scalar(z)
    assert text.startswith("-1" + "0" * 5000 + "7/")
    assert parse_scalar(text) == z
    assert parse_scalar("1" + "0" * 5001 + "i") == GaussianRational(0, 10**5001)


def test_repr_is_informative():
    assert "3/4" in repr(gr(Fraction(3, 4)))


# -- the arithmetic fast paths against (Fraction, Fraction) pairs ------------------
#
# GaussianRational skips work on zero operands, on Gaussian integers and on
# equal denominators.  The reference below knows nothing of the integer
# triple: a value is a pair of Fractions, and the operations are the
# textbook formulas on the pair.

REFERENCE = {
    "+": (operator.add, lambda x, y: (x[0] + y[0], x[1] + y[1])),
    "-": (operator.sub, lambda x, y: (x[0] - y[0], x[1] - y[1])),
    "*": (operator.mul, lambda x, y: (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])),
}

ZERO_PAIR = (0, 0)
gaussian_integers = st.tuples(st.integers(-9, 9), st.integers(-9, 9))
rational_pairs = st.tuples(small_fractions, small_fractions)
pairs = st.one_of(st.just(ZERO_PAIR), gaussian_integers, rational_pairs)


@st.composite
def shared_denominator_pairs(draw):
    """Two values whose canonical denominators are one d > 1, so that the
    equal-denominator path runs; their sum often needs reducing."""
    d = draw(st.integers(2, 12))
    numerators = st.tuples(st.integers(-30, 30), st.integers(-30, 30)).filter(
        lambda ab: math.gcd(ab[0], ab[1], d) == 1
    )
    (a, b), (c, e) = draw(numerators), draw(numerators)
    return (Fraction(a, d), Fraction(b, d)), (Fraction(c, d), Fraction(e, d))


operand_pairs = st.one_of(st.tuples(pairs, pairs), shared_denominator_pairs())
plain_scalars = st.one_of(st.integers(-9, 9), small_fractions)


def assert_canonical(z, expected):
    assert type(z) is GaussianRational
    a, b, d = z._a, z._b, z._d
    assert d > 0
    assert math.gcd(a, b, d) == 1
    if a == 0 and b == 0:
        assert d == 1
    assert (Fraction(a, d), Fraction(b, d)) == expected


@pytest.mark.parametrize("symbol", sorted(REFERENCE))
@given(operand_pairs)
@example(((Fraction(1, 2), 0), (Fraction(1, 2), 0)))  # equal d, the sum reduces to 1
@example(((Fraction(1, 4), Fraction(1, 4)), (Fraction(-1, 4), Fraction(3, 4))))
@example(((Fraction(1, 3), 1), (Fraction(-1, 3), -1)))  # equal d, exact cancellation
@example(((3, -2), (Fraction(1, 6), Fraction(5, 6))))  # one integer operand
@example(((Fraction(1, 2), Fraction(1, 3)), (2, 0)))  # a product that reduces
@example((ZERO_PAIR, (Fraction(5, 7), 1)))
@example(((Fraction(5, 7), 1), ZERO_PAIR))
@example((ZERO_PAIR, ZERO_PAIR))
def test_arithmetic_matches_fraction_pairs(symbol, operands):
    x, y = operands
    apply, reference = REFERENCE[symbol]
    expected = reference(x, y)
    assert_canonical(apply(GaussianRational(*x), GaussianRational(*y)), expected)


@pytest.mark.parametrize("symbol", sorted(REFERENCE))
@given(pairs, plain_scalars)
@example(ZERO_PAIR, 0)
@example((Fraction(1, 2), 1), Fraction(1, 2))
@example((Fraction(1, 2), 0), Fraction(-3, 2))
def test_mixed_operands_on_either_side(symbol, x, y):
    apply, reference = REFERENCE[symbol]
    z = GaussianRational(*x)
    assert_canonical(apply(z, y), reference(x, (y, 0)))
    assert_canonical(apply(y, z), reference((y, 0), x))


@given(pairs)
def test_constructor_is_canonical(x):
    assert_canonical(GaussianRational(*x), x)
    assert_canonical(GaussianRational(*(Fraction(v) for v in x)), x)


def fraction_format(z):
    """The formatter written over the Fraction parts of z."""

    def frac_str(q):
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    re_, im_ = z.re, z.im
    if im_ == 0:
        return frac_str(re_)
    mag = abs(im_)
    unit = "i" if mag == 1 else frac_str(mag) + "i"
    if re_ == 0:
        return "-" + unit if im_ < 0 else unit
    return frac_str(re_) + ("-" if im_ < 0 else "+") + unit


@given(st.one_of(pairs, st.tuples(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30))))
@example((0, 1))
@example((0, -1))
@example((Fraction(7, 3), Fraction(-7, 3)))
@example((Fraction(-1, 6), Fraction(1, 3)))
def test_format_matches_the_fraction_formatter(x):
    z = GaussianRational(*x)
    assert format_scalar(z) == fraction_format(z)
