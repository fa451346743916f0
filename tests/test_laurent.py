"""Ring operations, accuracy propagation and the polar/regular split."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mouldpert.laurent import InsufficientAccuracyError, Laurent
from mouldpert.scalars import GaussianRational, I, ONE


def lau(pairs, acc=None):
    return Laurent.from_pairs(pairs, acc)


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=8)
scalars = st.builds(GaussianRational, small_fractions, small_fractions)


@st.composite
def laurents(draw, min_min=-3, max_len=5, allow_truncated=True):
    lo = draw(st.integers(min_value=min_min, max_value=2))
    coeffs = draw(st.lists(scalars, min_size=0, max_size=max_len))
    if allow_truncated and draw(st.booleans()):
        acc = draw(st.integers(min_value=lo + len(coeffs) - 1, max_value=lo + len(coeffs) + 3))
    else:
        acc = None
    return Laurent(lo, coeffs, acc)


# -- addition ---------------------------------------------------------------


def test_add_cancels_to_exact_zero():
    f = Laurent.monomial(1, -1)
    assert (f + (-f)).is_exact_zero


def test_add_merges_degrees():
    f = lau([(0, 1), (1, 1)])
    g = Laurent.monomial(1, -1)
    assert (f + g) == lau([(-1, 1), (0, 1), (1, 1)])


def test_add_zero_keeps_accuracy():
    f = lau([(0, 2), (1, 3)], acc=4)
    assert (f + Laurent.zero()) == f
    assert (f + Laurent.zero()).acc_order == 4


def test_add_takes_worse_accuracy():
    f = lau([(0, 1)], acc=2)
    g = lau([(0, 1)], acc=5)
    assert (f + g).acc_order == 2


# -- multiplication ----------------------------------------------------------


def test_mul_monomials():
    assert Laurent.monomial(1, -1) * Laurent.monomial(1, 1) == Laurent.one()


def test_mul_geometric_series():
    f = lau([(0, 1), (1, -1)])
    g = lau([(k, 1) for k in range(6)], acc=5)
    assert (f * g).agrees_with(Laurent.one(), 5)


def test_mul_by_exact_zero_absorbs():
    f = lau([(0, 3), (1, 2)], acc=1)
    assert (f * Laurent.zero()).is_exact_zero


def test_mul_accuracy_rule():
    f = lau([(-1, 1)], acc=3)   # accuracy 3, valuation -1
    g = lau([(2, 1)], acc=6)    # accuracy 6, valuation 2
    assert (f * g).acc_order == min(3 + 2, 6 - 1)


def test_scale():
    f = lau([(0, 1), (2, -2)], acc=3)
    g = f.scale(I)
    assert g.coefficient(0) == I
    assert g.coefficient(2) == GaussianRational(0, -2)
    assert g.acc_order == 3
    assert f.scale(0).is_exact_zero


@given(laurents(), laurents())
def test_mul_commutative_through_window(f, g):
    lhs = f * g
    rhs = g * f
    assert lhs == rhs


@given(laurents(max_len=4), laurents(max_len=4), laurents(max_len=4))
def test_mul_associative_through_window(f, g, h):
    lhs = (f * g) * h
    rhs = f * (g * h)
    if lhs.is_exact_zero or rhs.is_exact_zero:
        assert rhs.is_exact_zero == lhs.is_exact_zero
        return
    window = min(
        x for x in (lhs.acc_order, rhs.acc_order, 6) if x is not None
    ) if (lhs.acc_order is not None or rhs.acc_order is not None) else 6
    assert lhs.agrees_with(rhs, window)


@given(laurents(), laurents(), laurents())
def test_mul_distributes_over_add(f, g, h):
    lhs = f * (g + h)
    rhs = f * g + f * h
    accs = [x.acc_order for x in (lhs, rhs) if x.acc_order is not None]
    if lhs.is_exact_zero and rhs.is_exact_zero:
        return
    if lhs.is_exact_zero or rhs.is_exact_zero:
        window = min(accs) if accs else 6
        zero_side, other = (lhs, rhs) if lhs.is_exact_zero else (rhs, lhs)
        assert other.agrees_with(zero_side, window if other.acc_order is None else other.acc_order)
        return
    window = min(accs) if accs else 6
    assert lhs.agrees_with(rhs, window)


# -- inverse -------------------------------------------------------------------


def test_inverse_geometric_expansion():
    lam = GaussianRational(3)
    f = lau([(0, lam), (1, 1)])
    g = f.inverse(3)
    for k in range(4):
        expected = (-ONE) ** k / lam ** (k + 1)
        assert g.coefficient(k) == expected
    assert (f * g).agrees_with(Laurent.one(), 3)


def test_inverse_of_monomial_is_exact():
    g = Laurent.monomial(2, 1).inverse(0)
    assert g == Laurent.monomial(Fraction(1, 2), -1)
    assert g.acc_order is None
    # s + k e at s = 0, the resonant factor of the matrix decomposition
    for k in (1, 3):
        g = Laurent.from_pairs([(0, 0), (1, k)]).inverse(5)
        assert g == Laurent.monomial(Fraction(1, k), -1)
        assert g.acc_order is None


def test_inverse_with_pole_shift():
    f = lau([(1, 1), (2, 1)])  # e(1+e)
    g = f.inverse(4)
    assert (f * g).agrees_with(Laurent.one(), 4)
    assert g.coefficient(-1) == ONE
    assert g.coefficient(0) == -ONE


@given(laurents(allow_truncated=False).filter(lambda f: not f.is_exact_zero))
def test_inverse_really_inverts(f):
    g = f.inverse(4)
    assert (f * g).agrees_with(Laurent.one(), 4)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Laurent.zero().inverse(2)


def test_inverse_of_truncated_zero_raises():
    with pytest.raises(InsufficientAccuracyError):
        Laurent(0, (), 3).inverse(1)


def test_inverse_needs_enough_accuracy():
    f = lau([(0, 1), (1, 1)], acc=2)
    f.inverse(2)
    with pytest.raises(InsufficientAccuracyError):
        f.inverse(3)


# -- polar / regular split -------------------------------------------------------


def test_projection_examples():
    f = lau([(-1, 1), (0, 3), (1, 1)])
    assert f.polar_part() == Laurent.monomial(1, -1)
    assert f.regular_part() == lau([(0, 3), (1, 1)])
    assert lau([(0, 1), (1, 1)]).polar_part().is_exact_zero


def test_polar_part_is_exact_even_for_truncated_input():
    f = lau([(-2, 5), (0, 1)], acc=0)
    assert f.polar_part().acc_order is None
    assert f.polar_part() == Laurent.monomial(5, -2)


def test_regular_part_requires_degree_zero():
    f = lau([(-2, 1)], acc=-1)
    f.polar_part()
    with pytest.raises(InsufficientAccuracyError):
        f.regular_part()


def test_polar_part_requires_negative_degrees():
    f = lau([(-3, 1)], acc=-2)
    with pytest.raises(InsufficientAccuracyError):
        f.polar_part()


@given(laurents())
def test_projectors_are_complementary_idempotents(f):
    if f.acc_order is not None and f.acc_order < 0:
        return
    plus = f.regular_part()
    minus = f.polar_part()
    assert plus.regular_part() == plus
    assert plus.polar_part().is_exact_zero
    assert minus.polar_part() == minus
    assert minus.regular_part().is_exact_zero or minus.is_exact_zero
    total = plus + minus
    window = f.acc_order if f.acc_order is not None else 6
    assert total.agrees_with(f, window)


# -- residue and constant term ------------------------------------------------------


def test_residue_and_constant_term():
    lam = GaussianRational(2)
    f = lau([(-1, -1 / (2 * lam))])
    assert f.residue() == -1 / (2 * lam)
    assert lau([(0, 1 / lam), (1, -1 / lam ** 2)]).constant_term() == 1 / lam
    assert lau([(0, 1), (1, 1)]).residue() == GaussianRational(0)


def test_constant_term_requires_accuracy():
    f = Laurent(0, (), -1)
    assert f.residue() == GaussianRational(0)
    with pytest.raises(InsufficientAccuracyError):
        f.constant_term()


@given(laurents(), laurents())
def test_residue_and_constant_term_are_linear(f, g):
    for reader, floor in ((Laurent.residue, -1), (Laurent.constant_term, 0)):
        ok_f = f.acc_order is None or f.acc_order >= floor
        ok_g = g.acc_order is None or g.acc_order >= floor
        if ok_f and ok_g:
            assert reader(f + g) == reader(f) + reader(g)


# -- bookkeeping ------------------------------------------------------------------


def test_coefficient_beyond_window_raises():
    f = lau([(0, 1)], acc=2)
    assert f.coefficient(2) == GaussianRational(0)
    with pytest.raises(InsufficientAccuracyError):
        f.coefficient(3)


def test_constructor_truncates_to_window():
    f = Laurent(0, [ONE, ONE, ONE], acc_order=1)
    assert f.max_degree == 1
    with pytest.raises(InsufficientAccuracyError):
        f.coefficient(2)


def test_canonical_strips_zero_edges():
    zero = GaussianRational(0)
    f = Laurent(-2, [zero, ONE, zero], acc_order=None)
    assert f.min_degree == -1
    assert f.max_degree == -1


def test_render_and_json():
    f = lau([(-1, Fraction(-1, 2)), (0, 3), (2, 1)])
    assert f.render() == "-1/2 e^-1 + 3 + e^2"
    assert f.to_json() == {"-1": "-1/2", "0": "3", "2": "1"}
    assert Laurent.zero().render() == "0"
    mixed = lau([(1, GaussianRational(1, 1))])
    assert mixed.render() == "(1+i) e^1"
