"""Ring operations, accuracy propagation and the polar/regular split."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mouldpert.laurent import InsufficientAccuracyError, Laurent, window_json
from mouldpert.scalars import GaussianRational, I, ONE, ZERO


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
    coeffs = (GaussianRational(Fraction(-1, 2)), GaussianRational(3), ZERO, ONE)
    assert f == Laurent(-1, coeffs)
    assert window_json(-1, coeffs) == {"-1": "-1/2", "0": "3", "2": "1"}
    assert window_json(-1, coeffs, 1) == {"-1": "-1/2", "0": "3"}
    assert Laurent.zero().render() == "0"
    mixed = lau([(1, GaussianRational(1, 1))])
    assert mixed.render() == "(1+i) e^1"


# -- the accumulator and the linear division ---------------------------------


def dense_product(f, g):
    """f * g as the dense convolution, truncated by the product rule."""
    if f.is_exact_zero or g.is_exact_zero:
        return Laurent.zero()

    def low(x):
        return x.min_degree if x.min_degree is not None else x.acc_order + 1

    if f.acc_order is None and g.acc_order is None:
        acc = None
    elif f.acc_order is None:
        acc = g.acc_order + low(f)
    elif g.acc_order is None:
        acc = f.acc_order + low(g)
    else:
        acc = min(f.acc_order + low(g), g.acc_order + low(f))
    if f.min_degree is None or g.min_degree is None:
        return Laurent(0, (), acc)
    out = [ZERO] * (f.max_degree - f.min_degree + g.max_degree - g.min_degree + 1)
    for i in range(f.min_degree, f.max_degree + 1):
        for j in range(g.min_degree, g.max_degree + 1):
            k = i + j - f.min_degree - g.min_degree
            out[k] = out[k] + f.coefficient(i) * g.coefficient(j)
    return Laurent(f.min_degree + g.min_degree, out, acc)


def dense_sum(f, g):
    """f + g over the union of the stored degrees, at the worse accuracy."""
    if f.is_exact_zero:
        return g
    if g.is_exact_zero:
        return f
    accs = [x.acc_order for x in (f, g) if x.acc_order is not None]
    degrees = [d for x in (f, g) if x.min_degree is not None for d in (x.min_degree, x.max_degree)]
    acc = min(accs) if accs else None
    if not degrees:
        return Laurent(0, (), acc)

    def stored(x, k):
        if x.min_degree is None or not x.min_degree <= k <= x.max_degree:
            return ZERO
        return x.coefficient(k)

    lo, hi = min(degrees), max(degrees)
    return Laurent(lo, [stored(f, k) + stored(g, k) for k in range(lo, hi + 1)], acc)


def folded(terms):
    total = Laurent.zero()
    for f, g in terms:
        total = dense_sum(total, dense_product(f, g))
    return total


windowed_zeros = st.integers(min_value=-3, max_value=5).map(lambda acc: Laurent(0, (), acc))
factors = st.one_of(laurents(max_len=4), st.just(Laurent.zero()), windowed_zeros)


def assert_same(got, want):
    """Same stored coefficients and the same window."""
    assert got == want


@given(st.lists(st.tuples(factors, factors), max_size=5))
def test_sum_of_products_equals_the_folded_products(terms):
    assert_same(Laurent.sum_of_products(terms), folded(terms))


@given(st.lists(st.tuples(laurents(max_len=4), laurents(max_len=4)), min_size=1, max_size=3))
def test_sum_of_products_with_its_negation_cancels(terms):
    both = terms + [(-f, g) for f, g in terms]
    total = Laurent.sum_of_products(both)
    assert_same(total, folded(both))
    if all(f.acc_order is None and g.acc_order is None for f, g in terms):
        assert total.is_exact_zero


def test_sum_of_products_examples():
    exact = lau([(-1, 1), (0, 2)])
    window = lau([(0, 1), (1, 3)], acc=2)
    # exact zeros add nothing, not even a window
    assert_same(Laurent.sum_of_products([(exact, Laurent.zero()), (Laurent.zero(), window)]), Laurent.zero())
    # a windowed zero keeps its accuracy in the sum: 4 + mindeg(exact) = 3
    wz = Laurent(0, (), 4)
    assert Laurent.sum_of_products([(exact, exact), (wz, exact)]).acc_order == 3
    # exact and windowed terms: the sum is guaranteed through the least bound
    mixed = Laurent.sum_of_products([(exact, exact), (exact, window)])
    assert mixed.acc_order == 1
    assert_same(mixed, folded([(exact, exact), (exact, window)]))
    # exact terms that cancel give the exact zero
    assert Laurent.sum_of_products([(exact, exact), (-exact, exact)]).is_exact_zero


def coefficientwise(f, g, sign):
    """f + sign g degree by degree: ({degree: nonzero coefficient}, window).
    An exact zero adds nothing, not even a window; otherwise the window is
    the worse of the operands', and degrees above it are dropped."""
    operands = [(x, c) for x, c in ((f, ONE), (g, GaussianRational(sign))) if not x.is_exact_zero]
    accs = [x.acc_order for x, _ in operands if x.acc_order is not None]
    acc = min(accs) if accs else None
    table = {}
    for x, c in operands:
        if x.min_degree is None:
            continue
        for k in range(x.min_degree, x.max_degree + 1):
            if acc is None or k <= acc:
                table[k] = table.get(k, ZERO) + c * x.coefficient(k)
    return {k: v for k, v in table.items() if v}, acc


sum_operands = st.one_of(laurents(), st.just(Laurent.zero()), windowed_zeros)


@given(sum_operands, sum_operands, st.booleans())
def test_add_and_sub_equal_the_coefficientwise_reference(f, g, same):
    if same:
        g = f  # f - f cancels: the exact zero, or a zero on f's window
    for got, sign in ((f + g, 1), (f - g, -1)):
        table, acc = coefficientwise(f, g, sign)
        assert got.acc_order == acc
        if not table:
            assert got.min_degree is None
            assert got.is_exact_zero == (acc is None)
            continue
        # both ends trimmed: the stored degrees run from the lowest nonzero
        # coefficient to the highest
        assert (got.min_degree, got.max_degree) == (min(table), max(table))
        assert all(got.coefficient(k) == table.get(k, ZERO) for k in range(min(table), max(table) + 1))


def reference_over_linear(prefix, s, r, need):
    return prefix * Laurent.from_pairs([(0, s), (1, r)]).inverse(need)


@given(
    st.one_of(laurents(), st.just(Laurent.zero()), windowed_zeros),
    st.one_of(st.just(ZERO), scalars),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=6),
)
def test_over_linear_equals_the_product_by_the_inverse(prefix, s, r, need):
    assert_same(prefix.over_linear(s, r, need), reference_over_linear(prefix, s, r, need))


@pytest.mark.parametrize("s", [ZERO, GaussianRational(0, 2), GaussianRational(Fraction(-3, 2), 1)])
def test_over_linear_of_a_prefix_held_deeper_than_requested(s):
    prefix = lau([(-2, 1), (-1, I), (0, 3), (3, -1)], acc=9)
    for need in range(0, 4):
        got = prefix.over_linear(s, 3, need)
        assert_same(got, reference_over_linear(prefix, s, 3, need))
        assert got.acc_order == (9 - 1 if not s else min(9, need - 2))


def test_the_suites_see_an_accumulator_that_drops_a_term(monkeypatch):
    from mouldpert.birkhoff import BirkhoffEngine, verify_mould_equation
    from mouldpert.moulds import Alphabet

    honest = Laurent.sum_of_products

    def dropping(terms):
        terms = list(terms)
        return honest(terms[:-1] if len(terms) > 1 else terms)

    monkeypatch.setattr(Laurent, "sum_of_products", staticmethod(dropping))
    s_equation, r_equation, s_symmetral = verify_mould_equation(
        BirkhoffEngine(Alphabet.parse("i,-i,2i,0")), 3
    )
    assert not s_equation.ok
    assert not s_symmetral.ok
