"""Shuffle combinatorics and the mould algebra."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from mouldpert.laurent import Laurent
from mouldpert.moulds import (
    Alphabet,
    EMPTY_WORD,
    Mould,
    MouldError,
    is_alternal_up_to,
    is_symmetral_up_to,
    mould_antipode,
    mould_exp,
    mould_inverse,
    mould_log,
    mould_product,
    nabla,
    shuffle,
)
from mouldpert.scalars import GaussianRational, ONE, ZERO


def brute_force_shuffle(a: tuple, b: tuple) -> Counter:
    """Independent oracle: place the letters of a on every position subset."""
    n = len(a) + len(b)
    out = Counter()
    for positions in itertools.combinations(range(n), len(a)):
        word = [None] * n
        rest = iter(b)
        for pos, letter in zip(positions, a):
            word[pos] = letter
        for i in range(n):
            if word[i] is None:
                word[i] = next(rest)
        out[tuple(word)] += 1
    return out


# -- words and alphabets -----------------------------------------------------


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet.parse("i,i")


def test_alphabet_lookup_and_words():
    a = Alphabet.parse("i,-i,0")
    assert len(a) == 3
    assert a.letters[a.index("0")] == ZERO
    assert a.phi(a.word_of("i", "-i")) == ZERO
    assert a.phi(a.word_of("i", "i")) == GaussianRational(0, 2)
    words = list(a.words_up_to(2))
    assert len(words) == 1 + 3 + 9
    assert words[0] == EMPTY_WORD
    assert a.closed_under_negation
    assert a.purely_imaginary
    assert not Alphabet.parse("i,2i").closed_under_negation


def test_word_render_parse_roundtrip():
    a = Alphabet.parse("i,-i,2i,0")
    w = a.word_of("2i", "-i", "0")
    assert a.parse_word(a.render_word(w)) == w
    assert a.parse_word("∅") == EMPTY_WORD
    assert a.parse_word("2i,0") == a.word_of("2i", "0")


# -- shuffle ---------------------------------------------------------------------


def test_shuffle_two_letters():
    assert shuffle((0,), (1,)) == Counter({(0, 1): 1, (1, 0): 1})


def test_shuffle_insertion():
    assert shuffle((0, 1), (2,)) == Counter({(0, 1, 2): 1, (0, 2, 1): 1, (2, 0, 1): 1})


def test_shuffle_repeated_letter_has_multiplicity():
    assert shuffle((0,), (0,)) == Counter({(0, 0): 2})


def test_shuffle_against_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        a = tuple(rng.choices(range(3), k=rng.randint(0, 4)))
        b = tuple(rng.choices(range(3), k=rng.randint(0, 4)))
        assert shuffle(a, b) == brute_force_shuffle(a, b)


def test_shuffle_total_multiplicity_is_binomial():
    rng = random.Random(11)
    for _ in range(30):
        a = tuple(rng.choices(range(4), k=rng.randint(0, 5)))
        b = tuple(rng.choices(range(4), k=rng.randint(0, 5)))
        assert sum(shuffle(a, b).values()) == comb(len(a) + len(b), len(a))


# -- mould product, unit, inverse ----------------------------------------------------


@pytest.fixture
def alphabet():
    return Alphabet.parse("1,-1,0")


def unit_mould(alphabet):
    """The multiplicative unit: 1 on the empty word, 0 elsewhere."""
    return Mould.constant_from(alphabet, lambda word: ONE if len(word) == 0 else ZERO)


def letters_mould(alphabet):
    """The letters mould I: 1 on single-letter words, 0 elsewhere."""
    return Mould.constant_from(alphabet, lambda word: ONE if len(word) == 1 else ZERO)


def random_constant_mould(alphabet, seed, max_len=5, zero_on_empty=False, one_on_empty=False):
    rng = random.Random(seed)
    table = {}
    for w in alphabet.words_up_to(max_len):
        value = GaussianRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )
        table[w] = value
    if zero_on_empty:
        table[EMPTY_WORD] = ZERO
    if one_on_empty:
        table[EMPTY_WORD] = ONE
    return Mould.constant_from(alphabet, lambda w: table.get(w, ZERO))


def random_laurent_mould(alphabet, seed, max_len=4):
    rng = random.Random(seed)
    table = {}
    for w in alphabet.words_up_to(max_len):
        pairs = [
            (deg, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            for deg in range(-2, 3)
        ]
        table[w] = Laurent.from_pairs(pairs)
    def fn(word, acc):
        return table.get(word, Laurent.zero())
    return Mould(alphabet, fn)


def test_unit_is_two_sided_identity(alphabet):
    m = random_constant_mould(alphabet, seed=1)
    unit = unit_mould(alphabet)
    left = mould_product(unit, m)
    right = mould_product(m, unit)
    for w in alphabet.words_up_to(3):
        assert left.value(w, 0) == m.value(w, 0)
        assert right.value(w, 0) == m.value(w, 0)


def test_letters_mould_product(alphabet):
    ones = letters_mould(alphabet)
    square = mould_product(ones, ones)
    xy = alphabet.word_of("1", "-1")
    assert square.value(xy, 0) == Laurent.one()
    assert square.value(alphabet.word_of("1"), 0).is_exact_zero
    assert square.value(EMPTY_WORD, 0).is_exact_zero


@pytest.mark.parametrize("make", [random_constant_mould, random_laurent_mould])
def test_product_by_letters_drops_the_last_letter(alphabet, make):
    m = make(alphabet, seed=12)
    shifted = mould_product(m, letters_mould(alphabet))
    for acc in (0, 2):
        assert shifted.value(EMPTY_WORD, acc).is_exact_zero
        for w in alphabet.words_up_to(4):
            if w:
                assert shifted.value(w, acc) == m.value(w[:-1], acc)


def test_product_associativity_on_random_moulds(alphabet):
    for seed in range(3):
        a = random_constant_mould(alphabet, seed=10 + seed)
        b = random_constant_mould(alphabet, seed=20 + seed)
        c = random_constant_mould(alphabet, seed=30 + seed)
        lhs = mould_product(mould_product(a, b), c)
        rhs = mould_product(a, mould_product(b, c))
        for w in alphabet.words_up_to(5):
            assert lhs.value(w, 0) == rhs.value(w, 0)


def test_product_associativity_on_laurent_valued_moulds(alphabet):
    a = random_laurent_mould(alphabet, seed=5)
    b = random_laurent_mould(alphabet, seed=6)
    c = random_laurent_mould(alphabet, seed=7)
    lhs = mould_product(mould_product(a, b), c)
    rhs = mould_product(a, mould_product(b, c))
    for w in alphabet.words_up_to(3):
        assert lhs.value(w, 1).agrees_with(rhs.value(w, 1), 1)


def test_inverse_of_unit_is_unit(alphabet):
    unit = unit_mould(alphabet)
    inv = mould_inverse(unit)
    for w in alphabet.words_up_to(3):
        assert inv.value(w, 0) == unit.value(w, 0)


def test_inverse_times_mould_is_unit(alphabet):
    m = random_constant_mould(alphabet, seed=3, one_on_empty=True)
    inv = mould_inverse(m)
    unit = unit_mould(alphabet)
    for prod in (mould_product(m, inv), mould_product(inv, m)):
        for w in alphabet.words_up_to(4):
            assert prod.value(w, 0) == unit.value(w, 0)


def test_inverse_requires_unit_on_empty_word(alphabet):
    m = random_constant_mould(alphabet, seed=4, zero_on_empty=True)
    with pytest.raises(MouldError):
        mould_inverse(m)


def test_nabla_is_a_derivation(alphabet):
    a = random_constant_mould(alphabet, seed=40)
    b = random_constant_mould(alphabet, seed=41)
    lhs = nabla(mould_product(a, b))
    rhs_one = mould_product(nabla(a), b)
    rhs_two = mould_product(a, nabla(b))
    for w in alphabet.words_up_to(4):
        total = rhs_one.value(w, 0) + rhs_two.value(w, 0)
        assert lhs.value(w, 0).agrees_with(total, 0)


# -- exponential and logarithm ------------------------------------------------------


def zero_mould(alphabet):
    return Mould(alphabet, lambda w, acc: Laurent.zero())


def test_exp_of_zero_is_unit(alphabet):
    e = mould_exp(zero_mould(alphabet))
    unit = unit_mould(alphabet)
    for w in alphabet.words_up_to(3):
        assert e.value(w, 0) == unit.value(w, 0)


def test_exp_of_letters_on_two_letter_word(alphabet):
    e = mould_exp(letters_mould(alphabet))
    assert e.value(alphabet.word_of("1", "0"), 0) == Laurent.monomial(
        GaussianRational(Fraction(1, 2)), 0
    )


def test_log_exp_roundtrip(alphabet):
    ones = letters_mould(alphabet)
    back = mould_log(mould_exp(ones))
    for w in alphabet.words_up_to(5):
        assert back.value(w, 0) == ones.value(w, 0)


def test_exp_log_preconditions(alphabet):
    with pytest.raises(MouldError):
        mould_exp(unit_mould(alphabet))
    with pytest.raises(MouldError):
        mould_log(zero_mould(alphabet))


# -- symmetrality and alternality -----------------------------------------------------


def geometric_symmetral(alphabet, weights):
    """Character built from nonvanishing partial-sum weights."""
    table = dict(zip(alphabet.letters, weights))

    def fn(word):
        total = ZERO
        value = ONE
        for i in word:
            total = total + table[alphabet.letters[i]]
            value = value * total.reciprocal()
        return value

    return Mould.constant_from(alphabet, fn)


def weighted_letters(alphabet, weights):
    """Supported on single-letter words, with one weight per letter."""
    return Mould.constant_from(alphabet, lambda word: weights[word[0]] if len(word) == 1 else ZERO)


def commutator_alternal(alphabet, seed):
    """Alternal mould: commutator bracket of two letter-supported moulds."""
    rng = random.Random(seed)
    f = weighted_letters(alphabet, [GaussianRational(rng.randint(1, 5)) for _ in alphabet.letters])
    g = weighted_letters(
        alphabet, [GaussianRational(rng.randint(1, 5), rng.randint(-3, 3)) for _ in alphabet.letters]
    )
    def fn(word, acc):
        return mould_product(f, g).value(word, acc) - mould_product(g, f).value(word, acc)
    return Mould(alphabet, fn)


def test_unit_is_symmetral(alphabet):
    assert is_symmetral_up_to(unit_mould(alphabet), 4).ok


def test_letters_mould_is_alternal(alphabet):
    assert is_alternal_up_to(letters_mould(alphabet), 4).ok


def test_geometric_character_is_symmetral():
    alphabet = Alphabet.parse("1,3")
    weights = [GaussianRational(1), GaussianRational(3)]
    mould = geometric_symmetral(alphabet, weights)
    assert is_symmetral_up_to(mould, 4).ok


def test_commutator_of_letter_moulds_is_alternal(alphabet):
    assert is_alternal_up_to(commutator_alternal(alphabet, 3), 4).ok


def test_product_of_symmetral_is_symmetral(alphabet):
    exp_one = mould_exp(commutator_alternal(alphabet, 8))
    exp_two = mould_exp(letters_mould(alphabet))
    assert is_symmetral_up_to(mould_product(exp_one, exp_two), 4).ok


def test_exp_maps_alternal_to_symmetral(alphabet):
    assert is_symmetral_up_to(mould_exp(commutator_alternal(alphabet, 13)), 4).ok


def test_log_maps_symmetral_to_alternal():
    alphabet = Alphabet.parse("1,3")
    mould = geometric_symmetral(alphabet, [GaussianRational(1), GaussianRational(3)])
    assert is_alternal_up_to(mould_log(mould), 4).ok


def test_antipode_inverts_symmetral_moulds(alphabet):
    symmetral = mould_exp(commutator_alternal(alphabet, 21))
    tilde = mould_antipode(symmetral)
    recursive = mould_inverse(symmetral)
    for w in alphabet.words_up_to(5):
        assert tilde.value(w, 0) == recursive.value(w, 0)


def test_memoized_values_are_stable(alphabet):
    m = random_constant_mould(alphabet, seed=55)
    w = alphabet.word_of("1", "0")
    assert m.value(w, 0) is m.value(w, 0)


def test_symmetrality_checker_reports_violations(alphabet):
    broken = random_constant_mould(alphabet, seed=99, one_on_empty=True)
    report = is_symmetral_up_to(broken, 3)
    assert not report.ok
    assert report.violations
    described = report.violations[0].describe(alphabet)
    assert "sh" in described


# -- e-free moulds read as scalars ----------------------------------------------

SCALAR_ALPHABETS = ("i,-i", "1,-1", "i,-i,0", "1,-1,2i", "0,1/2,-1/2")
TABLE_VALUES = tuple(
    GaussianRational(re, im)
    for re, im in ((0, 0), (1, 0), (-1, 0), (Fraction(1, 2), 0), (0, 1), (2, Fraction(-1, 3)))
)


@st.composite
def scalar_tables(draw):
    """An alphabet of 2-3 letters and a table of e-free values on its words
    of length <= 4: random values (almost never symmetral), the
    symmetral exp of a letters mould, x_(w1)...x_(wr) / r!, or an alternal
    letters mould; a structured table has one entry redrawn half the time."""
    alphabet = Alphabet.parse(draw(st.sampled_from(SCALAR_ALPHABETS)))
    words = list(alphabet.words_up_to(4))
    kind = draw(st.sampled_from(("random", "symmetral", "alternal")))
    if kind == "random":
        table = {w: draw(st.sampled_from(TABLE_VALUES)) for w in words}
    else:
        weights = [draw(st.sampled_from(TABLE_VALUES)) for _ in alphabet.letters]
        table = {}
        for w in words:
            if kind == "alternal":
                table[w] = weights[w[0]] if len(w) == 1 else ZERO
            else:
                value = GaussianRational(Fraction(1, factorial(len(w))))
                for i in w:
                    value = value * weights[i]
                table[w] = value
        if draw(st.booleans()):
            table[draw(st.sampled_from(words))] = draw(st.sampled_from(TABLE_VALUES))
    return alphabet, table


def scalar_and_laurent_twin(alphabet, table):
    """The same e-free values as a ``constant_from`` mould and as a plain
    Laurent-valued mould serving the monomials c e^0."""
    scalar = Mould.constant_from(alphabet, lambda w: table[w])
    twin = Mould(alphabet, lambda w, acc: Laurent.monomial(table[w], 0) if table[w] else Laurent.zero())
    assert scalar.scalar is not None and twin.scalar is None
    return scalar, twin


def shuffle_summary(report, alphabet):
    return report.pairs_checked, report.empty_word_ok, [v.describe(alphabet) for v in report.violations]


@given(scalar_tables())
def test_scalar_shuffle_checks_equal_the_laurent_checks(case):
    alphabet, table = case
    scalar, twin = scalar_and_laurent_twin(alphabet, table)
    for check in (is_symmetral_up_to, is_alternal_up_to):
        assert shuffle_summary(check(scalar, 4), alphabet) == shuffle_summary(check(twin, 4), alphabet)
        assert check(scalar, 4).violations == check(twin, 4).violations
