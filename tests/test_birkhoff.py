"""The factorization recurrence and the scalar moulds it extracts."""

import gc
import weakref

import pytest

from mouldpert.birkhoff import (
    BirkhoffEngine,
    CorruptedEngine,
    make_T,
    verify_conjugation_symmetry,
    verify_factorization,
    verify_grading_identities,
    verify_mould_equation,
    verify_support,
)
from mouldpert.laurent import Laurent
from mouldpert.operators import build_normal_form, random_problem, spectral_decompose
from mouldpert.moulds import (
    Alphabet,
    EMPTY_WORD,
    is_alternal_up_to,
    is_symmetral_up_to,
    mould_antipode,
    mould_inverse,
    mould_product,
    nabla,
    Mould,
)
from mouldpert.scalars import GaussianRational, I, ONE, ZERO


@pytest.fixture
def alphabet():
    return Alphabet.parse("i,-i,2i,0")


def partial_sums(alphabet, word):
    return [alphabet.phi(word[:j]) for j in range(1, len(word) + 1)]


@pytest.fixture
def engine(alphabet):
    return BirkhoffEngine(alphabet)


# -- the T mould --------------------------------------------------------------


def test_T_on_single_nonresonant_letter(engine, alphabet):
    lam = I
    value = engine.T.value(alphabet.word_of("i"), 3)
    for k in range(4):
        assert value.coefficient(k) == (-ONE) ** k / lam ** (k + 1)


def test_T_on_single_resonant_letter(engine, alphabet):
    assert engine.T.value(alphabet.word_of("0"), 0) == Laurent.monomial(1, -1)


def test_T_on_cancelling_pair(engine, alphabet):
    lam = I
    value = engine.T.value(alphabet.word_of("i", "-i"), 1)
    assert value.coefficient(-1) == 1 / (2 * lam)
    assert value.coefficient(0) == -1 / (2 * lam ** 2)
    assert value.coefficient(1) == 1 / (2 * lam ** 3)


def test_T_is_the_product_of_resolvent_factors(engine, alphabet):
    # direct evaluation of the defining product, independent of the
    # prefix recursion used by the engine; each factor is inverted len(word)
    # degrees past acc, so the poles of the others leave the product exact
    # through acc.  Rising windows on one engine re-evaluate cached values.
    for acc in (0, 2, 4):
        for word in (w for w in alphabet.words_up_to(4) if w):
            direct = Laurent.one()
            for j, s in enumerate(partial_sums(alphabet, word), start=1):
                factor = Laurent.from_pairs([(0, s), (1, GaussianRational(j))])
                direct = direct * factor.inverse(acc + len(word))
            assert engine.T.value(word, acc).agrees_with(direct, acc)


def test_T_valuation_counts_vanishing_partial_sums(engine, alphabet):
    for word in (w for w in alphabet.words_up_to(4) if w):
        poles = sum(1 for s in partial_sums(alphabet, word) if not s)
        value = engine.T.value(word, 0)
        assert value.min_degree == -poles


def test_T_widening_is_consistent(engine, alphabet):
    word = alphabet.word_of("i", "-i", "0")
    shallow = engine.T.value(word, 0)
    deep = engine.T.value(word, 4)
    assert deep.agrees_with(shallow, 0)
    assert deep.acc_order >= 4


def test_T_is_symmetral_on_real_alphabet():
    alphabet = Alphabet.parse("1,-1")
    t = make_T(alphabet)
    assert is_symmetral_up_to(t, 4, acc=1).ok


# -- the decomposition ----------------------------------------------------------


def test_decompose_single_resonant_letter(engine, alphabet):
    u_minus, u_plus = engine.decompose(alphabet.word_of("0"))
    assert u_minus == Laurent.monomial(-1, -1)
    assert u_plus.agrees_with(Laurent.zero(), 0)


def test_decompose_single_nonresonant_letter(engine, alphabet):
    word = alphabet.word_of("i")
    u_minus, u_plus = engine.decompose(word, acc=2)
    assert u_minus.is_exact_zero
    assert u_plus.agrees_with(engine.T.value(word, 2), 2)


def test_decompose_cancelling_pair(engine, alphabet):
    lam = I
    u_minus, _ = engine.decompose(alphabet.word_of("i", "-i"))
    assert u_minus == Laurent.monomial(-1 / (2 * lam), -1)


def test_empty_word_values(engine):
    u_minus, u_plus = engine.decompose(EMPTY_WORD)
    assert u_minus == Laurent.one()
    assert u_plus == Laurent.one()
    assert engine.coeff_R(EMPTY_WORD) == ZERO
    assert engine.coeff_S(EMPTY_WORD) == ONE
    assert engine.coeff_N(EMPTY_WORD) == ZERO


def test_scalar_moulds_on_small_words(engine, alphabet):
    zero_word = alphabet.word_of("0")
    assert engine.coeff_R(zero_word) == ONE
    assert engine.coeff_N(zero_word) == ONE
    assert engine.coeff_S(zero_word) == ZERO
    lam = I
    assert engine.coeff_S(alphabet.word_of("i")) == 1 / lam
    assert engine.coeff_N(alphabet.word_of("i", "-i")) == 1 / (2 * lam)
    two = GaussianRational(0, 2)
    assert engine.coeff_S(alphabet.word_of("2i")) == 1 / two


def test_S_on_fully_nonresonant_word_is_the_inverse_partial_sum_product(engine, alphabet):
    # no vanishing partial sums anywhere along these words
    for word in (
        alphabet.word_of("i", "i", "2i"),
        alphabet.word_of("2i", "2i"),
        alphabet.word_of("-i", "-i", "-i"),
        alphabet.word_of("i", "2i", "-i"),
    ):
        expected = ONE
        for s in partial_sums(alphabet, word):
            assert s
            expected = expected * s.reciprocal()
        assert engine.coeff_S(word) == expected


def test_N_is_R_over_length(engine, alphabet):
    for word in (w for w in alphabet.words_up_to(4) if w):
        r = engine.coeff_R(word)
        n = engine.coeff_N(word)
        assert r == GaussianRational(len(word)) * n


def test_u_plus_widening_is_consistent(engine, alphabet):
    word = alphabet.word_of("i", "-i")
    first = engine.decompose(word, acc=0)[1]
    second = engine.decompose(word, acc=3)[1]
    assert second.agrees_with(first, 0)
    assert second.acc_order >= 3


# -- identity suites ------------------------------------------------------------


def test_mould_equation_holds():
    engine = BirkhoffEngine(Alphabet.parse("1,-1,0"))
    reports = verify_mould_equation(engine, 4)
    assert all(report.ok for report in reports)
    assert reports[0].words_checked == 1 + 3 + 9 + 27 + 81


def test_factorization_holds(engine):
    report = verify_factorization(engine, 4)
    assert report.ok


def test_support_property(engine):
    report = verify_support(engine, 4)
    assert report.ok
    assert report.words_checked > 0


def test_grading_identities(engine):
    report = verify_grading_identities(engine, 4)
    assert report.ok


def test_conjugation_symmetry():
    alphabet = Alphabet.parse("i,-i,2i,-2i,0")
    engine = BirkhoffEngine(alphabet)
    report = verify_conjugation_symmetry(engine, 3)
    assert report.ok


def test_conjugation_symmetry_requires_closure(engine):
    with pytest.raises(ValueError, match="closed under negation"):
        verify_conjugation_symmetry(engine, 2)
    with pytest.raises(ValueError, match="purely imaginary"):
        verify_conjugation_symmetry(BirkhoffEngine(Alphabet.parse("1,-1,0")), 2)


def test_symmetrality_and_alternality(engine):
    assert is_symmetral_up_to(engine.u_minus, 4).ok
    assert is_symmetral_up_to(engine.u_plus, 4).ok
    assert is_symmetral_up_to(engine.S, 4).ok
    assert is_alternal_up_to(engine.R, 4).ok


def test_antipode_equals_recursive_inverse_for_S(engine, alphabet):
    tilde = mould_antipode(engine.S)
    recursive = mould_inverse(engine.S)
    for word in alphabet.words_up_to(4):
        assert tilde.value(word, 0) == recursive.value(word, 0)


def test_inverse_of_T_matches_antipode(engine, alphabet):
    # on a two-letter word the signed reversal has an even sign
    word = alphabet.word_of("i", "2i")
    recursive = mould_inverse(engine.T)
    assert recursive.value(word, 1).agrees_with(
        engine.T.value(word[::-1], 1), 1
    )


def test_nabla_Phi_turns_T_into_T_times_letters(engine, alphabet):
    ones = Mould.constant_from(alphabet, lambda w: ONE if len(w) == 1 else ZERO)
    lhs = nabla(engine.T)
    rhs = mould_product(engine.T, ones)
    for word in alphabet.words_up_to(3):
        assert lhs.value(word, 1).agrees_with(rhs.value(word, 1), 1)


def test_corruption_is_detected():
    alphabet = Alphabet.parse("1,-1,0")
    bad_word = alphabet.word_of("0")
    engine = CorruptedEngine(alphabet, bad_word)
    s_equation, r_equation, s_symmetral = verify_mould_equation(engine, 2)
    assert not (s_equation.ok and r_equation.ok and s_symmetral.ok)
    violating_words = {v.word for v in s_equation.violations}
    assert bad_word in violating_words


@pytest.mark.parametrize("make", [BirkhoffEngine, lambda a: CorruptedEngine(a, a.word_of(a.letters[0]))])
@pytest.mark.parametrize("use", ["coeff_N", "S", "scalar", "build_normal_form"])
def test_an_engine_is_freed_by_reference_counting(make, use):
    """An engine holds no reference cycle: with the cyclic collector off, a
    weak reference to it, and one to each of its T, S and R moulds, die as soon as its last
    name is deleted, after reading N, after evaluating the S mould, after
    reading S and R through their scalar readers, and after the word walk
    of ``build_normal_form``."""
    sd = spectral_decompose(random_problem(3, 4, seed=3))
    alphabet = sd.alphabet
    word = alphabet.word_of(alphabet.letters[0], alphabet.letters[-1])
    enabled = gc.isenabled()
    gc.disable()
    try:
        engine = make(alphabet)
        if use == "coeff_N":
            engine.coeff_N(word)
        elif use == "S":
            engine.S.value(word)
        elif use == "scalar":
            engine.S.scalar(word)
            engine.R.scalar(word)
        else:
            build_normal_form(sd, engine)
        refs = [weakref.ref(m) for m in (engine, engine.T, engine.S, engine.R)]
        del engine
        assert [ref() for ref in refs] == [None] * 4
    finally:
        if enabled:
            gc.enable()


def editing_pair(edit):
    """An engine factory: (U_minus, U_plus) on one word read back as
    edit(U_minus, U_plus), and every longer word is built from that value."""

    def make(alphabet, word):
        engine = BirkhoffEngine(alphabet)
        honest = engine._pair

        def pair(w, acc):
            value = honest(w, acc)
            return edit(*value) if w == word else value

        engine._pair = pair
        return engine

    return make


def editing_R(alphabet, word):
    """An engine whose coeff_R reads back one more on one word; its pair
    table, and so every mould built from it, stays honest."""
    engine = BirkhoffEngine(alphabet)
    honest = engine.coeff_R
    engine.coeff_R = lambda w: honest(w) + ONE if w == word else honest(w)
    return engine


@pytest.mark.parametrize(
    "suite, make_engine, letters, label",
    [
        (
            verify_factorization,
            editing_pair(lambda um, up: (um, up + Laurent.one())),
            ("i", "-i"),
            "U_minus x T = U_plus",
        ),
        (
            verify_factorization,
            editing_pair(lambda um, up: (um + Laurent.one(), up)),
            ("i", "-i"),
            "U_minus shape",
        ),
        (
            verify_factorization,
            editing_pair(lambda um, up: (um, up + Laurent.monomial(1, -1))),
            ("i", "-i"),
            "U_plus shape",
        ),
        (
            verify_support,
            editing_pair(lambda um, up: (um + Laurent.monomial(1, -2), up)),
            ("i",),
            "U_minus off resonance",
        ),
        (verify_support, CorruptedEngine, ("i",), "R off resonance"),
        (
            verify_grading_identities,
            editing_pair(lambda um, up: (um + Laurent.one(), up)),
            ("0",),
            "(iii) shape",
        ),
        (
            lambda engine, length: verify_mould_equation(engine, length)[1],
            CorruptedEngine,
            ("i",),
            "nabla_phi R",
        ),
        (verify_conjugation_symmetry, CorruptedEngine, ("i",), "R conjugation symmetry"),
        (verify_factorization, CorruptedEngine, ("i", "-i"), "U_minus x T = U_plus"),
        (verify_support, CorruptedEngine, ("i",), "U_minus off resonance"),
        (verify_grading_identities, editing_R, ("0",), "(iii) R from U_minus at infinity"),
        (
            lambda engine, length: verify_mould_equation(engine, length)[0],
            editing_R,
            ("0",),
            "nabla_phi S - (S x I - R x S)",
        ),
        (lambda engine, length: verify_mould_equation(engine, length)[1], editing_R, ("i",), "nabla_phi R"),
        (
            verify_grading_identities,
            editing_pair(lambda um, up: (um, up + Laurent.one())),
            ("i",),
            "(ii) nabla_Phi U_plus = U_plus x I - R x U_plus",
        ),
        (
            verify_grading_identities,
            editing_pair(lambda um, up: (um + Laurent.monomial(1, -1), up)),
            ("0",),
            "(i) nabla_Phi U_minus = -R x U_minus",
        ),
        # (i) and (ii) read R through engine.R, which calls coeff_R when evaluated
        *(
            (verify_grading_identities, editing_R, letters, label)
            for letters in (("0",), ("i",), ("i", "-i"))
            for label in (
                "(i) nabla_Phi U_minus = -R x U_minus",
                "(ii) nabla_Phi U_plus = U_plus x I - R x U_plus",
            )
        ),
    ],
)
def test_each_identity_records_a_wrong_value(suite, make_engine, letters, label):
    alphabet = Alphabet.parse("i,-i,2i,-2i,0")
    report = suite(make_engine(alphabet, alphabet.word_of(*letters)), 2)
    assert report.ok is False
    assert label in {v.label for v in report.violations}
