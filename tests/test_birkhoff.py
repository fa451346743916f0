"""The factorization recurrence and the scalar moulds it extracts."""

import contextlib
import gc
import io
import weakref
from collections import Counter

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
from mouldpert.cli import main
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
    HeldMould,
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
    return BirkhoffEngine(alphabet, max_length=4, acc=2)


def source_u_plus(engine):
    """The source's U_plus as a Laurent-valued mould: each value is the
    window of ``engine.regular``, guaranteed through its top degree."""

    def read(word, acc):
        window = engine.regular(word)[0]
        return Laurent(0, window, len(window) - 1)

    return HeldMould(engine.alphabet, read)


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
    word = alphabet.word_of("0")
    assert engine.u_minus.value(word) == Laurent.monomial(-1, -1)
    assert engine.regular(word)[0][0] == ZERO


def test_decompose_single_nonresonant_letter(engine, alphabet):
    word = alphabet.word_of("i")
    u_plus = source_u_plus(engine).value(word)
    assert engine.u_minus.value(word).is_exact_zero
    assert u_plus.agrees_with(engine.T.value(word, 2), 2)


def test_decompose_cancelling_pair(engine, alphabet):
    lam = I
    u_minus = engine.u_minus.value(alphabet.word_of("i", "-i"))
    assert u_minus == Laurent.monomial(-1 / (2 * lam), -1)


def test_empty_word_values(engine):
    assert engine.u_minus.value(EMPTY_WORD) == Laurent.one()
    assert engine.pair_u_plus.value(EMPTY_WORD) == Laurent.one()
    assert engine.regular(EMPTY_WORD) == ((ONE,) + (ZERO,) * (2 + 4), ZERO)
    assert engine.R.scalar(EMPTY_WORD) == ZERO
    assert engine.S.scalar(EMPTY_WORD) == ONE
    assert engine.N.scalar(EMPTY_WORD) == ZERO


def test_scalar_moulds_on_small_words(engine, alphabet):
    zero_word = alphabet.word_of("0")
    assert engine.R.scalar(zero_word) == ONE
    assert engine.N.scalar(zero_word) == ONE
    assert engine.S.scalar(zero_word) == ZERO
    lam = I
    assert engine.S.scalar(alphabet.word_of("i")) == 1 / lam
    assert engine.N.scalar(alphabet.word_of("i", "-i")) == 1 / (2 * lam)
    two = GaussianRational(0, 2)
    assert engine.S.scalar(alphabet.word_of("2i")) == 1 / two


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
        assert engine.S.scalar(word) == expected


def test_N_is_R_over_length(engine, alphabet):
    for word in (w for w in alphabet.words_up_to(4) if w):
        r = engine.R.scalar(word)
        n = engine.N.scalar(word)
        assert n == -engine.u_minus.value(word).residue()
        assert r == GaussianRational(len(word)) * n


def test_u_plus_widening_is_consistent(engine, alphabet):
    # the Birkhoff pair's U_plus is widened on request
    word = alphabet.word_of("i", "-i")
    first = engine.pair_u_plus.value(word, 0)
    second = engine.pair_u_plus.value(word, 3)
    assert second.agrees_with(first, 0)
    assert second.acc_order >= 3


def test_regular_u_plus_is_held_on_a_window_fixed_by_word_length(engine, alphabet):
    """The source holds U_plus^w on degrees 0..A + L - len(w); a word past
    L raises."""
    for word in alphabet.words_up_to(4):
        assert len(engine.regular(word)[0]) == 2 + 4 - len(word) + 1
    too_long = alphabet.word_of("i", "-i", "0", "2i", "i")
    for read in (
        engine.N.scalar,
        engine.R.scalar,
        engine.S.scalar,
        engine.regular,
        engine.coeff_N,
        engine.counterterm,
        engine.t_window,
    ):
        with pytest.raises(ValueError, match="past the 4 this engine holds"):
            read(too_long)
    # the Birkhoff pair, the check, takes no bound
    assert engine.pair_S.scalar(too_long) is not None


@pytest.mark.parametrize(
    "letters, length",
    [
        ("i,-i,0", 4),
        ("i,-i,1,-1,0", 4),
        ("i,-i,2i,0", 5),
        ("i,-i,2i,-2i,3i,-3i,0", 3),
        ("1/3,-1/3,2/7i,-2/7i,0", 4),
    ],
)
def test_the_regular_recursion_equals_the_birkhoff_pair(letters, length):
    """The source's R, S and N equal the pair's on every word, and its
    U_plus equals the pair's through degree A, at A = 0, 2 and 4: 3448
    words over the five alphabets."""
    alphabet = Alphabet.parse(letters)
    for acc in (0, 2, 4):
        engine = BirkhoffEngine(alphabet, max_length=length, acc=acc)
        u_plus = source_u_plus(engine)
        for word in alphabet.words_up_to(length):
            pair_n = -engine.u_minus.value(word).residue()
            assert engine.N.scalar(word) == pair_n
            assert engine.R.scalar(word) == engine.pair_R.scalar(word) == GaussianRational(len(word)) * pair_n
            assert engine.S.scalar(word) == engine.pair_S.scalar(word)
            assert u_plus.value(word).agrees_with(engine.pair_u_plus.value(word, acc), acc)


@pytest.mark.parametrize(
    "letters, length",
    [
        ("i,-i,0", 4),
        ("i,-i,1,-1,0", 4),
        ("i,-i,2i,0", 5),
        ("i,-i,2i,-2i,3i,-3i,0", 3),
        ("1/3,-1/3,2/7i,-2/7i,0", 4),
        ("0", 8),
    ],
)
def test_the_source_u_minus_and_t_windows_equal_the_check_route(letters, length):
    """The source's U_minus, read from R alone, equals the Birkhoff pair's
    on every word; its T, held on degrees -z(w)..A + L - len(w), agrees
    with the check route's ``T`` through A, at A = 0, 2 and 3."""
    alphabet = Alphabet.parse(letters)
    for acc in (0, 2, 3):
        engine = BirkhoffEngine(alphabet, max_length=length, acc=acc)
        for word in alphabet.words_up_to(length):
            if acc == 0:
                assert Laurent(*engine.counterterm(word)) == engine.u_minus.value(word)
            low, window = engine.t_window(word)
            top = acc + length - len(word)
            assert len(window) == top - low + 1
            held = Laurent(low, window, top)
            check = engine.T.value(word, acc)
            assert held.min_degree == check.min_degree == low
            assert held.agrees_with(check, acc)


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
    engine = BirkhoffEngine(alphabet, max_length=3)
    report = verify_conjugation_symmetry(engine, 3)
    assert report.ok


def test_conjugation_symmetry_requires_closure(engine):
    with pytest.raises(ValueError, match="closed under negation"):
        verify_conjugation_symmetry(engine, 2)
    with pytest.raises(ValueError, match="purely imaginary"):
        verify_conjugation_symmetry(BirkhoffEngine(Alphabet.parse("1,-1,0")), 2)


def test_symmetrality_and_alternality(engine):
    assert is_symmetral_up_to(engine.u_minus, 4).ok
    for u_plus, s, r in ((source_u_plus(engine), engine.S, engine.R), (engine.pair_u_plus, engine.pair_S, engine.pair_R)):
        assert is_symmetral_up_to(u_plus, 4).ok
        assert is_symmetral_up_to(s, 4).ok
        assert is_alternal_up_to(r, 4).ok


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


@pytest.mark.parametrize(
    "make", [lambda a: BirkhoffEngine(a, 4), lambda a: CorruptedEngine(a, a.word_of(a.letters[0]), 4)]
)
@pytest.mark.parametrize("use", ["coeff_N", "S", "scalar", "build_normal_form"])
def test_an_engine_is_freed_by_reference_counting(make, use):
    """An engine holds no reference cycle: with the cyclic collector off, a
    weak reference to it, and one to each of its T, N, S and R moulds, die as soon as its last
    name is deleted, after reading N, after evaluating the S mould, after
    reading N, S and R through their scalar readers, and after the word walk
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
            engine.N.scalar(word)
            engine.S.scalar(word)
            engine.R.scalar(word)
        else:
            build_normal_form(sd, engine)
        refs = [weakref.ref(m) for m in (engine, engine.T, engine.N, engine.S, engine.R)]
        del engine
        assert [ref() for ref in refs] == [None] * 5
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "argv, read, words",
    [
        # the suites read the source's R (so N) and the pair's S and R;
        # S of the source only in conjugation symmetry, which this alphabet
        # skips.  R vanishes on the empty word, and no suite reads it there
        (["verify", "--alphabet", "i,-i,2i,0", "-L", "4"], [True, True, False, True, True], 4 + 16 + 64 + 256),
        # the table prints the source's N, R and S, and its U_plus window
        # straight from the record
        (
            ["moulds", "--alphabet", "i,-i,2i,0", "-L", "4", "--acc", "2"],
            [True, True, True, False, False],
            1 + 4 + 16 + 64 + 256,
        ),
    ],
    ids=["verify", "moulds"],
)
def test_each_scalar_value_is_computed_once_per_word(monkeypatch, argv, read, words):
    """One ``verify`` run calls ``coeff_N`` on every nonempty word and one
    ``moulds`` run on every word, and the function behind each e-free
    mould (the source's N, R and S, the Birkhoff pair's S and R) at most
    once per word: every reader goes through the moulds' memos.  Both
    compute the source's record (``regular``) once on every word, as
    ``factorization`` and the table's U_plus read it there."""
    per_mould = []
    honest_constant_from = Mould.constant_from.__func__

    def counting_constant_from(cls, alphabet, scalar_fn):
        calls = Counter()
        per_mould.append(calls)
        return honest_constant_from(cls, alphabet, lambda w: calls.update([w]) or scalar_fn(w))

    n_calls, records = Counter(), Counter()
    honest_n, honest_regular = BirkhoffEngine.coeff_N, BirkhoffEngine.regular

    def counting_regular(self, w):
        if w not in self._regular_values:
            records.update([w])
        return honest_regular(self, w)

    monkeypatch.setattr(Mould, "constant_from", classmethod(counting_constant_from))
    monkeypatch.setattr(BirkhoffEngine, "coeff_N", lambda self, w: n_calls.update([w]) or honest_n(self, w))
    monkeypatch.setattr(BirkhoffEngine, "regular", counting_regular)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert len(per_mould) == 5
    assert [bool(calls) for calls in per_mould] == read
    assert len(n_calls) == words
    assert len(records) == 1 + 4 + 16 + 64 + 256
    for calls in (n_calls, records, *per_mould):
        assert max(calls.values(), default=0) <= 1


def editing_pair(edit):
    """An engine factory: the Birkhoff pair (U_minus, U_plus) on one word
    reads back as edit(U_minus, U_plus), and every longer word's pair is
    built from that value; the regular recursion stays honest."""

    def make(alphabet, word):
        engine = BirkhoffEngine(alphabet, 2)
        honest = engine._pair

        def pair(w, acc):
            value = honest(w, acc)
            return edit(*value) if w == word else value

        engine._pair = pair
        return engine

    return make


def editing_R(alphabet, word):
    """An engine whose regular recursion, the source, reads R back one
    more on one word, and builds every longer word from that value; its
    Birkhoff pair stays honest."""
    engine = BirkhoffEngine(alphabet, 2)
    honest = engine.regular

    def regular(w):
        u_plus, r = honest(w)
        return (u_plus, r + ONE) if w == word else (u_plus, r)

    engine.regular = regular
    return engine


def corrupted(alphabet, word):
    return CorruptedEngine(alphabet, word, 2)


# the pair's residue of U_minus one less, so the pair's R is len(word) more
editing_pair_R = editing_pair(lambda um, up: (um - Laurent.monomial(1, -1), up))


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
        (verify_support, corrupted, ("i",), "R off resonance"),
        (
            verify_grading_identities,
            editing_pair(lambda um, up: (um + Laurent.one(), up)),
            ("0",),
            "(iii) shape",
        ),
        (
            lambda engine, length: verify_mould_equation(engine, length)[1],
            corrupted,
            ("i",),
            "nabla_phi R",
        ),
        (verify_conjugation_symmetry, corrupted, ("i",), "R conjugation symmetry"),
        # both routes are edited on the word itself, so the two U_plus part on the longer words
        (verify_factorization, corrupted, ("i",), "U_minus x T = U_plus"),
        (verify_factorization, corrupted, ("0",), "U_minus x T = U_plus"),
        (verify_support, corrupted, ("i",), "U_minus off resonance"),
        # (iii) compares the source's R with the pair's residue: an edit of either fires it
        (verify_grading_identities, editing_R, ("0",), "(iii) R from U_minus at infinity"),
        (verify_grading_identities, editing_pair_R, ("0",), "(iii) R from U_minus at infinity"),
        (verify_grading_identities, editing_R, ("i",), "(iii) R from U_minus at infinity"),
        # the S and R equations read the pair's R
        (
            lambda engine, length: verify_mould_equation(engine, length)[0],
            editing_pair_R,
            ("0",),
            "nabla_phi S - (S x I - R x S)",
        ),
        (lambda engine, length: verify_mould_equation(engine, length)[1], editing_pair_R, ("i",), "nabla_phi R"),
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
        # (i) reads the source's R, (ii) the pair's
        *(
            (verify_grading_identities, make_engine, letters, label)
            for letters in (("0",), ("i",), ("i", "-i"))
            for make_engine, label in (
                (editing_R, "(i) nabla_Phi U_minus = -R x U_minus"),
                (editing_pair_R, "(ii) nabla_Phi U_plus = U_plus x I - R x U_plus"),
            )
        ),
    ],
)
def test_each_identity_records_a_wrong_value(suite, make_engine, letters, label):
    alphabet = Alphabet.parse("i,-i,2i,-2i,0")
    report = suite(make_engine(alphabet, alphabet.word_of(*letters)), 2)
    assert report.ok is False
    assert label in {v.label for v in report.violations}


def mould_algebra_grading_violations(engine, max_length):
    """The violations of grading identities (i) and (ii), formed from the
    mould algebra, nabla and mould_product of the engine's moulds, as
    (word, label, lhs, rhs)."""
    out = []
    minus = nabla(engine.u_minus), mould_product(engine.R, engine.u_minus)
    plus = nabla(engine.pair_u_plus), mould_product(engine.pair_R, engine.pair_u_plus)
    for word in engine.alphabet.words_up_to(max_length):
        left, right = minus[0].value(word), -minus[1].value(word)
        if not (left.acc_order is None and right.acc_order is None and left == right):
            out.append((word, "(i) nabla_Phi U_minus = -R x U_minus", left.render(), right.render()))
        shorter = engine.pair_u_plus.value(word[:-1]) if word else Laurent.zero()
        left, right = plus[0].value(word), shorter - plus[1].value(word)
        if not left.agrees_with(right, 0):
            out.append((word, "(ii) nabla_Phi U_plus = U_plus x I - R x U_plus", left.render(), right.render()))
    return out


@pytest.mark.parametrize("letters", [(), ("0",), ("i",), ("i", "-i"), ("2i", "0")])
@pytest.mark.parametrize(
    "make_engine",
    [corrupted, editing_R, editing_pair_R, editing_pair(lambda um, up: (um, up + Laurent.one()))],
    ids=["corrupted", "R", "pair_R", "pair_U_plus"],
)
def test_grading_identities_read_word_by_word_equal_the_mould_algebra(make_engine, letters):
    """The suite's word-by-word values of (i) and (ii) are those of
    nabla and mould_product, violation strings included."""
    alphabet = Alphabet.parse("i,-i,2i,-2i,0")
    word = alphabet.word_of(*letters)
    report = verify_grading_identities(make_engine(alphabet, word), 2)
    suite = [(v.word, v.label, v.lhs, v.rhs) for v in report.violations if not v.label.startswith("(iii)")]
    assert suite == mould_algebra_grading_violations(make_engine(alphabet, word), 2)
