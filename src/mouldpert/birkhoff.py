"""Birkhoff decomposition of the regularized denominator mould.

For an alphabet of eigenvalue letters, the mould

    T^(n1..nr)(e) = 1 / prod_j (s_j + j e),   s_j = n1 + ... + nj,

replaces each possibly-vanishing denominator s_j by s_j + j e, which is
invertible in C((e)) even at resonances.  Factoring T uniquely as
U_minus x T = U_plus with U_minus carrying only poles and U_plus pole
free yields the exact scalar moulds

    S^w = constant term of U_plus^w,
    N^w = -residue(U_minus^w),
    R^w = len(w) * N^w,

which solve the normalization problem downstream: R/N weight nested
commutators of the perturbation's eigencomponents, S weights their
ordered products.  ``BirkhoffEngine`` is these six moulds and no other
reader: T, U_minus and U_plus (Laurent-valued) and N, R and S (e-free),
each memoized per word.

The recurrence is exact: U_minus values are finite polynomials in e^-1,
so residues never lose accuracy; U_plus values are guaranteed through
the accuracy requested (degree 0 suffices for the scalar moulds, and the
engine widens T requests by the polar depth of the U_minus factor in
each product term).  The sum over the splittings w = a.b of
U_minus^a T^b is formed in one coefficient table
(``Laurent.sum_of_products``), and T^w is its prefix divided by the
linear s + r e, so no factor inverse is formed.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from .laurent import Laurent
from .moulds import (
    Alphabet,
    Mould,
    Word,
    is_symmetral_up_to,
    mould_product,
    nabla,
)
from .scalars import GaussianRational, ZERO

__all__ = [
    "make_T",
    "BirkhoffEngine",
    "CorruptedEngine",
    "SuiteReport",
    "IdentityViolation",
    "verify_mould_equation",
    "verify_factorization",
    "verify_support",
    "verify_grading_identities",
    "verify_conjugation_symmetry",
]


def make_T(alphabet: Alphabet) -> Mould:
    """The Laurent-valued mould 1/prod_j(s_j + j e), evaluated lazily.

    Evaluation divides the memoized value of the length-(r-1) prefix by
    s + r e, with s the partial sum (``Laurent.over_linear``).  When s
    vanishes the divisor's inverse is the exact (1/r) e^-1, a scale and a
    shift, and the prefix is requested one degree deeper.  Otherwise the
    quotient runs the recurrence q_k = (p_k - r q_{k-1}) / s through
    min(acc(prefix), need + mindeg(prefix)), need = acc plus the prefix's
    polar depth, so it is guaranteed through the requested accuracy; no
    factor of the product is formed or cached.  The valuation of T^w is
    minus the number of vanishing partial sums.  ``fn`` reads its own mould
    through a weak reference, so the mould is freed by reference counting.
    """

    def fn(word: Word, acc: int) -> Laurent:
        if len(word) == 0:
            return Laurent.one()
        s = alphabet.phi(word)
        prefix = mould_ref().value(word[:-1], acc if s else acc + 1)
        need = acc + max(0, -prefix.min_degree_bound())
        return prefix.over_linear(s, len(word), need)

    mould = Mould(alphabet, fn)
    mould_ref = weakref.ref(mould)
    return mould


class BirkhoffEngine:
    """Per-alphabet factorization engine: six moulds, each value read once.

    ``T``, ``u_minus`` and ``u_plus`` are Laurent-valued moulds; ``N``,
    ``R`` and ``S`` are moulds of e-free values (``Mould.constant_from``),
    read through their ``scalar`` memo.  U_minus and U_plus come from one
    pair table (``_pair``); N is ``coeff_N`` on it, R is len(w) times N's
    memo, and S is the constant term of U_plus.  Caches are tied to the
    alphabet; a different alphabet (different eigenvalues or a rescaled
    hbar) needs a fresh engine.  The moulds reach the engine through a
    weak proxy, so an engine holds no reference cycle and is freed as
    soon as its last reference goes.
    """

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.T = make_T(alphabet)
        self._pairs: dict = {}
        engine = weakref.proxy(self)
        self.u_minus = Mould(alphabet, lambda w, acc: engine._pair(w, 0)[0])
        self.u_plus = Mould(alphabet, lambda w, acc: engine._pair(w, acc)[1])
        self.N = Mould.constant_from(alphabet, lambda w: engine.coeff_N(w))
        n = self.N.scalar
        self.R = Mould.constant_from(alphabet, lambda w: GaussianRational(len(w)) * n(w))
        self.S = Mould.constant_from(alphabet, lambda w: engine._pair(w, 0)[1].constant_term())

    def _pair(self, word: Word, acc: int) -> tuple:
        """(U_minus^word, U_plus^word), the latter guaranteed through acc."""
        cached = self._pairs.get(word)
        if cached is not None:
            up_acc = cached[1].acc_order
            if up_acc is None or up_acc >= acc:
                return cached
        if len(word) == 0:
            pair = (Laurent.one(), Laurent.one())
        else:
            terms = []
            for j in range(len(word)):
                u_minus_prefix = self._pair(word[:j], 0)[0]
                if u_minus_prefix.is_exact_zero:
                    continue
                depth = max(0, -u_minus_prefix.min_degree_bound())
                terms.append((u_minus_prefix, self.T.value(word[j:], acc + depth)))
            total = Laurent.sum_of_products(terms)
            pair = (-total.polar_part(), total.regular_part())
        self._pairs[word] = pair
        return pair

    def coeff_N(self, word: Word) -> GaussianRational:
        """N^word = -residue(U_minus^word); read it through ``N``."""
        if len(word) == 0:
            return ZERO
        n = -self._pair(word, 0)[0].residue()
        return n if n else ZERO  # N's memo shares one zero across nonresonant words


class CorruptedEngine(BirkhoffEngine):
    """An engine whose pair table reads back deliberately wrong on one
    word, for sensitivity testing of the suites.

    On the corrupted word ``_pair`` returns (U_minus - e^-1, U_plus + 1):
    S is off by one there and, on a nonempty word, N by one and R by len(word).
    Every longer word is built from the wrong value, because the
    recursion reads its prefixes through ``self._pair``; so the
    factorization, support, mould-equation and grading suites all see the
    fault.  Only the value half of grading identity (iii) cannot: it
    compares R with the residue R is computed from.
    """

    def __init__(self, alphabet: Alphabet, corrupted: Word):
        self.corrupted = corrupted
        super().__init__(alphabet)

    def _pair(self, word: Word, acc: int) -> tuple:
        u_minus, u_plus = super()._pair(word, acc)
        if word != self.corrupted:
            return u_minus, u_plus
        return u_minus - Laurent.monomial(1, -1), u_plus + Laurent.one()


# -- verification suites ------------------------------------------------------


@dataclass
class IdentityViolation:
    word: Word
    label: str
    lhs: str
    rhs: str


@dataclass
class SuiteReport:
    """Words checked by one identity suite and the violations it found;
    the suite's name is its key in the ``verify`` JSON."""

    words_checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, word: Word, label: str, lhs, rhs) -> None:
        self.violations.append(IdentityViolation(word, label, str(lhs), str(rhs)))


def verify_mould_equation(engine: BirkhoffEngine, max_length: int) -> tuple:
    """Residuals of nabla_phi S = S x I - R x S and nabla_phi R = 0.

    S and R are read from their memos (``S.scalar``, ``R.scalar``).
    A product by the letters mould I is a read of the shorter word:
    (S x I)^w is S on w without its last letter, and 0 on the empty word.
    (R x S)^w is the sum over j >= 1 of R^(w[:j]) S^(w[j:]), as R vanishes
    on the empty word.  Both identities must hold with exactly zero
    residual on every word of length <= max_length; S must additionally
    pass the symmetrality check, which reads the same memo and compares
    Gaussian rationals.  Returns the three reports (S equation, R
    equation, S symmetrality).
    """
    alphabet, r, s = engine.alphabet, engine.R.scalar, engine.S.scalar
    s_report = SuiteReport()
    r_report = SuiteReport()
    for word in alphabet.words_up_to(max_length):
        phi = alphabet.phi(word)
        s_report.words_checked += 1
        lhs = phi * s(word)
        rhs = s(word[:-1]) if word else ZERO
        for j in range(1, len(word) + 1):
            rhs = rhs - r(word[:j]) * s(word[j:])
        if lhs != rhs:
            s_report.record(word, "nabla_phi S - (S x I - R x S)", lhs - rhs, ZERO)
        r_report.words_checked += 1
        r_residual = phi * r(word)
        if r_residual:
            r_report.record(word, "nabla_phi R", r_residual, ZERO)
    return s_report, r_report, is_symmetral_up_to(engine.S, max_length)


def verify_factorization(engine: BirkhoffEngine, max_length: int) -> SuiteReport:
    """U_minus x T agrees with U_plus through degree 0 on every word of
    length <= max_length, and the parts have the right shape: U_minus
    purely polar with valuation >= -len(w), U_plus pole free."""
    report = SuiteReport()
    product = mould_product(engine.u_minus, engine.T)
    for word in engine.alphabet.words_up_to(max_length):
        report.words_checked += 1
        u_minus, u_plus = engine.u_minus.value(word), engine.u_plus.value(word)
        if not product.value(word).agrees_with(u_plus, 0):
            report.record(word, "U_minus x T = U_plus", product.value(word).render(), u_plus.render())
        if len(word) > 0:
            if not u_minus.is_exact_zero and (
                u_minus.max_degree >= 0 or u_minus.min_degree < -len(word)
            ):
                report.record(word, "U_minus shape", u_minus.render(), "polar, valuation >= -r")
            if not u_plus.is_exact_zero and u_plus.min_degree is not None and u_plus.min_degree < 0:
                report.record(word, "U_plus shape", u_plus.render(), "pole free")
    return report


def verify_support(engine: BirkhoffEngine, max_length: int) -> SuiteReport:
    """Off resonance (letter sum nonzero) U_minus and R must vanish."""
    report = SuiteReport()
    for word in engine.alphabet.words_up_to(max_length):
        if not engine.alphabet.phi(word):
            continue
        report.words_checked += 1
        u_minus = engine.u_minus.value(word)
        if not u_minus.is_exact_zero:
            report.record(word, "U_minus off resonance", u_minus.render(), "0")
        r_value = engine.R.scalar(word)
        if r_value:
            report.record(word, "R off resonance", r_value, ZERO)
    return report


def verify_grading_identities(engine: BirkhoffEngine, max_length: int) -> SuiteReport:
    """The three exact identities tying the grading operator to R, on every
    word of length <= max_length:

    (i)   nabla_Phi U_minus = -R x U_minus          (exact polynomials)
    (ii)  nabla_Phi U_plus  = U_plus x I - R x U_plus   (through degree 0)
    (iii) R^w = -(e * len(w) * U_minus^w) evaluated at e = infinity.

    A product by the letters mould I is a read of the shorter word:
    (U_plus x I)^w is U_plus on w without its last letter, and 0 on the
    empty word.  R x U_minus and R x U_plus read the mould ``engine.R``
    through its scalar reader: each value is one sum of U values weighted
    by the nonzero R on the prefixes.

    The value half of (iii) compares R with -len(w) * residue(U_minus^w),
    which is how ``R`` is computed from N's memo on the same pair table,
    so it holds by construction on any pair table; only its shape half can
    fire on a fault in ``_pair``, and its value half only on an edited
    ``R``.
    """
    alphabet, r = engine.alphabet, engine.R.scalar
    report = SuiteReport()
    lhs_minus = nabla(engine.u_minus)
    rhs_minus = mould_product(engine.R, engine.u_minus)
    lhs_plus = nabla(engine.u_plus)
    rhs_plus = mould_product(engine.R, engine.u_plus)
    for word in alphabet.words_up_to(max_length):
        report.words_checked += 1
        left = lhs_minus.value(word)
        right = -rhs_minus.value(word)
        if not (left.acc_order is None and right.acc_order is None and left == right):
            report.record(word, "(i) nabla_Phi U_minus = -R x U_minus", left.render(), right.render())
        left2 = lhs_plus.value(word)
        shorter = engine.u_plus.value(word[:-1]) if word else Laurent.zero()
        right2 = shorter - rhs_plus.value(word)
        if not left2.agrees_with(right2, 0):
            report.record(word, "(ii) nabla_Phi U_plus = U_plus x I - R x U_plus", left2.render(), right2.render())
        if len(word) > 0:
            scaled = engine.u_minus.value(word).scale(GaussianRational(len(word))).shift(1)
            if scaled.max_degree is not None and scaled.max_degree > 0:
                report.record(word, "(iii) shape", scaled.render(), "degrees <= 0")
            at_infinity = scaled.constant_term()
            if -at_infinity != r(word):
                report.record(word, "(iii) R from U_minus at infinity", -at_infinity, r(word))
    return report


def verify_conjugation_symmetry(engine: BirkhoffEngine, max_length: int) -> SuiteReport:
    """For purely imaginary alphabets closed under negation, the scalar
    moulds on the letterwise-negated word are the complex conjugates."""
    alphabet = engine.alphabet
    if not alphabet.closed_under_negation:
        raise ValueError("conjugation symmetry needs an alphabet closed under negation")
    if not alphabet.purely_imaginary:
        raise ValueError("conjugation symmetry needs a purely imaginary alphabet")
    report = SuiteReport()
    readers = (("R", engine.R.scalar), ("S", engine.S.scalar), ("N", engine.N.scalar))
    for word in alphabet.words_up_to(max_length):
        report.words_checked += 1
        negated = alphabet.negate_word(word)
        for label, reader in readers:
            direct = reader(negated)
            mirrored = reader(word).conjugate()
            if direct != mirrored:
                report.record(word, f"{label} conjugation symmetry", direct, mirrored)
    return report
