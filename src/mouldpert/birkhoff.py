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
ordered products.

``BirkhoffEngine`` reaches these values by two independent routes.

The source of N, R, S and U_plus is the regular recursion.  Multiplying
the value of w by phi(w) + len(w) e is a derivation D of the mould
product with D T = T x I (I the letters mould) and D U_minus = -R x
U_minus, so for w = w'.lam of length r

    (phi(w) + r e) U_plus^w = Y^w - R^w,
    Y^w = U_plus^(w') - sum over w = a.b, a and b nonempty, of R^a U_plus^b.

At phi(w) = 0, R^w is the degree-0 coefficient of Y^w and U_plus^w is
the rest shifted down one degree over r; elsewhere R^w = 0 and U_plus^w
is Y^w / (phi(w) + r e).  The recursion has no poles: an engine built for
words up to length L and a printed accuracy A holds U_plus^w on the fixed
window of degrees 0..A + L - len(w) (``regular``), which is all that the
longer words read, and a word past L is refused.

The source also gives U_minus and T.  U_minus follows from R alone
(``counterterm``): grading identity (i), D U_minus = -R x U_minus, read as
a recursion, is the scattering formula of renormalization, where the
counterterm follows from the beta-function (A. Connes and D. Kreimer,
Comm. Math. Phys. 216 (2001), arXiv:hep-th/0003188).  T is held on the
fixed window of degrees -z(w)..A + L - len(w), z(w) the number of
vanishing partial sums (``t_window``).  All three hold tuples of Gaussian
rationals, build no ``Laurent`` and share no kernel with the check.
``moulds`` reads only the source.

The check is the paper's route, and only ``verify`` forms it: T, U_minus
and the pair's own U_plus (``_pair``), accuracy-tracked ``Laurent``
values.  The sum over the splittings w = a.b, a != w, of U_minus^a T^b is
formed in one coefficient table (``Laurent.sum_of_products``); U_minus^w
is minus its polar part and the pair's U_plus^w its regular part, so the
pair's U_plus is the regular part of U_minus x T.  T^w is its prefix
divided by the linear s + r e, so no factor inverse is formed; U_minus
values are finite polynomials in e^-1, so residues never lose accuracy,
and T requests are widened by the polar depth of the U_minus factor in
each product term.

The suites compare the routes: ``factorization`` holds the pair's U_plus
equal to the source's window through degree A, grading identities (i)
and (iii) tie the source's R to U_minus, and conjugation symmetry reads the source.  The
mould equations, S symmetrality, the support property and grading
identity (ii) read the pair's values, S = U_plus(0) and
R = -len(w) residue(U_minus).  No suite reads ``counterterm``: it solves
identity (i), so a suite that read it would hold (i) by construction.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from .laurent import Laurent
from .moulds import Alphabet, HeldMould, Mould, Word, is_symmetral_up_to
from .scalars import GaussianRational, ONE, ZERO

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
    """Per-alphabet factorization engine: the regular recursion is the
    source of N, R, S and U_plus, and the Birkhoff pair is the check.

    Built for words up to length ``max_length`` (L) and a printed
    accuracy ``acc`` (A).  The source's record ``regular`` holds, per
    word, U_plus on degrees 0..A + L - len(w) and R; a read of a word
    longer than L raises ValueError.  ``N`` is ``coeff_N``, R / len(w),
    ``R`` is len(w) times N's memo and ``S`` is U_plus's degree 0.  N, R
    and S are moulds of e-free values (``Mould.constant_from``), read
    through their ``scalar`` memo.  ``counterterm`` is U_minus from R, and
    ``t_window`` T on degrees -z(w)..A + L - len(w), each memoized per
    word as a tuple.  ``moulds`` reads these three records, N, R and S,
    and builds no Laurent value.

    The check route, which only ``verify`` reads, is ``T`` and the pair
    table ``_pair`` of the paper's decomposition U_minus x T = U_plus:
    ``u_minus`` and ``pair_u_plus`` read the pair, and the e-free
    ``pair_S`` and ``pair_R`` are the pair's U_plus(0) and -len(w)
    residue(U_minus).  The pair route needs no L; an engine built without
    one reads only T and the pair.  The Laurent moulds ``u_minus`` and
    ``pair_u_plus`` are views (``HeldMould``) of ``_pairs``, so each
    Laurent value is held once.  Caches are tied to the alphabet; a
    different alphabet (different eigenvalues or a rescaled hbar) needs a
    fresh engine.  The moulds reach the engine through a weak proxy, so an
    engine holds no reference cycle and is freed as soon as its last
    reference goes.
    """

    def __init__(self, alphabet: Alphabet, max_length: int = 0, acc: int = 0):
        self.alphabet = alphabet
        self.max_length = max_length
        self.acc = acc
        self.T = make_T(alphabet)
        self._pairs: dict = {}
        self._regular_values: dict = {}
        self._counterterms: dict = {}
        self._t_windows: dict = {}
        engine = weakref.proxy(self)
        self.N = Mould.constant_from(alphabet, lambda w: engine.coeff_N(w))
        n = self.N.scalar
        # verify checks N only through R, so R is read as len(w) N and not from the record
        self.R = Mould.constant_from(alphabet, lambda w: GaussianRational(len(w)) * n(w))
        self.S = Mould.constant_from(alphabet, lambda w: engine.regular(w)[0][0])
        self.u_minus = HeldMould(alphabet, lambda w, acc: engine._pair(w, 0)[0])
        self.pair_u_plus = HeldMould(alphabet, lambda w, acc: engine._pair(w, acc)[1])
        self.pair_S = Mould.constant_from(alphabet, lambda w: engine._pair(w, 0)[1].constant_term())
        self.pair_R = Mould.constant_from(
            alphabet, lambda w: GaussianRational(-len(w)) * engine._pair(w, 0)[0].residue()
        )

    def regular(self, word: Word) -> tuple:
        """(U_plus^word on degrees 0..A + L - len(word), R^word) by the
        regular recursion.  Shorter words are read through this method, so
        an edit of one word's value reaches every word built from it."""
        cached = self._regular_values.get(word)
        if cached is not None:
            return cached
        r = len(word)
        if r > self.max_length:
            raise ValueError(f"a word of length {r} is past the {self.max_length} this engine holds")
        top = self.acc + self.max_length - r
        if not r:
            value = ((ONE,) + (ZERO,) * top, ZERO)
        else:
            phi = self.alphabet.phi(word)
            # a resonant word reads Y one degree past its window: U_plus is Y shifted down
            width = top + 1 if phi else top + 2
            y = list(self.regular(word[:-1])[0][:width])
            for j in range(1, r):
                r_a = self.regular(word[:j])[1]
                if r_a:
                    minus_r_a = -r_a
                    u_b = self.regular(word[j:])[0]
                    for k in range(width):
                        if u_b[k]:
                            y[k] = y[k] + minus_r_a * u_b[k]
            if phi:
                inv_phi = phi.reciprocal()
                minus_r = GaussianRational(-r)
                u = [y[0] * inv_phi]
                for k in range(1, width):
                    u.append((y[k] + minus_r * u[k - 1]) * inv_phi)
                value = (tuple(u), ZERO)
            else:
                inv_r = GaussianRational.from_integers(1, 0, r)
                value = (tuple(c * inv_r for c in y[1:]), y[0])
        self._regular_values[word] = value
        return value

    def counterterm(self, word: Word) -> tuple:
        """(-len(word), U_minus^word on degrees -len(word)..0) from the
        source's R alone; the coefficients are () off resonance.

        Grading identity (i) read as a recursion, the counterterm from the
        beta-function R:

            (phi(w) + r e) U_minus^w = -sum over w = a.b, a nonempty, of R^a U_minus^b.

        With U_minus^w = sum of p_k e^-k and q_j the e^-j coefficient of
        the right side, r p_1 = q_0 and r p_(j+1) = q_j - phi(w) p_j.  Only
        splittings with phi(a) = 0 have R^a != 0, and then phi(b) =
        phi(w); so off resonance the right side vanishes with U_minus^b,
        and U_minus^w is exactly 0.  At phi(w) = 0, U_minus^w is the right
        side times e^-1 / r.  Only divisions by r occur: no pole, no
        window, and R^a is read from the source's ``R`` memo.
        """
        cached = self._counterterms.get(word)
        if cached is not None:
            return cached
        r = len(word)
        if r > self.max_length:
            raise ValueError(f"a word of length {r} is past the {self.max_length} this engine holds")
        if not r:
            value = (0, (ONE,))
        elif self.alphabet.phi(word):
            value = (-r, ())
        else:
            # q[k] is the degree k - (r - 1) coefficient of the sum of R^a U_minus^b
            q = [ZERO] * r
            for j in range(1, r + 1):
                r_a = self.R.scalar(word[:j])
                if r_a:
                    for k, c in enumerate(self.counterterm(word[j:])[1], j - 1):
                        if c:
                            q[k] = q[k] + r_a * c
            minus_inv_r = GaussianRational.from_integers(-1, 0, r)
            value = (-r, tuple(c * minus_inv_r for c in q) + (ZERO,))
        self._counterterms[word] = value
        return value

    def t_window(self, word: Word) -> tuple:
        """(v, T^word on degrees v..A + L - len(word)), v = -z(word) the
        valuation of T^word, z the number of vanishing partial sums.

        T^word is its prefix divided by s + r e, s = phi(word): at s = 0 a
        scale by 1/r and a shift down one degree, otherwise the recurrence
        q_k = (p_k - r q_(k-1)) / s from the valuation, which drops the
        prefix's top degree.  The prefix's window reaches one degree past
        the word's, as a resonant step needs.
        """
        cached = self._t_windows.get(word)
        if cached is not None:
            return cached
        r = len(word)
        if r > self.max_length:
            raise ValueError(f"a word of length {r} is past the {self.max_length} this engine holds")
        if not r:
            value = (0, (ONE,) + (ZERO,) * (self.acc + self.max_length))
        else:
            low, p = self.t_window(word[:-1])
            s = self.alphabet.phi(word)
            if s:
                inv_s = s.reciprocal()
                minus_r = GaussianRational(-r)
                q = [p[0] * inv_s]
                for k in range(1, len(p) - 1):
                    q.append((p[k] + minus_r * q[k - 1]) * inv_s)
                value = (low, tuple(q))
            else:
                inv_r = GaussianRational.from_integers(1, 0, r)
                value = (low - 1, tuple(c * inv_r for c in p))
        self._t_windows[word] = value
        return value

    def _pair(self, word: Word, acc: int) -> tuple:
        """(U_minus^word, U_plus^word) of the Birkhoff pair, the latter
        guaranteed through acc."""
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
        """N^word = R^word / len(word) of the source; read it through ``N``."""
        if len(word) == 0:
            return ZERO
        r = self.regular(word)[1]
        # N's memo shares one zero across nonresonant words
        return r * GaussianRational.from_integers(1, 0, len(word)) if r else ZERO


class CorruptedEngine(BirkhoffEngine):
    """An engine whose two routes both read back deliberately wrong on one
    word, for sensitivity testing of the suites.

    On the corrupted word ``_pair`` returns (U_minus - e^-1, U_plus + 1),
    so the pair's S is off by one there and, on a nonempty word, its R by
    len(word); ``regular`` returns U_plus + 1 and R + len(word), so the
    source's S and N are off by one and its R by len(word).  Every longer
    word is built from the wrong values, because both recursions read
    shorter words through these methods; so every suite sees the fault,
    the cross-route ones on the longer words.
    """

    def __init__(self, alphabet: Alphabet, corrupted: Word, max_length: int = 0, acc: int = 0):
        self.corrupted = corrupted
        super().__init__(alphabet, max_length, acc)

    def _pair(self, word: Word, acc: int) -> tuple:
        u_minus, u_plus = super()._pair(word, acc)
        if word != self.corrupted:
            return u_minus, u_plus
        return u_minus - Laurent.monomial(1, -1), u_plus + Laurent.one()

    def regular(self, word: Word) -> tuple:
        u_plus, r = super().regular(word)
        if word != self.corrupted:
            return u_plus, r
        return (u_plus[0] + ONE,) + u_plus[1:], r + GaussianRational(len(word))


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

    S and R are the Birkhoff pair's (``pair_S``, ``pair_R``), read off
    the pair table.  A product by the letters mould I is a read of the shorter word:
    (S x I)^w is S on w without its last letter, and 0 on the empty word.
    (R x S)^w is the sum over j >= 1 of R^(w[:j]) S^(w[j:]), as R vanishes
    on the empty word.  Both identities must hold with exactly zero
    residual on every word of length <= max_length; S must additionally
    pass the symmetrality check, which reads the same memo and compares
    Gaussian rationals.  Returns the three reports (S equation, R
    equation, S symmetrality).
    """
    alphabet, r, s = engine.alphabet, engine.pair_R.scalar, engine.pair_S.scalar
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
    return s_report, r_report, is_symmetral_up_to(engine.pair_S, max_length)


def verify_factorization(engine: BirkhoffEngine, max_length: int) -> SuiteReport:
    """The two routes to U_plus agree through degree A (``engine.acc``) on
    every word of length <= max_length: the Birkhoff pair's, the regular
    part of U_minus x T that ``_pair`` forms, and the regular
    recursion's window, coefficient by coefficient (a pole of the pair's
    is a disagreement); the window becomes a Laurent only to render a
    violation.  The pair's parts have the right shape: U_minus purely
    polar with valuation >= -len(w), U_plus pole free."""
    report = SuiteReport()
    acc = engine.acc
    for word in engine.alphabet.words_up_to(max_length):
        report.words_checked += 1
        u_minus, u_plus = engine.u_minus.value(word), engine.pair_u_plus.value(word, acc)
        held = engine.regular(word)[0]
        poles = u_plus.min_degree is not None and u_plus.min_degree < 0
        if poles or any(u_plus.coefficient(k) != held[k] for k in range(acc + 1)):
            report.record(word, "U_minus x T = U_plus", u_plus.render(), Laurent(0, held).render())
        if len(word) > 0:
            if not u_minus.is_exact_zero and (
                u_minus.max_degree >= 0 or u_minus.min_degree < -len(word)
            ):
                report.record(word, "U_minus shape", u_minus.render(), "polar, valuation >= -r")
            if poles:
                report.record(word, "U_plus shape", u_plus.render(), "pole free")
    return report


def verify_support(engine: BirkhoffEngine, max_length: int) -> SuiteReport:
    """Off resonance (letter sum nonzero) the pair's U_minus and R must
    vanish."""
    report = SuiteReport()
    for word in engine.alphabet.words_up_to(max_length):
        if not engine.alphabet.phi(word):
            continue
        report.words_checked += 1
        u_minus = engine.u_minus.value(word)
        if not u_minus.is_exact_zero:
            report.record(word, "U_minus off resonance", u_minus.render(), "0")
        r_value = engine.pair_R.scalar(word)
        if r_value:
            report.record(word, "R off resonance", r_value, ZERO)
    return report


def verify_grading_identities(engine: BirkhoffEngine, max_length: int) -> SuiteReport:
    """The three exact identities tying the grading operator to R, on every
    word of length <= max_length:

    (i)   nabla_Phi U_minus = -R x U_minus          (exact polynomials)
    (ii)  nabla_Phi U_plus  = U_plus x I - R x U_plus   (through degree 0)
    (iii) R^w = -(e * len(w) * U_minus^w) evaluated at e = infinity.

    (i) and (iii) tie the source's R (``engine.R``, the regular
    recursion) to the pair's U_minus, so they compare the two routes.
    (ii) reads the pair alone: its U_plus and its R (``pair_R``).
    Each word is checked on the engine's own values, read word by word
    through ``R.scalar``, ``pair_R.scalar``, ``u_minus.value`` and
    ``pair_u_plus.value``: nabla_Phi U^w is U^w times phi(w) + len(w) e,
    and (R x U)^w is one sum of the U^b weighted by the nonzero R^a over
    the splittings w = a.b with a nonempty, as R vanishes on the empty
    word.  A product by the letters mould I is a read of the shorter word:
    (U_plus x I)^w is U_plus on w without its last letter, and 0 on the
    empty word.
    """
    alphabet, r, pair_r = engine.alphabet, engine.R.scalar, engine.pair_R.scalar
    u_minus, u_plus = engine.u_minus.value, engine.pair_u_plus.value
    report = SuiteReport()
    for word in alphabet.words_up_to(max_length):
        report.words_checked += 1
        grade = Laurent.from_pairs([(0, alphabet.phi(word)), (1, len(word))])
        left = u_minus(word) * grade
        right = -_r_times(r, u_minus, word)
        if not (left.acc_order is None and right.acc_order is None and left == right):
            report.record(word, "(i) nabla_Phi U_minus = -R x U_minus", left.render(), right.render())
        left2 = u_plus(word) * grade
        shorter = u_plus(word[:-1]) if word else Laurent.zero()
        right2 = shorter - _r_times(pair_r, u_plus, word)
        if not left2.agrees_with(right2, 0):
            report.record(word, "(ii) nabla_Phi U_plus = U_plus x I - R x U_plus", left2.render(), right2.render())
        if len(word) > 0:
            scaled = u_minus(word).scale(GaussianRational(len(word))).shift(1)
            if scaled.max_degree is not None and scaled.max_degree > 0:
                report.record(word, "(iii) shape", scaled.render(), "degrees <= 0")
            at_infinity = scaled.constant_term()
            if -at_infinity != r(word):
                report.record(word, "(iii) R from U_minus at infinity", -at_infinity, r(word))
    return report


def _r_times(r, u, word: Word) -> Laurent:
    """(R x U)^word: the sum over word = a.b, a nonempty, of R^a U^b, R
    read by ``r`` and U by ``u``; U^b is not read where R^a is zero."""
    terms = []
    for j in range(1, len(word) + 1):
        c = r(word[:j])
        if c:
            terms.append((Laurent.monomial(c, 0), u(word[j:])))
    return Laurent.sum_of_products(terms)


def verify_conjugation_symmetry(engine: BirkhoffEngine, max_length: int) -> SuiteReport:
    """For purely imaginary alphabets closed under negation, the source's
    scalar moulds on the letterwise-negated word are the complex
    conjugates."""
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
