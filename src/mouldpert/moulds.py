"""Words over an eigenvalue alphabet and the mould algebra built on them.

A mould assigns a Laurent-series value to every finite word of alphabet
letters.  Values are produced lazily and memoized per word; repeated
evaluation returns the identical value, and a deeper accuracy request
recomputes and widens the cached entry.  Memo tables are plain dicts:
evaluation is meant to run in a single-threaded context (concurrent use
would need the caller to serialize evaluations).

A word is a plain tuple of letter indices; the :class:`Alphabet` owns the
mapping between indices and exact scalar values, so word hashing stays on
small integer tuples.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable, Iterable, Iterator

from .laurent import Laurent
from .scalars import GaussianRational, ONE, ZERO, format_scalar, parse_scalar

__all__ = [
    "Word",
    "EMPTY_WORD",
    "Alphabet",
    "shuffle",
    "Mould",
    "HeldMould",
    "MouldError",
    "mould_product",
    "mould_inverse",
    "mould_antipode",
    "nabla",
    "mould_exp",
    "mould_log",
    "is_symmetral_up_to",
    "is_alternal_up_to",
    "ShuffleReport",
    "ShuffleViolation",
]


class MouldError(ValueError):
    """A mould operation's precondition was violated."""


Word = tuple  # a word is a tuple of letter indices

EMPTY_WORD: Word = ()


class Alphabet:
    """An ordered set of distinct eigenvalue letters.

    For alphabets produced by a Hermitian problem the letter set is closed
    under negation; arbitrary alphabets need not be.
    """

    def __init__(self, letters: Iterable[GaussianRational]):
        self._letters = tuple(letters)
        self._phi = {EMPTY_WORD: ZERO}
        self._index = {}
        for i, v in enumerate(self._letters):
            if v in self._index:
                raise ValueError(f"duplicate letter {format_scalar(v)}")
            self._index[v] = i

    @classmethod
    def parse(cls, text: str) -> "Alphabet":
        """Comma-separated scalar literals, e.g. "i,-i,2i,0"; an empty item
        is an error, as it is for any scalar literal."""
        return cls(parse_scalar(part) for part in text.split(","))

    def __len__(self) -> int:
        return len(self._letters)

    @property
    def letters(self) -> tuple:
        return self._letters

    def index(self, value) -> int:
        if isinstance(value, str):
            value = parse_scalar(value)
        try:
            return self._index[value]
        except KeyError:
            raise ValueError(f"{format_scalar(value)} is not a letter of the alphabet") from None

    def phi(self, word: Word) -> GaussianRational:
        """Sum of the letter values of a word (zero on the empty word),
        memoized per word: one addition to the sum of its prefix."""
        total = self._phi.get(word)
        if total is None:
            total = self._phi[word] = self.phi(word[:-1]) + self._letters[word[-1]]
        return total

    def word_of(self, *values) -> Word:
        """Build a word from letter values (scalar literals accepted)."""
        return tuple(self.index(v) for v in values)

    def words_of_length(self, r: int) -> Iterator[Word]:
        return itertools.product(range(len(self._letters)), repeat=r)

    def words_up_to(self, max_length: int) -> Iterator[Word]:
        """All words of length <= max_length, sorted by length then letter indices."""
        for r in range(max_length + 1):
            yield from self.words_of_length(r)

    @property
    def closed_under_negation(self) -> bool:
        return all(-v in self._index for v in self._letters)

    @property
    def purely_imaginary(self) -> bool:
        return all(v.is_imaginary for v in self._letters)

    def negate_word(self, word: Word) -> Word:
        return tuple(self._index[-self._letters[i]] for i in word)

    def render_word(self, word: Word) -> str:
        if not len(word):
            return "∅"
        return "·".join(format_scalar(self._letters[i]) for i in word)

    def parse_word(self, text: str) -> Word:
        """Inverse of render_word; also accepts comma separators."""
        text = text.strip()
        if text in ("", "∅"):
            return EMPTY_WORD
        sep = "·" if "·" in text else ","
        return self.word_of(*[part.strip() for part in text.split(sep)])

    def __repr__(self) -> str:
        return "Alphabet(" + ", ".join(format_scalar(v) for v in self._letters) + ")"


# -- shuffle product ------------------------------------------------------


@lru_cache(maxsize=None)
def _shuffle_pairs(a: tuple, b: tuple) -> tuple:
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    counts: Counter = Counter()
    for w, m in _shuffle_pairs(a[1:], b):
        counts[(a[0],) + w] += m
    for w, m in _shuffle_pairs(a, b[1:]):
        counts[(b[0],) + w] += m
    return tuple(counts.items())


def shuffle(a: Word, b: Word) -> Counter:
    """All interleavings of a and b, with multiplicities.

    Follows the recursion (x a) sh (y b) = x (a sh y b) + y (x a sh b);
    the total multiplicity is binomial(len(a) + len(b), len(a)).
    """
    return Counter(dict(_shuffle_pairs(a, b)))


# -- moulds ----------------------------------------------------------------


class Mould:
    """A lazily evaluated family of Laurent values indexed by words.

    A mould is its alphabet and its evaluation function; it carries no
    label.  ``value(word, acc)`` guarantees all coefficients of degree
    <= acc.  Every mould memoizes its values per word: a cached value is
    returned when its window covers acc, and a deeper request re-evaluates
    and replaces it.

    ``scalar`` is None for a Laurent-valued mould.  A mould of e-free
    values (:meth:`constant_from`) keeps a reader ``scalar(word)`` of its
    Gaussian rational values; among the mould operations only the
    shuffle checks read it instead of Laurent values.
    """

    def __init__(self, alphabet: Alphabet, evaluate: Callable[[Word, int], Laurent]):
        self.alphabet = alphabet
        self._evaluate = evaluate
        self._memo: dict = {}
        self.scalar = None

    def value(self, word: Word, acc: int = 0) -> Laurent:
        cached = self._memo.get(word)
        if cached is not None and (cached.acc_order is None or cached.acc_order >= acc):
            return cached
        out = self._evaluate(word, acc)
        self._memo[word] = out
        return out

    @classmethod
    def constant_from(cls, alphabet: Alphabet, scalar_fn: Callable[[Word], GaussianRational]) -> "Mould":
        """The mould of e-free values scalar_fn(word).

        ``scalar(word)`` is scalar_fn(word), memoized per word, and
        ``value(word, acc)`` is that same memo entry as the monomial of
        degree 0, or the exact zero.  Neither closure reads the mould, so
        the mould closes no reference cycle.
        """
        memo = {}

        def scalar(word: Word) -> GaussianRational:
            c = memo.get(word)
            if c is None:
                c = memo[word] = scalar_fn(word)
            return c

        mould = cls(alphabet, lambda word, acc: _constant(scalar(word)))
        mould.scalar = scalar
        return mould

    def __repr__(self) -> str:
        return f"<mould over {self.alphabet!r}>"


class HeldMould(Mould):
    """A mould whose values another table holds: ``value(word, acc)`` is
    ``read(word, acc)`` on every call, so no memo keeps a second copy of
    what the owner's table already holds."""

    def value(self, word: Word, acc: int = 0) -> Laurent:
        return self._evaluate(word, acc)


def _constant(c: GaussianRational) -> Laurent:
    """The e-free Laurent value c: the monomial c e^0, or the exact zero."""
    return Laurent.monomial(c, 0) if c else Laurent.zero()


def _product_value(factors: list, acc: int):
    """The values of one product term, fetched deep enough that their
    product is guaranteed through degree acc; None when one of them is
    the exact zero.

    ``factors`` is a list of (mould, word) pairs.  Each factor is first
    evaluated at acc; factors are then re-requested deeper when the polar
    depth of the others would eat into the guaranteed window.
    """
    values = []
    for mould, word in factors:
        v = mould.value(word, acc)
        if v.is_exact_zero:
            return None
        values.append(v)
    bounds = [v.min_degree_bound() for v in values]
    total = sum(bounds)
    for i, (mould, word) in enumerate(factors):
        need = acc - (total - bounds[i])
        if need > acc:
            values[i] = mould.value(word, need)
    return values


@lru_cache(maxsize=None)
def _integer_constant(m: int) -> Laurent:
    return Laurent.monomial(m, 0)


def mould_product(left: Mould, right: Mould) -> Mould:
    """Concatenation-dual convolution: (M x N)^w = sum over w = a.b of M^a N^b.

    One path for every pair of moulds: each term's factors are fetched
    deep enough that the poles of one do not eat into the other's window
    (``_product_value``).
    """
    if left.alphabet is not right.alphabet:
        raise MouldError("mould product requires a shared alphabet")

    def fn(word: Word, acc: int) -> Laurent:
        terms = (
            _product_value([(left, word[:j]), (right, word[j:])], acc)
            for j in range(len(word) + 1)
        )
        return Laurent.sum_of_products(t for t in terms if t is not None)

    return Mould(left.alphabet, fn)


def mould_inverse(mould: Mould) -> Mould:
    """Multiplicative inverse by length recursion; requires M on the empty word to be 1."""
    if not mould.value(EMPTY_WORD, 0).agrees_with(Laurent.one(), 0):
        raise MouldError("mould is not invertible by length recursion: value on the empty word is not 1")

    def fn(word: Word, acc: int) -> Laurent:
        if len(word) == 0:
            return Laurent.one()
        terms = (
            _product_value([(mould, word[:j]), (inverse, word[j:])], acc)
            for j in range(1, len(word) + 1)
        )
        return -Laurent.sum_of_products(t for t in terms if t is not None)

    inverse = Mould(mould.alphabet, fn)
    return inverse


def mould_antipode(mould: Mould) -> Mould:
    """Signed reversal (-1)^r M^{reversed w}; inverts symmetral moulds."""
    def fn(word: Word, acc: int) -> Laurent:
        v = mould.value(word[::-1], acc)
        return v if len(word) % 2 == 0 else -v

    return Mould(mould.alphabet, fn)


def nabla(mould: Mould) -> Mould:
    """The grading operator nabla_Phi: multiply M^w by phi(w) + len(w) * e.

    The factor carries e, so the result is Laurent-valued even where M's
    values are e-free.
    """
    alphabet = mould.alphabet

    def fn(word: Word, acc: int) -> Laurent:
        return mould.value(word, acc) * Laurent.from_pairs([(0, alphabet.phi(word)), (1, len(word))])

    return Mould(alphabet, fn)


def _composition_sum(mould: Mould, word: Word, acc: int, coefficient: Callable[[int], Fraction]) -> Laurent:
    """Sum over k of coefficient(k) times the products of M over the
    splittings of word into k nonempty consecutive blocks: the word's
    value of a power series in M, for M vanishing on the empty word."""
    r = len(word)
    terms = []
    for k in range(1, r + 1):
        coeff = Laurent.monomial(coefficient(k), 0)
        for cuts in itertools.combinations(range(1, r), k - 1):
            edges = (0,) + cuts + (r,)
            blocks = [(mould, word[edges[i]:edges[i + 1]]) for i in range(k)]
            values = _product_value(blocks, acc)
            if values is not None:
                head = coeff
                for v in values[:-1]:
                    head = head * v
                terms.append((head, values[-1]))
    return Laurent.sum_of_products(terms)


def mould_exp(mould: Mould) -> Mould:
    """Exponential for the mould product; requires value 0 on the empty word.

    Evaluation on a word of length r only involves powers up to r, so the
    series is finite per word.
    """
    if not mould.value(EMPTY_WORD, 0).is_exact_zero:
        raise MouldError("mould exponential requires value 0 on the empty word")

    def fn(word: Word, acc: int) -> Laurent:
        if len(word) == 0:
            return Laurent.one()
        return _composition_sum(mould, word, acc, lambda k: Fraction(1, factorial(k)))

    return Mould(mould.alphabet, fn)


def mould_log(mould: Mould) -> Mould:
    """Logarithm for the mould product; requires value 1 on the empty word."""
    if not mould.value(EMPTY_WORD, 0).agrees_with(Laurent.one(), 0):
        raise MouldError("mould logarithm requires value 1 on the empty word")

    def fn(word: Word, acc: int) -> Laurent:
        return _composition_sum(mould, word, acc, lambda k: Fraction((-1) ** (k - 1), k))

    return Mould(mould.alphabet, fn)


# -- shuffle-identity testers ------------------------------------------------


@dataclass
class ShuffleViolation:
    left: Word
    right: Word
    shuffle_sum: Laurent
    target: Laurent

    def describe(self, alphabet: Alphabet) -> str:
        return (
            f"({alphabet.render_word(self.left)}) sh ({alphabet.render_word(self.right)}): "
            f"sum = {self.shuffle_sum.render()}, expected {self.target.render()}"
        )


@dataclass
class ShuffleReport:
    pairs_checked: int = 0
    empty_word_ok: bool = True
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.empty_word_ok and not self.violations


def _shuffle_pairs_up_to(alphabet: Alphabet, max_length: int) -> Iterator[tuple]:
    """The nonempty word pairs (a, b) with len(a) + len(b) <= max_length,
    len(a) <= len(b), and a <= b when the lengths are equal."""
    for la in range(1, max_length):
        for lb in range(la, max_length - la + 1):
            for a in alphabet.words_of_length(la):
                for b in alphabet.words_of_length(lb):
                    if la == lb and b < a:
                        continue
                    yield a, b


def _shuffle_check(mould: Mould, max_length: int, character: bool, acc: int) -> ShuffleReport:
    if mould.scalar is not None and acc >= 0:
        return _scalar_shuffle_check(mould.scalar, mould.alphabet, max_length, character)
    alphabet = mould.alphabet
    report = ShuffleReport()
    empty_value = mould.value(EMPTY_WORD, acc)
    if character:
        report.empty_word_ok = empty_value.agrees_with(Laurent.one(), acc)
    else:
        report.empty_word_ok = empty_value.agrees_with(Laurent.zero(), acc)
    for a, b in _shuffle_pairs_up_to(alphabet, max_length):
        report.pairs_checked += 1
        lhs = Laurent.sum_of_products(
            (mould.value(n, acc), _integer_constant(mult)) for n, mult in _shuffle_pairs(a, b)
        )
        product = _product_value([(mould, a), (mould, b)], acc) if character else None
        rhs = Laurent.zero() if product is None else Laurent.sum_of_products([product])
        if not lhs.agrees_with(rhs, acc):
            report.violations.append(ShuffleViolation(a, b, lhs, rhs))
    return report


def _scalar_shuffle_check(
    scalar: Callable[[Word], GaussianRational], alphabet: Alphabet, max_length: int, character: bool
) -> ShuffleReport:
    """The shuffle check of an e-free mould on its Gaussian rational
    values: through any degree acc >= 0 its values agree exactly when
    their constant terms are equal.  A violation holds the same Laurent
    values as the check on Laurent values would."""
    report = ShuffleReport(empty_word_ok=scalar(EMPTY_WORD) == (ONE if character else ZERO))
    for a, b in _shuffle_pairs_up_to(alphabet, max_length):
        report.pairs_checked += 1
        lhs = ZERO
        for n, mult in _shuffle_pairs(a, b):
            c = scalar(n)
            if c:
                lhs = lhs + (c if mult == 1 else c * mult)
        rhs = scalar(a) * scalar(b) if character else ZERO
        if lhs != rhs:
            report.violations.append(ShuffleViolation(a, b, _constant(lhs), _constant(rhs)))
    return report


def is_symmetral_up_to(mould: Mould, max_length: int, acc: int = 0) -> ShuffleReport:
    """Check the character property M^(a sh b) = M^a M^b for all nonempty
    word pairs with total length <= max_length (plus M = 1 on the empty word).

    For acc >= 0 an e-free mould (``mould.scalar``) is checked on its
    Gaussian rational values; otherwise the values agree through degree acc."""
    return _shuffle_check(mould, max_length, character=True, acc=acc)


def is_alternal_up_to(mould: Mould, max_length: int) -> ShuffleReport:
    """Check the infinitesimal-character property: the shuffle sum vanishes
    for all nonempty word pairs with total length <= max_length.

    An e-free mould (``mould.scalar``) is checked on its Gaussian
    rational values, and a Laurent-valued one through degree 0."""
    return _shuffle_check(mould, max_length, character=False, acc=0)
