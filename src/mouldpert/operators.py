"""Finite Hermitian matrix problems driven by the scalar moulds.

A perturbation problem is H0 + mu*V with H0 = diag(E0) exact-rational and
V an exact Hermitian matrix.  The normal form N and the unitary
conjugator C come from one Birkhoff decomposition of the matrix series
built from H0 and V alone: its regular factor Phi(U_plus) is solved
order by order as the only solution of a recursion in e' that is
regular (``build_conjugator``), and no pole part is formed.  No
alphabet, component or word enters them.  That recursion runs on power
series in e' held as Gaussian-integer numerators over one denominator
per order, on windows of degrees 0..K-m, and makes GaussianRational
values only for C_k and N_k.  The checks of ``verify_conjugacy``
(conjugacy, unitarity, traces) use one integer format, per row the
(column, re, im) triples of its nonzero entries over the
denominator of its order (``_integer_rows``), and their products return it
(``_gaussian_product``), so their cost follows the nonzeros.  No series
product of GaussianRational matrices is formed: the recursive oracle
(``hierarchy_oracle``) conjugates by exp(ad), one sparse product of
Gaussian integers per order and term (``_ad_term``), summed per order
over one denominator; it reads only E0 and V and shares no kernel with
the checks or the decomposition.  The word route splits V into
eigencomponents B_lam of the rescaled commutator with H0
(``spectral_decompose``) and sums N^w times nested brackets
(``build_normal_form``); it is built only for the coefficient table of
the solve JSON, and the tests keep it, and the mould expansion of the
generator i hbar log C (log(S)^w / len(w) times nested brackets), as
independent references.
It runs on integers alone: each component is held only as V's
Gaussian-integer rows split by level gap, letter sums are integer level
gaps, and each bracket is one fused kernel on those rows
(``SpectralDecomposition.sparse_left_bracket``), shared with neither the
checks nor the oracle; GaussianRational values are formed once per entry
of N.  Everything is exact except the final optional comparison against
double-precision eigenvalues from the module's own Jacobi kernel
(``_hermitian_eigenvalues``).

Sign conventions: the entry in row k, column l of V belongs to the
component with letter lam = (E0(k) - E0(l)) / (i hbar), which is exactly
the eigenvalue of X -> [H0, X] / (i hbar) on that matrix unit.

Problems share no state, so distinct problems may be processed in
parallel; within one problem, exact arithmetic makes every accumulation
order independent.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .birkhoff import BirkhoffEngine
from .moulds import Alphabet
from .scalars import GaussianRational, ONE, ZERO, format_scalar, parse_scalar

__all__ = [
    "PerturbationProblem",
    "SpectralDecomposition",
    "MatrixSeries",
    "NormalizationOutput",
    "spectral_decompose",
    "build_normal_form",
    "build_conjugator",
    "verify_conjugacy",
    "hierarchy_oracle",
    "compare_with_oracle",
    "eigenvalue_series",
    "numeric_compare",
    "solve",
    "random_problem",
]


# -- exact matrices (tuples of tuples of GaussianRational) --------------------


def zero_matrix(dim: int) -> tuple:
    row = (ZERO,) * dim
    return (row,) * dim


def identity_matrix(dim: int) -> tuple:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(dim)) for i in range(dim)
    )


def mat_add(a: tuple, b: tuple) -> tuple:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: GaussianRational, a: tuple) -> tuple:
    return tuple(tuple(c * x for x in row) for row in a)


def _integer_rows(a: tuple) -> tuple:
    """(den, rows): per row of a, the (column, re, im) triples of its
    nonzero entries, each the Gaussian integer re + im i over den, the lcm
    of the entry denominators: the one integer format of the exact kernels."""
    # a GaussianRational is the canonical integer triple (_a + _b i) / _d
    den = math.lcm(*{x._d for row in a for x in row})
    return den, [
        [(j, x._a * (den // x._d), x._b * (den // x._d)) for j, x in enumerate(row) if x._a or x._b]
        for row in a
    ]


def mat_mul(a: tuple, b: tuple) -> tuple:
    """The product a b of square GaussianRational matrices; zero entries
    of a and b add no product.  Nothing in the package calls it: it is the
    tests' dense product, and the benchmark counts its calls."""
    b_rows = [[(l, y) for l, y in enumerate(row) if y] for row in b]
    out = []
    for a_row in a:
        out_row = [ZERO] * len(a)
        for j, x in enumerate(a_row):
            if x:
                for l, y in b_rows[j]:
                    out_row[l] = out_row[l] + x * y
        out.append(tuple(out_row))
    return tuple(out)


def _first_non_hermitian(a: tuple) -> Optional[tuple]:
    """The first (k, l), k <= l in row order, where a[k][l] is not the
    conjugate of a[l][k], or None if a equals its adjoint.  Canonical
    triples are compared in place: x = conj(y) exactly when x._a == y._a,
    x._b == -y._b and x._d == y._d, so no value is formed."""
    for k, (row, column) in enumerate(zip(a, zip(*a))):
        for l in range(k, len(row)):
            x, y = row[l], column[l]
            if x._a != y._a or x._b != -y._b or x._d != y._d:
                return k, l
    return None


def mat_is_hermitian(a: tuple) -> bool:
    """a equals its adjoint, diagonal included."""
    return _first_non_hermitian(a) is None


def mat_magnitude(a: tuple) -> int:
    """Largest absolute numerator of the reduced parts; 0 for the zero matrix."""
    worst = 0
    for row in a:
        for x in row:
            if x:
                worst = max(worst, abs(x.re.numerator), abs(x.im.numerator))
    return worst


def mat_to_json(a: tuple) -> list:
    return [[format_scalar(x) for x in row] for row in a]


def scalar_from_json(value) -> GaussianRational:
    """A scalar written in JSON: a literal string or an integer."""
    if isinstance(value, str):
        return parse_scalar(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return GaussianRational(value)
    raise ValueError(f"expected a scalar literal string or an integer, got {value!r}")


def mat_from_json(rows) -> tuple:
    """The matrix of scalars written in JSON; each distinct string literal
    is parsed once, and any other entry goes to ``scalar_from_json``."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("a matrix must be a list of rows, each a list of scalars")
    parsed = {}

    def scalar(x) -> GaussianRational:
        if not isinstance(x, str):
            return scalar_from_json(x)
        if x not in parsed:
            parsed[x] = parse_scalar(x)
        return parsed[x]

    return tuple(tuple(scalar(x) for x in row) for row in rows)


# -- truncated matrix power series --------------------------------------------


class MatrixSeries:
    """Matrix-valued polynomial in the perturbation parameter, truncated
    at a fixed order; arithmetic drops everything above it."""

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, coeffs: Sequence[tuple]):
        self.coeffs = tuple(coeffs)
        self.order = len(self.coeffs) - 1
        self.dim = len(self.coeffs[0])

    @classmethod
    def from_orders(cls, dim: int, order: int, terms: dict) -> "MatrixSeries":
        return cls([terms.get(k, zero_matrix(dim)) for k in range(order + 1)])

    def evaluate(self, mu: Fraction) -> tuple:
        """Exact value at a rational parameter."""
        out = zero_matrix(self.dim)
        power = GaussianRational(1)
        scale = GaussianRational(mu)
        for a in self.coeffs:
            out = mat_add(out, mat_scale(power, a))
            power = power * scale
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def to_json(self) -> list:
        return [mat_to_json(a) for a in self.coeffs]


# -- problems ------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationProblem:
    """H0 + mu*V with exact data; hbar rescales the commutator bracket."""

    e0: tuple
    v: tuple
    hbar: Fraction = Fraction(1)
    order: int = 4

    def __post_init__(self):
        object.__setattr__(self, "e0", tuple(Fraction(x) for x in self.e0))
        object.__setattr__(self, "hbar", Fraction(self.hbar))
        v = tuple(tuple(row) for row in self.v)
        object.__setattr__(self, "v", v)
        dim = len(self.e0)
        if dim == 0:
            raise ValueError("empty unperturbed spectrum")
        if len(v) != dim or any(len(row) != dim for row in v):
            raise ValueError("V must be square with the same dimension as E0")
        if self.hbar <= 0:
            raise ValueError("hbar must be a positive rational")
        if self.order < 1:
            raise ValueError("the truncation order must be at least 1")
        if self.order >= sys.maxsize:
            raise ValueError(f"the truncation order must be below sys.maxsize = {sys.maxsize}")
        pair = _first_non_hermitian(v)
        if pair is not None:
            raise ValueError(f"V is not Hermitian at ({pair[0]},{pair[1]})")

    @property
    def dim(self) -> int:
        return len(self.e0)

    @property
    def is_simple(self) -> bool:
        return len(set(self.e0)) == self.dim

    @functools.cached_property
    def h0_matrix(self) -> tuple:
        """H0 as a diagonal matrix, built once from the integer levels over D."""
        den, level = self.levels
        return tuple(
            tuple(GaussianRational.from_integers(e, 0, den) if i == j else ZERO for j in range(self.dim))
            for i, e in enumerate(level)
        )

    def h_series(self) -> MatrixSeries:
        """H0 + mu*V as a matrix series truncated at the problem order."""
        return MatrixSeries.from_orders(
            self.dim, self.order, {0: self.h0_matrix, 1: self.v}
        )

    @functools.cached_property
    def levels(self) -> tuple:
        """(D, [E0(k) D]): the levels as integers over their common
        denominator D, so that level gaps and equalities are int arithmetic."""
        den = math.lcm(*(x.denominator for x in self.e0))
        return den, tuple(int(x * den) for x in self.e0)

    @functools.cached_property
    def resonance(self) -> tuple:
        """resonance[k][l] tells whether E0(k) == E0(l)."""
        level = self.levels[1]
        return tuple(tuple(a == b for b in level) for a in level)

    def resonant_part(self, a: tuple) -> tuple:
        return tuple(
            tuple(x if same else ZERO for x, same in zip(row, mask))
            for row, mask in zip(a, self.resonance)
        )

    @classmethod
    def from_json_dict(cls, data) -> "PerturbationProblem":
        """The problem from its JSON object; malformed data, a missing
        "E0" or "V", or any other key than those and "hbar" and "order"
        raises ValueError (ScalarParseError is one)."""
        if not isinstance(data, dict):
            raise ValueError("a problem must be a JSON object")
        for key in data:
            if key not in ("E0", "V", "hbar", "order"):
                raise ValueError(f'unknown key "{key}" (a problem has E0, V, hbar and order)')
        for key in ("E0", "V"):
            if key not in data:
                raise ValueError(f'missing key "{key}"')

        def real_fraction(raw) -> Fraction:
            value = scalar_from_json(raw)
            if not value.is_real:
                raise ValueError(f"expected a real rational, got {raw!r}")
            return value.re

        if not isinstance(data["E0"], list):
            raise ValueError("E0 must be a list of scalars")
        e0 = [real_fraction(x) for x in data["E0"]]
        v = mat_from_json(data["V"])
        hbar = real_fraction(data.get("hbar", "1"))
        order = data.get("order", 4)
        if isinstance(order, bool) or not isinstance(order, int):
            raise ValueError(f"order must be an integer, got {order!r}")
        return cls(e0=tuple(e0), v=v, hbar=hbar, order=order)

    def to_json_dict(self) -> dict:
        return {
            "E0": [format_scalar(GaussianRational(x)) for x in self.e0],
            "V": mat_to_json(self.v),
            "hbar": format_scalar(GaussianRational(self.hbar)),
            "order": self.order,
        }


RANDOM_LEVELS = range(-6, 7)
RANDOM_DENSITY = 0.8
RANDOM_MAX_ABS = 2


def random_problem(
    dim: int,
    order: int,
    seed: int,
    hbar: Fraction = Fraction(1),
    degenerate: bool = False,
) -> PerturbationProblem:
    """Seeded random Hermitian problem with small integer data: the levels
    are distinct values drawn from RANDOM_LEVELS (one repeated if
    degenerate), each level pair is coupled with probability
    RANDOM_DENSITY, and every integer part of V lies in
    [-RANDOM_MAX_ABS, RANDOM_MAX_ABS]."""
    rng = random.Random(seed)
    if degenerate and dim >= 2:
        e0 = rng.sample(RANDOM_LEVELS, dim - 1)
        e0.append(e0[0])
        rng.shuffle(e0)
    else:
        e0 = rng.sample(RANDOM_LEVELS, dim)
    rows = [[ZERO] * dim for _ in range(dim)]
    for k in range(dim):
        rows[k][k] = GaussianRational(rng.randint(-RANDOM_MAX_ABS, RANDOM_MAX_ABS))
        for l in range(k + 1, dim):
            if rng.random() < RANDOM_DENSITY:
                re = rng.randint(-RANDOM_MAX_ABS, RANDOM_MAX_ABS)
                im = rng.randint(-RANDOM_MAX_ABS, RANDOM_MAX_ABS)
                rows[k][l] = GaussianRational(re, im)
                rows[l][k] = rows[k][l].conjugate()
    return PerturbationProblem(
        e0=tuple(Fraction(x) for x in e0),
        v=tuple(tuple(r) for r in rows),
        hbar=hbar,
        order=order,
    )


# -- spectral decomposition -----------------------------------------------------


class SpectralDecomposition:
    """V split into eigencomponents B_lam of X -> [H0, X] / (i hbar).

    The alphabet collects the distinct letters lam = (E0(k) - E0(l))/(i hbar)
    over the support of V; V is Hermitian, so lam(l, k) = -lam(k, l) is
    always there and the alphabet is closed under negation.  Each letter
    is held as its integer gap level(k) - level(l)
    (``PerturbationProblem.levels``), lam = -i gap / (hbar D_E), so letter
    sums vanish exactly when gap sums do.

    B_lam is the part of V on the entries of that gap, so
    [H0, B_lam]/(i hbar) = lam B_lam exactly, the components sum to V, and
    the adjoint of B_lam is B_(-lam).  Each is held only as its nonzero
    rows of Gaussian integers over ``den``, the lcm of the denominators of
    V: V's integer rows (``_integer_rows``) split by gap, in column order.
    """

    def __init__(self, problem: PerturbationProblem):
        self.problem = problem
        (level_den, level), p, q = problem.levels, problem.hbar.numerator, problem.hbar.denominator
        self.den, v_rows = _integer_rows(problem.v)
        # lam = -i q gap / (p D_E): ordered by (re, im), the letters run from the largest gap down
        gaps = {level[k] - level[l] for k, row in enumerate(v_rows) for l, _, _ in row}
        self.gaps = tuple(sorted(gaps, reverse=True))
        self.alphabet = Alphabet(GaussianRational.from_integers(0, -q * g, p * level_den) for g in self.gaps)
        index = {g: i for i, g in enumerate(self.gaps)}
        self.component_rows = [[[] for _ in v_rows] for _ in self.gaps]
        for k, row in enumerate(v_rows):
            for entry in row:
                self.component_rows[index[level[k] - level[entry[0]]]][k].append(entry)

    def sparse_left_bracket(self, letter_index: int, x: list) -> list:
        """The nonzero rows of B x - x B, B the component of the letter as
        Gaussian integers over ``den`` and x given by its nonzero rows: the
        bracket [B_letter, x] / (i hbar) times the nonzero scalar
        (i hbar) den, so it vanishes exactly when that bracket does.  One
        fused kernel, shared with neither the checks nor the oracle."""
        b_rows = self.component_rows[letter_index]
        out = []
        for b_row, x_row in zip(b_rows, x):
            acc = {}
            for c, br, bi in b_row:
                for l, xr, xi in x[c]:
                    if l in acc:
                        s = acc[l]
                        s[0] += br * xr - bi * xi
                        s[1] += br * xi + bi * xr
                    else:
                        acc[l] = [br * xr - bi * xi, br * xi + bi * xr]
            for c, xr, xi in x_row:
                for l, br, bi in b_rows[c]:
                    if l in acc:
                        s = acc[l]
                        s[0] -= xr * br - xi * bi
                        s[1] -= xr * bi + xi * br
                    else:
                        acc[l] = [xi * bi - xr * br, -xr * bi - xi * br]
            out.append([(l, re, im) for l, (re, im) in acc.items() if re or im])
        return out

    def reachable_sums(self, max_letters: int) -> list:
        """reach[m] = set of gap sums attainable with at most m letters."""
        reach = [{0}]
        for _ in range(max_letters):
            grown = set(reach[-1])
            for s in reach[-1]:
                for g in self.gaps:
                    grown.add(s + g)
            reach.append(grown)
        return reach


def spectral_decompose(problem: PerturbationProblem) -> SpectralDecomposition:
    return SpectralDecomposition(problem)


# -- mould expansions ------------------------------------------------------------


def build_normal_form(
    sd: SpectralDecomposition, engine: BirkhoffEngine
) -> tuple:
    """The normal-form series: order k sums N^w times the nested bracket
    [B_(w1), [B_(w2), ... B_(wk)]] / (i hbar)^(k-1) over words of length
    k.  Returns (MatrixSeries, {word: {"N": N^w, "S": S^w}}) over the
    words with nonzero N^w.  This word route fills only the coefficient
    table of the solve JSON; ``solve`` takes N from ``build_conjugator``,
    and the tests hold the two equal.

    The walk runs on integers.  Words are walked right to left so each
    step costs one bracket (``sparse_left_bracket``), of Gaussian-integer
    rows: a word of length k carries its nested bracket times
    (i hbar)^(k-1) den^k, den the denominator of V.  Letter
    sums are the integer gap sums of ``SpectralDecomposition.gaps``:
    prefixes that cannot be completed to a word with zero sum are pruned
    before their bracket is formed (coefficients of nonresonant words
    vanish by the support property, which the verification suite checks
    independently), and branches die as soon as the bracket has no
    nonzero row.  As each word is reached, d N^w times its bracket, d
    the denominator of N^w, is added in Gaussian integers to the sum of
    its order and d, so no bracket outlives its branch.  Per order those
    sums are brought over the lcm L of their d, and each entry becomes
    one GaussianRational, over L den^k and times (1/(i hbar))^(k-1)
    (``_word_sum``).
    """
    problem = sd.problem
    K, dim = problem.order, problem.dim
    # per order, per denominator d of N^w, the rows {column: [re, im]} of the
    # sum of d N^w times the integer bracket of w
    sums = [{} for _ in range(K + 1)]
    table: dict = {}
    letters = range(len(sd.alphabet))
    gaps = sd.gaps
    reach = sd.reachable_sums(K)

    def visit(word: tuple, sigma: int, bracket: Optional[list], depth: int):
        if depth > 0 and not sigma:
            c = engine.N.scalar(word)
            if c:
                rows = sums[depth].get(c._d)
                if rows is None:
                    rows = sums[depth][c._d] = [{} for _ in range(dim)]
                ca, cb = c._a, c._b
                for acc, row in zip(rows, bracket):
                    for l, re, im in row:
                        if l in acc:
                            t = acc[l]
                            t[0] += ca * re - cb * im
                            t[1] += ca * im + cb * re
                        else:
                            acc[l] = [ca * re - cb * im, ca * im + cb * re]
                table[word] = {"N": c, "S": engine.S.scalar(word)}
        if depth == K:
            return
        for i in letters:
            sigma2 = sigma + gaps[i]
            if -sigma2 not in reach[K - depth - 1]:
                continue
            if depth == 0:
                extended = sd.component_rows[i]
            else:
                extended = sd.sparse_left_bracket(i, bracket)
            if any(extended):
                visit((i,) + word, sigma2, extended, depth + 1)

    visit((), 0, None, 0)
    del visit  # the recursive closure holds itself, and through it the engine
    coeffs = [_word_sum(by_den, k, dim, sd.den, problem.hbar) for k, by_den in enumerate(sums)]
    return MatrixSeries(coeffs), table


def _word_sum(by_den: dict, k: int, dim: int, den: int, hbar: Fraction) -> tuple:
    """The GaussianRational matrix of order k of N from the sums of
    ``build_normal_form``: per denominator d, Gaussian-integer rows of d
    times the sum of N^w times the integer brackets, over den^k
    (i hbar)^(k-1).  They are added over the lcm L of the d, and each
    entry becomes one value.  With hbar = p/q, 1/(i hbar)^(k-1) is
    (-i)^(k-1) q^(k-1) / p^(k-1)."""
    out = [[ZERO] * dim for _ in range(dim)]
    if by_den:
        lcm = math.lcm(*by_den)
        total = [{} for _ in range(dim)]
        for d, rows in by_den.items():
            s = lcm // d
            for acc, row in zip(total, rows):
                for l, (re, im) in row.items():
                    t = acc.setdefault(l, [0, 0])
                    t[0] += s * re
                    t[1] += s * im
        p, q = hbar.numerator, hbar.denominator
        scale, total_den = q ** (k - 1), lcm * den**k * p ** (k - 1)
        for out_row, acc in zip(out, total):
            for l, (re, im) in acc.items():
                for _ in range((k - 1) % 4):
                    re, im = im, -re  # times -i
                if re or im:
                    out_row[l] = GaussianRational.from_integers(scale * re, scale * im, total_den)
    return tuple(tuple(row) for row in out)


def build_conjugator(problem: PerturbationProblem) -> tuple:
    """(C, N) from H0 and V alone, by the Birkhoff decomposition of the
    matrix series: Phi(A)_m = sum over |w| = m of A^w B_(w1) ... B_(wm)
    turns U_minus x T = U_plus into Phi(U_minus) Phi(T) = Phi(U_plus).
    Letter sums telescope along index chains a -> c to g / (i hbar), with
    the real gap g = E0(a) - E0(c), and in e' = i hbar e the powers of
    i hbar cancel.  The derivation d = ad_H0 + e' mu d/dmu gives
    d Phi(T) = Phi(T) mu V, so (d Phi(U_minus)) Phi(U_minus)^-1 has no
    positive degree in e' and, equal to (d Phi(U_plus)) Phi(U_plus)^-1 -
    Phi(U_plus) mu V Phi(U_plus)^-1, no negative one: it is e'-free, and
    its order m, m times the residue of Phi(U_minus)_m, is -N_m.  So
    U_m = Phi(U_plus)_m solves, from U_0 = I, entry by entry
    (g + m e') U_m = Y_m - N_m, with
    Y_m = U_(m-1) V - sum over 0 < j < m of N_j U_(m-j) (``_y_window``)
    and N resonant: at a zero gap N_m is the e'^0 coefficient of Y_m and
    U_m is (Y_m - N_m) / (m e'); at any other gap U_m is Y_m / (g + m e')
    (``_next_u``).  C_m is the e'^0 coefficient of U_m.  No Phi(T) or
    Phi(U_minus) is formed, and no alphabet, component or word: those
    serve only the solve JSON.

    Windows.  U_m is held on degrees 0..K-m: later orders read it only
    through Y_(m+j), j >= 1, on degrees 0..K-m-j+1, the zero-gap shift
    reading Y one degree above U.  With g != 0, 1/(g/D + m e'), D the
    common denominator of the levels (``PerturbationProblem.levels``), is
    the series sum over e of D (-m D)^e / g^(e+1) e'^e; over |g|^(p+1),
    p = K - m, its coefficients of degrees 0..p are the integers
    D (-m D)^e g^(p-e), times the sign of g^(p+1).

    Denominators.  Each order is held as Gaussian-integer numerators (re,
    im ints per coefficient) over one positive denominator: Y_m over the
    lcm of the denominator products of its terms, N_m over Y_m's, and U_m
    over Y_m's times the lcm of the multipliers |g|^(p+1) and m of the
    gaps present.  U_m and N_m are reduced once, by one gcd each.
    GaussianRational values are formed only for C_m and N_m.

    Caveats.  N_m is written only at zero gaps, so [H0, N] = 0 catches an
    edited N but no fault of this construction.  At e' = 0 the recursion
    reads C (H0 + mu V) = (H0 + N) C, and C is unitary by the regularity
    in e': the conjugacy check keeps the form C H C* = H0 + N, which this
    recursion does not solve directly.
    """
    dim, K = problem.dim, problem.order
    v = _integer_rows(problem.v)
    # U_m and N_m as (denominator, rows): per row, the (column, re, im) of its nonzero
    # entries, re and im the numerators of degrees 0..K-m for U_m, of degree 0 for N_m
    u_series = [(1, [[(a, [1] + [0] * K, [0] * (K + 1))] for a in range(dim)])]
    n_series = [None]
    c_coeffs, n_coeffs = [identity_matrix(dim)], [zero_matrix(dim)]
    for m in range(1, K + 1):
        u, n = _next_u(_y_window(u_series, n_series, v, m, K), problem.levels, m, K)
        u_series.append(u)
        n_series.append(n)
        c_coeffs.append(_degree_matrix(*u))
        n_coeffs.append(_degree_matrix(*n))
    return MatrixSeries(c_coeffs), MatrixSeries(n_coeffs)


def _y_window(u_series: list, n_series: list, v: tuple, m: int, K: int) -> tuple:
    """(denominator, rows) of Y_m = U_(m-1) V - sum over 0 < j < m of
    N_j U_(m-j) on degrees 0..K-m+1, from the orders of U and N and V = v,
    all as (denominator, rows) (see ``build_conjugator``)."""
    (u_den, u_rows), (v_den, v_rows) = u_series[m - 1], v
    den = math.lcm(u_den * v_den, *(n_series[j][0] * u_series[m - j][0] for j in range(1, m)))
    zeros = [0] * (K - m + 2)
    s = den // (u_den * v_den)
    if s != 1:
        v_rows = [[(c, vr * s, vi * s) for c, vr, vi in row] for row in v_rows]
    window = []
    for u_row in u_rows:
        acc = {}
        for b, re, im in u_row:
            for c, vr, vi in v_rows[b]:
                sr, si = acc.get(c, (zeros, zeros))
                acc[c] = ([x + y * vr - z * vi for x, y, z in zip(sr, re, im)],
                          [x + y * vi + z * vr for x, y, z in zip(si, re, im)])
        window.append(acc)
    for j in range(1, m):
        (n_den, n_rows), (r_den, right) = n_series[j], u_series[m - j]
        s = den // (n_den * r_den)
        for acc, n_row in zip(window, n_rows):
            # N_j is resonant, so its entries are few, each of one degree;
            # zip truncates U_(m-j) to Y_m's window
            for b, (nr,), (ni,) in n_row:
                nr, ni = nr * s, ni * s
                for c, re, im in right[b]:
                    sr, si = acc.get(c, (zeros, zeros))
                    acc[c] = ([x - nr * y + ni * z for x, y, z in zip(sr, re, im)],
                              [x - nr * z - ni * y for x, y, z in zip(si, re, im)])
    return den, [[(c, re, im) for c, (re, im) in acc.items()] for acc in window]


def _next_u(y: tuple, levels: tuple, m: int, K: int) -> tuple:
    """(U_m, N_m) from Y_m = y, all three as (denominator, rows) (see
    ``build_conjugator``): entry (a, c) solves (g/D + m e') U_m = Y_m - N_m.
    At g = 0, N_m is Y_m's degree 0 and U_m the rest shifted down one
    degree over m; elsewhere U_m is Y_m times the series of
    1/(g/D + m e') through degree p = K - m."""
    (y_den, y_rows), (den, level) = y, levels
    p = K - m
    gaps = {level[a] - level[c] for a, row in enumerate(y_rows) for c, _, _ in row}
    multiplier = {g: abs(g) ** (p + 1) if g else m for g in gaps}
    lcm = math.lcm(*multiplier.values())
    factors = {}
    for g in gaps - {0}:
        # D (-m D)^e g^(p-e) over |g|^(p+1), times the sign of g^(p+1), then over lcm
        scale = (-1 if g < 0 and p % 2 == 0 else 1) * (lcm // multiplier[g]) * den
        factors[g] = [scale * (-m * den) ** e * g ** (p - e) for e in range(p + 1)]
    shift = lcm // m  # read only at a zero gap, where m divides lcm
    u_rows, n_rows = [], []
    for a, row in enumerate(y_rows):
        u_row, n_row = [], []
        for c, re, im in row:
            g = level[a] - level[c]
            if g:
                f = factors[g]
                u_row.append((c, [sum(map(mul, re[i::-1], f)) for i in range(p + 1)],
                              [sum(map(mul, im[i::-1], f)) for i in range(p + 1)]))
            else:
                n_row.append((c, re[:1], im[:1]))
                u_row.append((c, [x * shift for x in re[1:]], [x * shift for x in im[1:]]))
        u_rows.append(u_row)
        n_rows.append(n_row)
    return _reduced(y_den * lcm, u_rows), _reduced(y_den, n_rows)


def _degree_matrix(den: int, rows: list) -> tuple:
    """The GaussianRational matrix of the degree-0 coefficients of the
    entries of rows, over den."""
    out = [[ZERO] * len(rows) for _ in rows]
    for out_row, row in zip(out, rows):
        for c, re, im in row:
            if re[0] or im[0]:
                out_row[c] = GaussianRational.from_integers(re[0], im[0], den)
    return tuple(tuple(row) for row in out)


def _reduced(den: int, rows: list) -> tuple:
    """(den, rows) without the entries whose numerators all vanish, divided
    by the gcd of den and every numerator."""
    rows = [[(c, re, im) for c, re, im in row if any(re) or any(im)] for row in rows]
    g = math.gcd(den, *(v for row in rows for _, re, im in row for part in (re, im) for v in part))
    return den // g, [
        [(c, [v // g for v in re], [v // g for v in im]) for c, re, im in row] for row in rows
    ]


# -- verification ------------------------------------------------------------------


@dataclass
class ConjugacyReport:
    """Exact residuals of the normalization identities, per order in mu."""

    conjugacy_magnitude: list
    unitarity_magnitude: list
    commutation_ok: list
    hermitian_ok: list
    trace_ok: dict

    @property
    def conjugacy_ok(self) -> bool:
        return all(m == 0 for m in self.conjugacy_magnitude)

    @property
    def unitarity_ok(self) -> bool:
        return all(m == 0 for m in self.unitarity_magnitude)

    @property
    def ok(self) -> bool:
        return (
            self.conjugacy_ok
            and self.unitarity_ok
            and all(self.commutation_ok)
            and all(self.hermitian_ok)
            and all(self.trace_ok.values())
        )

    def to_json(self) -> dict:
        return {
            "conjugacy": self.conjugacy_ok,
            "conjugacy_residual_magnitude": self.conjugacy_magnitude,
            "unitarity": self.unitarity_ok,
            "unitarity_residual_magnitude": self.unitarity_magnitude,
            "commutation": all(self.commutation_ok),
            "hermitian": all(self.hermitian_ok),
            "trace_powers": {str(p): ok for p, ok in self.trace_ok.items()},
        }


def verify_conjugacy(
    problem: PerturbationProblem, n_series: MatrixSeries, c_series: MatrixSeries
) -> ConjugacyReport:
    """C (H0 + mu V) C* - (H0 + N) must vanish identically through the
    truncation order, alongside unitarity, [H0, N_k] = 0, Hermiticity of
    N_k, and conservation of tr((H0 + mu V)^p).

    C and N are read as the GaussianRational series that ``solve``
    outputs.  The products run on the integer kernel: every order of C,
    C* (``_adjoint_rows``) and H = H0 + mu V is held as Gaussian integers
    over its own denominator (``_integer_rows``; H0 is the levels over D,
    and the orders 2..K of H are empty rows over 1), and every order of a
    product over the lcm of the denominator products of its pairs
    (``_gaussian_product``), with no reduction on the way.  Order k is
    compared with H0 + N and with I in integers (``_integer_residual``),
    where an entry absent from the rows is 0, and an entry becomes a
    GaussianRational only where the two differ, so the residual
    magnitudes are exactly those of the differences
    C H C* - (H0 + N) and C C* - I.  The oracle keeps
    its own integer kernel (``_ad_term``): the checks and the oracle
    share no product kernel that one fault could make agree.  As H0 is
    diagonal, [H0, N_k] = 0 is read as N_k equal to its resonant part."""
    dim, h_series, rhs = problem.dim, problem.h_series(), _normal_series(problem, n_series)
    d_e, level = problem.levels
    h = [(d_e, [[(a, e, 0)] if e else [] for a, e in enumerate(level)]), _integer_rows(problem.v)]
    h += [(1, [[] for _ in range(dim)])] * (problem.order - 1)
    c = [_integer_rows(a) for a in c_series.coeffs]
    c_adj = [(den, _adjoint_rows(rows)) for den, rows in c]
    conjugated = _gaussian_product(_gaussian_product(c, h), c_adj)
    unitary = _gaussian_product(c, c_adj)
    identity = MatrixSeries.from_orders(dim, problem.order, {0: identity_matrix(dim)})
    pairs = zip(_power_traces(h_series, range(dim)), _power_traces(rhs, range(dim)))
    trace_ok = {p: a == b for p, (a, b) in enumerate(pairs, start=1)}
    return ConjugacyReport(
        conjugacy_magnitude=[_integer_residual(*p, a) for p, a in zip(conjugated, rhs.coeffs)],
        unitarity_magnitude=[_integer_residual(*p, a) for p, a in zip(unitary, identity.coeffs)],
        commutation_ok=[n == problem.resonant_part(n) for n in n_series.coeffs[1:]],
        hermitian_ok=[mat_is_hermitian(n) for n in n_series.coeffs[1:]],
        trace_ok=trace_ok,
    )


def _adjoint_rows(rows: list) -> list:
    """The nonzero rows of the adjoint of a Gaussian-integer matrix given by
    its nonzero rows: transposed, imaginary parts negated."""
    out = [[] for _ in rows]
    for j, row in enumerate(rows):
        for i, re, im in row:
            out[i].append((j, re, -im))
    return out


def _integer_residual(den: int, rows: list, target: tuple) -> int:
    """mat_magnitude(X - target), X the Gaussian-integer matrix over den
    given by its nonzero rows; an absent entry is 0.  X's entry
    (u + v i) / den equals x = (a + b i) / d exactly when u d = a den and
    v d = b den, so the entries are compared without a division, and a
    GaussianRational difference is formed only where they differ."""
    differences = []
    for row, target_row in zip(rows, target):
        rest = list(target_row)
        for c, u, v in row:
            x = rest[c]
            if u * x._d != x._a * den or v * x._d != x._b * den:
                differences.append(GaussianRational.from_integers(u, v, den) - x)
            rest[c] = ZERO
        # where X is absent the difference is -x
        differences.extend(-x for x in rest if x)
    return mat_magnitude([differences])


# -- the classical recursive construction (independent ground truth) -----------------


def hierarchy_oracle(problem: PerturbationProblem) -> list:
    """Order-by-order normalization by explicit generators.

    At order k the still-unnormalized coefficient X_k splits into its
    resonant part (the new N_k) and an off-resonant rest absorbed by the
    generator A_k = W_k / (i hbar), A_k[n][m] = X_k[n][m] / (E0(n) - E0(m))
    (``_oracle_generator``); conjugating by e = exp(mu^k A_k) clears order
    k and the loop moves on.  The conjugation is the sum over n of
    mu^(kn) ad_A^n(x) / n! (``_conjugated``), so no exponential and no
    product of two series is formed.  The resonant part of each A_k is
    fixed to zero (free gauge).  The series is not conjugated after order
    K, as nothing reads the result.

    The whole recursion runs on Gaussian integers.  Every matrix of it is
    held as (denominator, rows), each row a dict {column: (re, im)} of
    Gaussian-integer numerators, so its work follows the nonzeros.  The
    levels are the oracle's own integers over their common denominator,
    and hbar cancels from A_k, so the oracle reads only E0, V and the
    order.  It shares no kernel with ``build_conjugator`` or the checks,
    so no fault in them can make the oracle agree with them.
    GaussianRational values are formed only for the N_k it returns, one
    per nonzero resonant entry.  Returns [N_1..N_K].
    """
    K, e0, v = problem.order, problem.e0, problem.v
    dim = len(e0)
    # E0(n) = level[n] / d_e; H0 over d_e and V over the lcm of its denominators
    d_e = math.lcm(*(x.denominator for x in e0))
    level = [x.numerator * (d_e // x.denominator) for x in e0]
    v_den = math.lcm(*(y._d for row in v for y in row))
    v_rows = [
        {m: (y._a * (v_den // y._d), y._b * (v_den // y._d)) for m, y in enumerate(row) if y._a or y._b}
        for row in v
    ]
    x = [(d_e, [{n: (e, 0)} if e else {} for n, e in enumerate(level)]), (v_den, v_rows)]
    x += [(1, [{} for _ in range(dim)]) for _ in range(K - 1)]
    n_parts = []
    for k in range(1, K + 1):
        den, rows = x[k]
        n_k = [[ZERO] * dim for _ in range(dim)]
        for n, (row, out_row) in enumerate(zip(rows, n_k)):
            for m, (re, im) in row.items():
                if level[m] == level[n]:
                    out_row[m] = GaussianRational.from_integers(re, im, den)
        n_parts.append(tuple(tuple(row) for row in n_k))
        if k < K:
            x = _conjugated(x, _oracle_generator(x[k], level, d_e), k)
    return n_parts


def _oracle_generator(x_k: tuple, level: list, d_e: int) -> tuple:
    """A = W / (i hbar), A[n][m] = X[n][m] / (E0(n) - E0(m)) off resonance
    and zero on it, for X = x_k and E0(n) = level[n] / d_e, as
    (denominator, rows) like X: over the denominator of X times the lcm L
    of the integer gaps g present, entry (n, m) is X's numerator times
    d_e L / g.  No hbar enters: W = i hbar X / (E0(n) - E0(m)), and A
    divides it by i hbar again."""
    den, rows = x_k
    lcm = math.lcm(*{abs(level[n] - level[m]) for n, row in enumerate(rows) for m in row} - {0})
    a_rows = []
    for n, row in enumerate(rows):
        a_row = {}
        for m, (re, im) in row.items():
            g = level[n] - level[m]
            if g:
                s = d_e * lcm // g
                a_row[m] = (re * s, im * s)
        a_rows.append(a_row)
    return den * lcm, a_rows


def _conjugated(x: list, a: tuple, k: int) -> list:
    """The coefficients of e x e*, e = exp(mu^k A), for A anti-Hermitian,
    given as (denominator, rows) by ``_oracle_generator``, and every x_m
    Hermitian: the sum over n of mu^(kn) ad_A^n(x) / n!.  Term n is
    ad_(A/n) of term n - 1, the 1/n going into its denominator, and it is
    formed only on orders m >= n k, from order m - k of term n - 1.  Each
    order that gains terms is their sum over the lcm of their
    denominators, reduced once (``_order_sum``)."""
    K = len(x) - 1
    a_den, a_rows = a
    parts = [[c] for c in x]
    term = x
    for n in range(1, K // k + 1):
        a_n = (n * a_den, a_rows)
        term = {m: _ad_term(a_n, term[m - k]) for m in range(n * k, K + 1)}
        for m, t in term.items():
            parts[m].append(t)
    return [p[0] if len(p) == 1 else _order_sum(p) for p in parts]


def _ad_term(a: tuple, y: tuple) -> tuple:
    """ad_A(y) = A y - y A, for A anti-Hermitian and y Hermitian, all three
    as (denominator, rows): then y A = -(A y)*, so ad_A(y) = A y + (A y)*,
    over the product of the two denominators.  The product runs over the
    nonzero entries, and the mirror over the nonzero entries of the
    product."""
    (a_den, a_rows), (y_den, y_rows) = a, y
    p = []
    for a_row in a_rows:
        acc = {}
        for j, (ar, ai) in a_row.items():
            for l, (yr, yi) in y_rows[j].items():
                t = acc.get(l)
                if t is None:
                    acc[l] = [ar * yr - ai * yi, ar * yi + ai * yr]
                else:
                    t[0] += ar * yr - ai * yi
                    t[1] += ar * yi + ai * yr
        p.append(acc)
    out = [{l: list(t) for l, t in row.items()} for row in p]
    for n, row in enumerate(p):
        for l, (re, im) in row.items():
            t = out[l].get(n)
            if t is None:
                out[l][n] = [re, -im]
            else:
                t[0] += re
                t[1] -= im
    return a_den * y_den, out


def _order_sum(parts: list) -> tuple:
    """The sum of (denominator, rows) matrices: each is brought over the
    lcm of their denominators, entries that cancel are dropped, and the
    sum is reduced by one gcd of the lcm and every numerator."""
    lcm = math.lcm(*(d for d, _ in parts))
    acc = [{} for _ in parts[0][1]]
    for d, rows in parts:
        s = lcm // d
        for acc_row, row in zip(acc, rows):
            for m, (re, im) in row.items():
                t = acc_row.get(m)
                if t is None:
                    acc_row[m] = [re * s, im * s]
                else:
                    t[0] += re * s
                    t[1] += im * s
    rows = [{m: t for m, t in acc_row.items() if t[0] or t[1]} for acc_row in acc]
    g = math.gcd(lcm, *(v for row in rows for t in row.values() for v in t))
    return lcm // g, [{m: (re // g, im // g) for m, (re, im) in row.items()} for row in rows]


@dataclass
class OracleReport:
    orders_equal: list

    @property
    def ok(self) -> bool:
        return all(self.orders_equal)

    @property
    def first_mismatch(self) -> Optional[int]:
        return next((k for k, same in enumerate(self.orders_equal, start=1) if not same), None)

    def to_json(self) -> dict:
        return {"match": self.ok, "orders_equal": self.orders_equal, "first_mismatch": self.first_mismatch}


def compare_with_oracle(problem: PerturbationProblem, n_series: MatrixSeries) -> OracleReport:
    """N against the recursive construction, up to the normal form's gauge.

    With H0 degenerate the normal form is unique only up to a unitary
    change of basis inside each eigenspace of H0; only the eigenvalue
    content of each diagonal block is fixed.  Order k matches when every
    entry outside the diagonal blocks agrees exactly and, in each block of
    size m >= 2, the mu^k coefficients of tr(block^p), p = 1..m, agree
    (``_power_traces``).  A block of size 1 is its diagonal entry, and is
    compared exactly as one more entry, so for a simple spectrum this is
    the entrywise test and no trace is formed.
    """
    oracle = MatrixSeries([zero_matrix(problem.dim)] + hierarchy_oracle(problem))
    blocks = {}
    for i, level in enumerate(problem.levels[1]):
        blocks.setdefault(level, []).append(i)
    wide = [block for block in blocks.values() if len(block) > 1]
    ours = [t for block in wide for t in _power_traces(n_series, block)]
    theirs = [t for block in wide for t in _power_traces(oracle, block)]
    every = range(problem.dim)
    compared = [(i, j) for i in every for j in every if not problem.resonance[i][j]]
    compared += [(i, i) for block in blocks.values() if len(block) == 1 for i in block]
    flags = []
    for k in range(1, problem.order + 1):
        a = n_series.coeffs[k]
        b = oracle.coeffs[k]
        flags.append(
            all(a[i][j] == b[i][j] for i, j in compared)
            and all(x[k] == y[k] for x, y in zip(ours, theirs))
        )
    return OracleReport(orders_equal=flags)


def _power_traces(series: MatrixSeries, indices: Sequence[int]) -> list:
    """[tr(B^p) by order for p = 1..n], n = len(indices), B the series
    restricted to the rows and columns in ``indices``.

    The work is done in integers, each order of B and of its powers over
    its own denominator (``_integer_rows``, ``_gaussian_product``), with
    no reduction on the way.  Only B^1..B^m, m = ceil(n/2), are formed as
    series products, each order as its nonzero rows, so the cost follows
    the nonzero products.  For p > m, tr(B^p) is taken order by order as
    the sum over i, j of (B^m)_ij (B^(p-m))_ji, with p - m <= m: one pass
    over the nonzero entries of B^(p-m), each looking up its partner in
    the per-row dicts of B^m (``_split_trace``), instead of another
    product.  Each trace is one canonical GaussianRational per order.
    Every trace still comes from B alone."""
    n = len(indices)
    block = [[[a[i][j] for j in indices] for i in indices] for a in series.coeffs]
    powers = [[_integer_rows(a) for a in block]]
    for _ in range(1, (n + 1) // 2):
        powers.append(_gaussian_product(powers[-1], powers[0]))
    m = len(powers)
    traces = [[_diagonal_sum(*x) for x in power] for power in powers]
    top = [(den, [{c: (re, im) for c, re, im in row} for row in rows]) for den, rows in powers[-1]]
    return traces + [_split_trace(top, powers[p - m - 1]) for p in range(m + 1, n + 1)]


def _gaussian_product(left: list, right: list) -> list:
    """The truncated series product of two Gaussian-integer matrix series,
    each given per order as (den, rows), the nonzero rows of the order over
    den; per order k, (Q_k, rows), Q_k the lcm over j of the denominator
    products d_j d'_(k-j), each pair's left entries scaled onto Q_k.  A
    pair with a zero order on either side adds nothing, so it is left out
    of Q_k and of the loop, and Q_k is 1 when no pair is left.  Each
    output row is summed in a dict keyed by column, so the work follows the
    nonzero products; an entry that cancels to 0 + 0i is dropped, no gcd is
    taken, and the columns within a row come in no fixed order."""
    left_live = [any(rows) for _, rows in left]
    right_live = [any(rows) for _, rows in right]
    out = []
    for k in range(len(left)):
        pairs = [(left[j], right[k - j]) for j in range(k + 1) if left_live[j] and right_live[k - j]]
        den = math.lcm(*(dx * dy for (dx, _), (dy, _) in pairs))
        pairs = [(den // (dx * dy), a, b) for (dx, a), (dy, b) in pairs]
        rows = []
        for i in range(len(left[k][1])):
            acc = {}
            for s, a, b in pairs:
                for c, xr, xi in a[i]:
                    if s != 1:
                        xr, xi = xr * s, xi * s
                    for l, yr, yi in b[c]:
                        if l in acc:
                            t = acc[l]
                            t[0] += xr * yr - xi * yi
                            t[1] += xr * yi + xi * yr
                        else:
                            acc[l] = [xr * yr - xi * yi, xr * yi + xi * yr]
            rows.append([(l, re, im) for l, (re, im) in acc.items() if re or im])
        out.append((den, rows))
    return out


def _diagonal_sum(den: int, rows: list) -> GaussianRational:
    """The trace of the Gaussian-integer matrix over den given by its
    nonzero rows."""
    total_re = total_im = 0
    for i, row in enumerate(rows):
        for c, re, im in row:
            if c == i:
                total_re += re
                total_im += im
    return GaussianRational.from_integers(total_re, total_im, den)


def _split_trace(left: list, right: list) -> list:
    """tr(X Y) by order, one GaussianRational per order, X and Y given per
    order as (den, rows), X's rows as one dict {column: (re, im)} each: the
    sum over the entries Y_li of Y_li X_il, an absent X_il being 0, each
    pair of orders brought over the lcm of their denominator products."""
    out = []
    for k in range(len(left)):
        pairs = [(left[j], right[k - j]) for j in range(k + 1)]
        den = math.lcm(*(dx * dy for (dx, _), (dy, _) in pairs))
        pairs = [(den // (dx * dy), x, y) for (dx, x), (dy, y) in pairs]
        total_re = total_im = 0
        for s, x_rows, y_rows in pairs:
            pair_re = pair_im = 0
            for l, row in enumerate(y_rows):
                for i, yr, yi in row:
                    x = x_rows[i].get(l)
                    if x is not None:
                        xr, xi = x
                        pair_re += xr * yr - xi * yi
                        pair_im += xr * yi + xi * yr
            total_re, total_im = total_re + s * pair_re, total_im + s * pair_im
        out.append(GaussianRational.from_integers(total_re, total_im, den))
    return out


# -- eigenvalue series and the numeric cross-check ------------------------------------


def _normal_series(problem: PerturbationProblem, n_series: MatrixSeries) -> MatrixSeries:
    """H0 + N as a matrix series: H0 at order 0, N_k at order k."""
    return MatrixSeries([problem.h0_matrix] + list(n_series.coeffs[1:]))


def eigenvalue_series(problem: PerturbationProblem, n_series: MatrixSeries) -> Optional[dict]:
    """{level index: [E0(n), N_1[n][n], ..., N_K[n][n]]}, the diagonals of
    H0 + N, for a simple spectrum, whose levels move one by one; None for
    a degenerate one, whose blocks of N are reported instead.  The entries
    stay Gaussian rationals: a non-real one is printed as it is and
    flagged by the Hermiticity check of N."""
    if not problem.is_simple:
        return None
    coeffs = _normal_series(problem, n_series).coeffs
    return {n: [a[n][n] for a in coeffs] for n in range(problem.dim)}


@dataclass
class NumericSample:
    mu: Fraction
    errors: list
    ambiguous: bool
    skipped: Optional[str] = None  # why no comparison was made

    @property
    def max_error(self) -> Optional[float]:
        return None if self.skipped is not None else max(self.errors)

    def to_json(self) -> dict:
        out = {
            "mu": format_scalar(GaussianRational(self.mu)),
            "errors": self.errors,
            "max_error": self.max_error,
            "ambiguous": self.ambiguous,
        }
        if self.skipped is not None:
            out["skipped"] = self.skipped
        return out


def numeric_compare(
    problem: PerturbationProblem,
    n_series: MatrixSeries,
    mu_samples: Sequence[Fraction],
) -> list:
    """|double-precision eigenvalue - exact value|, one :class:`NumericSample`
    per sample.

    The numeric eigenvalues are those of H0 + mu V at the sample, from
    :func:`_hermitian_eigenvalues`, a cyclic Jacobi kernel that reads the
    lower triangle as LAPACK's eigvalsh does and agrees with it to within
    1e-13 max(1, max |lambda|) (tested); the exact values are read from
    (H0 + N) at the sample.  For a simple spectrum its diagonal entry n
    is level n's partial sum (see :func:`eigenvalue_series`), matched to
    the numeric eigenvalues by proximity; for a degenerate one its
    eigenvalues are compared in order.  A proximity match is flagged
    ambiguous when the two nearest numeric eigenvalues are closer than
    1e-8 times the spectral range.  Expected
    decay between samples is mu^(K+1) (or the first nonvanishing
    neglected order).  A sample whose exact matrix entries lie beyond the
    double-precision range is reported as skipped, with the reason; the
    exact checks do not depend on it.
    """
    h_series = MatrixSeries([problem.h0_matrix, problem.v])
    normal_series = _normal_series(problem, n_series)
    samples = []
    for mu in mu_samples:
        try:
            samples.append(_numeric_sample(h_series, normal_series, problem.is_simple, mu))
        except OverflowError:
            samples.append(
                NumericSample(
                    mu=mu,
                    errors=[],
                    ambiguous=False,
                    skipped="exact values exceed the double-precision range",
                )
            )
    return samples


def _numeric_sample(
    h_series: MatrixSeries, normal_series: MatrixSeries, simple: bool, mu: Fraction
) -> NumericSample:
    exact = normal_series.evaluate(mu)
    try:
        numeric = _hermitian_eigenvalues([[complex(x) for x in row] for row in h_series.evaluate(mu)])
        reference = None if simple else _hermitian_eigenvalues([[complex(x) for x in row] for row in exact])
    except ValueError as exc:
        raise ValueError(f"numeric diagonalization failed at mu = {mu}: {exc}") from exc
    spread = (numeric[-1] - numeric[0]) or 1.0
    tol = 1e-8 * spread
    ambiguous = False
    errors = []
    if simple:
        for n, row in enumerate(exact):
            value = complex(row[n])
            gaps = sorted(abs(x - value) for x in numeric)
            if len(gaps) > 1 and gaps[1] - gaps[0] < tol:
                ambiguous = True
            errors.append(gaps[0])
    else:
        errors = [abs(a - b) for a, b in zip(numeric, reference)]
    return NumericSample(mu=mu, errors=errors, ambiguous=ambiguous)


def _hermitian_eigenvalues(rows: list, sweeps: int = 50) -> list:
    """The eigenvalues, ascending, of the Hermitian matrix whose lower
    triangle is ``rows`` (lists of complex), read as LAPACK's eigvalsh
    reads it: the upper triangle and the imaginary part of the diagonal
    are ignored.

    Cyclic Jacobi on the full matrix.  The rotation at (p, q) first takes
    the phase of a_pq into column q, then makes the real rotation with
    a_pp -= t |a_pq|, a_qq += t |a_pq| and tau = s / (1 + c) (Demmel and
    Veselic, SIAM J. Matrix Anal. Appl. 13, 1992).  An a_pq below the
    rounding of both a_pp and a_qq is set to zero; a sweep with no
    rotation ends the run.  The entries are first divided by the power of
    two at their largest part, so no square or sum overflows, and the
    eigenvalues are multiplied back by it exactly.  Raises ValueError when
    ``sweeps`` sweeps do not converge.
    """
    n = len(rows)
    top = max(
        [abs(rows[i][i].real) for i in range(n)]
        + [abs(x) for i in range(n) for z in rows[i][:i] for x in (z.real, z.imag)],
        default=0.0,
    )
    e = math.frexp(top)[1]
    d = [math.ldexp(rows[i][i].real, -e) for i in range(n)]
    a = [[0j] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            z = rows[i][j]
            a[i][j] = complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e))
            a[j][i] = a[i][j].conjugate()
    for _ in range(sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                r = abs(apq)
                if not r:
                    continue
                a[p][q] = a[q][p] = 0j
                dp, dq = d[p], d[q]
                if abs(dp) + 100 * r == abs(dp) and abs(dq) + 100 * r == abs(dq):
                    continue
                rotated = True
                theta = (dq - dp) / (2 * r)
                t = 1 / (abs(theta) + math.hypot(1.0, theta))
                if theta < 0:
                    t = -t
                c = 1 / math.sqrt(1 + t * t)
                s = t * c
                tau = s / (1 + c)
                d[p] = dp - t * r
                d[q] = dq + t * r
                phase = apq.conjugate() / r
                for k in range(n):
                    if k != p and k != q:
                        g = a[k][p]
                        h = a[k][q] * phase
                        a[k][p] = g - s * (h + tau * g)
                        a[k][q] = h + s * (g - tau * h)
                        a[p][k] = a[k][p].conjugate()
                        a[q][k] = a[k][q].conjugate()
        if not rotated:
            return sorted(math.ldexp(x, e) for x in d)
    raise ValueError(f"no convergence in {sweeps} Jacobi sweeps")


# -- whole pipeline --------------------------------------------------------------------


@dataclass
class NormalizationOutput:
    problem: PerturbationProblem
    n_series: MatrixSeries
    c_series: MatrixSeries
    conjugacy: ConjugacyReport
    oracle: OracleReport
    eigen: Optional[dict]  # see eigenvalue_series
    numeric: Optional[list] = None  # NumericSample per mu sample

    @property
    def ok(self) -> bool:
        return self.conjugacy.ok and self.oracle.ok

    @functools.cached_property
    def decomposition(self) -> SpectralDecomposition:
        """The word route's alphabet and components, built on first read."""
        return spectral_decompose(self.problem)

    @functools.cached_property
    def coefficient_table(self) -> dict:
        """The word route's {word: {"N": N^w, "S": S^w}}, built on first read."""
        return build_normal_form(self.decomposition, BirkhoffEngine(self.decomposition.alphabet))[1]

    def to_json_dict(self) -> dict:
        alphabet = self.decomposition.alphabet
        words = sorted(self.coefficient_table, key=lambda w: (len(w), w))
        return {
            "problem": self.problem.to_json_dict(),
            "alphabet": [format_scalar(v) for v in alphabet.letters],
            "coefficients": [
                {
                    "word": alphabet.render_word(w),
                    "N": format_scalar(self.coefficient_table[w]["N"]),
                    "S": format_scalar(self.coefficient_table[w]["S"]),
                }
                for w in words
            ],
            "N_matrices": {
                str(k): mat_to_json(self.n_series.coeffs[k])
                for k in range(1, self.problem.order + 1)
            },
            "C_matrices": {
                str(k): mat_to_json(self.c_series.coeffs[k])
                for k in range(self.problem.order + 1)
            },
            "eigenvalue_series": (
                {str(n): [format_scalar(c) for c in coeffs] for n, coeffs in sorted(self.eigen.items())}
                if self.eigen is not None
                else {"degenerate_blocks": self.n_series.to_json()}
            ),
            "verification": {
                **self.conjugacy.to_json(),
                "oracle_match": self.oracle.ok,
                "numeric": [s.to_json() for s in self.numeric] if self.numeric else None,
            },
        }


def solve(problem: PerturbationProblem, mu_samples: Sequence[Fraction] = ()) -> NormalizationOutput:
    """Run the whole pipeline on one problem and verify it."""
    c_series, n_series = build_conjugator(problem)
    return NormalizationOutput(
        problem=problem,
        n_series=n_series,
        c_series=c_series,
        conjugacy=verify_conjugacy(problem, n_series, c_series),
        oracle=compare_with_oracle(problem, n_series),
        eigen=eigenvalue_series(problem, n_series),
        numeric=numeric_compare(problem, n_series, mu_samples) if mu_samples else None,
    )
