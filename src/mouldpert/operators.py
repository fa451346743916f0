"""Finite Hermitian matrix problems driven by the scalar moulds.

A perturbation problem is H0 + mu*V with H0 = diag(E0) exact-rational and
V an exact Hermitian matrix.  The normal form N and the unitary
conjugator C come from one Birkhoff decomposition of the matrix series
built from H0, V and hbar alone (``build_conjugator``); the Hermitian
generator is W = i hbar log C, by the truncated matrix logarithm.  No
alphabet, component or word enters them.  That decomposition runs on
Laurent series in e' held as Gaussian-integer numerators over one
denominator per order, on a fixed window of degrees, and makes
GaussianRational values only for C_k and N_k; the logarithm and the
checks of ``verify_conjugacy`` (conjugacy, unitarity, traces) use one
integer format, per row the (column, re, im) triples of its nonzero
entries over a shared denominator (``_integer_rows``), and their
products return it (``_gaussian_product``), so their cost follows the
nonzeros; W becomes GaussianRational values once, at the end.  No
series product of GaussianRational matrices is formed: the recursive
oracle (``hierarchy_oracle``) conjugates by exp(ad), one sparse matrix
product of GaussianRational entries per order and term
(``_accumulate``), a kernel the checks do not share.  The word route
splits V into eigencomponents B_lam of the rescaled commutator with H0
(``spectral_decompose``) and sums N^w times nested brackets
(``build_normal_form``); it is built only for the coefficient table of
the solve JSON, and the tests keep it, and the mould expansion of W
(log(S)^w / len(w) times nested brackets), as independent references.
Everything is exact except the final optional comparison against a
double-precision eigensolver.

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


def _denominator(matrices) -> int:
    """The lcm of the entry denominators of GaussianRational matrices (a
    zero entry's is 1)."""
    return math.lcm(*{x._d for a in matrices for row in a for x in row})


def _integer_rows(a: tuple, den: int) -> list:
    """Per row of a, the (column, re, im) triples of its nonzero entries,
    each entry the Gaussian integer re + im i over den, a multiple of every
    entry denominator: the one integer format of the exact kernels."""
    # a GaussianRational is the canonical integer triple (_a + _b i) / _d
    return [
        [(j, x._a * (den // x._d), x._b * (den // x._d)) for j, x in enumerate(row) if x._a or x._b]
        for row in a
    ]


def _nonzero_rows(a: tuple) -> list:
    """Per row of a, the (column, entry) pairs of its nonzero entries."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in a]


def _accumulate(out: list, a_rows: list, b_rows: list) -> None:
    """out += a b, with a and b given by their nonzero rows and out a list
    of mutable rows; the work is proportional to the nonzero products."""
    for out_row, a_row in zip(out, a_rows):
        for j, x in a_row:
            for l, y in b_rows[j]:
                out_row[l] = out_row[l] + x * y


def mat_mul(a: tuple, b: tuple) -> tuple:
    out = [[ZERO] * len(a) for _ in a]
    _accumulate(out, _nonzero_rows(a), _nonzero_rows(b))
    return tuple(tuple(row) for row in out)


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


def mat_is_zero(a: tuple) -> bool:
    return all(not x for row in a for x in row)


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
    """V split into eigencomponents of X -> [H0, X] / (i hbar).

    The alphabet collects the distinct letters lam = (E0(k) - E0(l))/(i hbar)
    over the support of V; V is Hermitian, so lam(l, k) = -lam(k, l) is
    always there and the alphabet is closed under negation.
    Component matrices satisfy [H0, B_lam]/(i hbar) = lam * B_lam exactly and
    sum to V; the adjoint of B_lam is B_(-lam).
    """

    def __init__(self, problem: PerturbationProblem):
        self.problem = problem
        dim = problem.dim
        inv_hbar = Fraction(1) / problem.hbar
        letter_of: dict = {}
        for k in range(dim):
            for l in range(dim):
                if problem.v[k][l]:
                    lam = GaussianRational(0, (problem.e0[k] - problem.e0[l]) * (-inv_hbar))
                    letter_of[(k, l)] = lam
        ordered = sorted(set(letter_of.values()), key=lambda z: (z.re, z.im))
        self.alphabet = Alphabet(ordered)
        components = [
            [[ZERO] * dim for _ in range(dim)] for _ in range(len(ordered))
        ]
        for (k, l), lam in letter_of.items():
            components[self.alphabet.index(lam)][k][l] = problem.v[k][l]
        self.components = tuple(tuple(tuple(row) for row in comp) for comp in components)
        self.inv_ihbar = GaussianRational(0, -inv_hbar)
        # nonzero rows of B/(i hbar) and -B/(i hbar), the factors of the brackets
        self._left_rows = [_nonzero_rows(mat_scale(self.inv_ihbar, b)) for b in self.components]
        self._right_rows = [_nonzero_rows(mat_scale(-self.inv_ihbar, b)) for b in self.components]

    def sparse_left_bracket(self, letter_index: int, x: tuple) -> tuple:
        """[B_letter, x] / (i hbar) = (B/(i hbar)) x + x (-B/(i hbar)), over
        the nonzero rows of the factors."""
        dim = self.problem.dim
        out = [[ZERO] * dim for _ in range(dim)]
        x_rows = _nonzero_rows(x)
        _accumulate(out, self._left_rows[letter_index], x_rows)
        _accumulate(out, x_rows, self._right_rows[letter_index])
        return tuple(tuple(row) for row in out)

    def reachable_sums(self, max_letters: int) -> list:
        """reach[m] = set of letter sums attainable with at most m letters."""
        values = self.alphabet.letters
        reach = [{ZERO}]
        for _ in range(max_letters):
            grown = set(reach[-1])
            for s in reach[-1]:
                for v in values:
                    grown.add(s + v)
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

    Words are walked right to left so each step costs one sparse bracket;
    prefixes that cannot be completed to a word with zero letter sum are
    pruned before their bracket is formed (coefficients of nonresonant
    words vanish by the support property, which the verification suite
    checks independently), and branches die as soon as the bracket
    vanishes.
    """
    problem = sd.problem
    K = problem.order
    totals = [[[ZERO] * problem.dim for _ in range(problem.dim)] for _ in range(K + 1)]
    table: dict = {}
    letters = range(len(sd.alphabet))
    values = sd.alphabet.letters
    reach = sd.reachable_sums(K)

    def visit(word: tuple, sigma: GaussianRational, bracket: Optional[tuple], depth: int):
        if depth > 0 and not sigma:
            c = engine.coeff_N(word)
            if c:
                for out_row, row in zip(totals[depth], bracket):
                    for j, x in enumerate(row):
                        if x:
                            out_row[j] = out_row[j] + c * x
                table[word] = {"N": c, "S": engine.coeff_S(word)}
        if depth == K:
            return
        for i in letters:
            sigma2 = sigma + values[i]
            if -sigma2 not in reach[K - depth - 1]:
                continue
            if depth == 0:
                extended = sd.components[i]
            else:
                extended = sd.sparse_left_bracket(i, bracket)
            if mat_is_zero(extended):
                continue
            visit((i,) + word, sigma2, extended, depth + 1)

    visit((), ZERO, None, 0)
    return MatrixSeries([tuple(tuple(row) for row in rows) for rows in totals]), table


def build_conjugator(problem: PerturbationProblem) -> tuple:
    """(C, W, N) from H0, V and hbar alone, by the Birkhoff decomposition
    of the matrix series:
    Phi(A)_m = sum over |w| = m of A^w B_(w1) ... B_(wm) turns
    U_minus x T = U_plus into Phi(U_minus) Phi(T) = Phi(U_plus), solved
    order by order.  Letter sums telescope along index chains a -> c to
    g / (i hbar), with the real gap g = E0(a) - E0(c).  In e' = i hbar e
    the factor of T at step m is i hbar / (g + m e'), so Phi(T)_m and X_m
    carry exactly (i hbar)^m, and the recursion runs without hbar:
    from Phi(T)_0 = I (T on the empty word is 1), Phi(T)_m is
    Phi(T)_(m-1) V with entry (a, c) times 1/(g + m e'), and no word is
    enumerated.  From X_m = Phi(T)_m + sum over 0 < j < m of
    Phi(U_minus)_j Phi(T)_(m-j): Phi(U_minus)_m = -polar(X_m),
    C_m = const(X_m), and N_m = m res(X_m), as N is alternal
    (Dynkin-Specht-Wever).  hbar enters only W = i hbar log C
    (``_generator``), whose Hermiticity tests unitarity and whose W_1 the
    oracle checks.  No alphabet, component or word is built: those serve
    only the solve JSON.

    Windows.  Every entry of Phi(T)_m has degrees >= -m (one pole per
    zero gap), and the recursion reads it only through degree K - m:
    Phi(U_minus)_j Phi(T)_m, with j <= K - m, is needed only through
    degree 0, and Phi(U_minus)_j has degrees -j..-1; the step to order
    m + 1 reads one degree higher only at a zero gap, where the factor is
    (1/(m + 1)) e'^-1.  So Phi(T)_m is held on the fixed window
    -m..K-m, K + 1 coefficients, and X_m only on -m..0: each product is
    truncated at degree 0.  With g != 0, 1/(g/D + m e'), D the common
    denominator of the levels (``PerturbationProblem.levels``), is the
    series sum over e of D (-m D)^e / g^(e+1) e'^e, of which degrees
    0..K-1 reach the window; over |g|^K its coefficients are the integers
    D (-m D)^e g^(K-1-e), times the sign of g^K.  With g = 0 the factor
    shifts the window by one degree over the multiplier m.

    Denominators.  Each order is held as Gaussian-integer numerators
    (re, im ints per coefficient) over one positive denominator: that of
    Phi(T)_(m-1), times that of V, times the lcm of the multipliers |g|^K
    and m of the gaps present; X_m is over the lcm of the denominators of
    its terms.  Phi(T)_m and Phi(U_minus)_m are reduced once, by the gcd
    of their denominator and all their numerators.  GaussianRational
    values are formed only for C_m and N_m, one gcd per entry.
    """
    dim, K = problem.dim, problem.order
    v_den = _denominator([problem.v])
    v = (v_den, _integer_rows(problem.v, v_den))
    # Phi(T)_m and Phi(U_minus)_m as (denominator, rows): per row, the
    # (column, re, im) of its nonzero entries, re and im the numerators of
    # degrees -m..K-m for Phi(T)_m and -m..-1 for Phi(U_minus)_m
    t_series = [(1, [[(a, [1] + [0] * K, [0] * (K + 1))] for a in range(dim)])]
    u_series = [None]
    c_coeffs, n_coeffs = [identity_matrix(dim)], [zero_matrix(dim)]
    for m in range(1, K + 1):
        t_series.append(_next_t(t_series[-1], v, problem.levels, m, K))
        x_den, x_rows = _x_window(t_series, u_series, m)
        c_coeffs.append(_degree_matrix(x_rows, x_den, m, 1))
        n_coeffs.append(_degree_matrix(x_rows, x_den, m - 1, m))
        polar = [[(c, [-v for v in re[:m]], [-v for v in im[:m]]) for c, re, im in row] for row in x_rows]
        u_series.append(_reduced(x_den, polar))
    c_series = MatrixSeries(c_coeffs)
    return c_series, _generator(c_series, problem.hbar), MatrixSeries(n_coeffs)


def _next_t(t: tuple, v: tuple, levels: tuple, m: int, K: int) -> tuple:
    """Phi(T)_m from Phi(T)_(m-1) = t, both on their windows and V = v, all
    three as (denominator, rows) (see ``build_conjugator``):
    Phi(T)_(m-1) V, entry (a, c) divided by g/D + m e'."""
    (t_den, t_rows), (v_den, v_rows) = t, v
    den, level = levels
    zeros = [0] * (K + 1)
    products = []
    for t_row in t_rows:
        acc = {}
        for b, re, im in t_row:
            for c, vr, vi in v_rows[b]:
                sr, si = acc.get(c, (zeros, zeros))
                if not vi:
                    sr = [s + x * vr for s, x in zip(sr, re)]
                    si = [s + y * vr for s, y in zip(si, im)]
                elif not vr:
                    sr = [s - y * vi for s, y in zip(sr, im)]
                    si = [s + x * vi for s, x in zip(si, re)]
                else:
                    sr = [s + x * vr - y * vi for s, x, y in zip(sr, re, im)]
                    si = [s + x * vi + y * vr for s, x, y in zip(si, re, im)]
                acc[c] = (sr, si)
        products.append(acc)
    gaps = {level[a] - level[c] for a, acc in enumerate(products) for c in acc}
    multiplier = {g: abs(g) ** K if g else m for g in gaps}
    lcm = math.lcm(*multiplier.values())
    factors = {}
    for g in gaps - {0}:
        # D (-m D)^e g^(K-1-e) over |g|^K, times the sign of g^K, then over lcm
        scale = (-1 if g < 0 and K % 2 else 1) * (lcm // multiplier[g]) * den
        factors[g] = [scale * (-m * den) ** e * g ** (K - 1 - e) for e in range(K)]
    shift = lcm // m  # read only at a zero gap, where m divides lcm
    rows = []
    for a, acc in enumerate(products):
        row = []
        for c, (re, im) in acc.items():
            g = level[a] - level[c]
            if g:
                f = factors[g]
                re = [0] + [sum(map(mul, re[i::-1], f)) for i in range(K)]
                im = [0] + [sum(map(mul, im[i::-1], f)) for i in range(K)]
            elif shift != 1:
                re, im = [x * shift for x in re], [x * shift for x in im]
            row.append((c, re, im))
        rows.append(row)
    return _reduced(t_den * v_den * lcm, rows)


def _x_window(t_series: list, u_series: list, m: int) -> tuple:
    """(denominator, rows) of X_m = Phi(T)_m + sum over 0 < j < m of
    Phi(U_minus)_j Phi(T)_(m-j) on degrees -m..0 (index 0..m)."""
    t_den, t_rows = t_series[m]
    x_den = math.lcm(t_den, *(u_series[j][0] * t_series[m - j][0] for j in range(1, m)))
    s = x_den // t_den
    window = [
        {c: ([v * s for v in re[: m + 1]], [v * s for v in im[: m + 1]]) for c, re, im in row}
        for row in t_rows
    ]
    for j in range(1, m):
        u_den, u_rows = u_series[j]
        right_den, right = t_series[m - j]
        s = x_den // (u_den * right_den)
        for acc, u_row in zip(window, u_rows):
            for b, ur, ui in u_row:
                if s != 1:
                    ur, ui = [v * s for v in ur], [v * s for v in ui]
                for c, tr, ti in right[b]:
                    if c not in acc:
                        acc[c] = ([0] * (m + 1), [0] * (m + 1))
                    xr, xi = acc[c]
                    # index u of U times index t of T lands on index u + t <= m
                    for u, (yr, yi) in enumerate(zip(ur, ui)):
                        if yi:
                            xr[u:] = [x + yr * p - yi * q for x, p, q in zip(xr[u:], tr, ti)]
                            xi[u:] = [x + yr * q + yi * p for x, p, q in zip(xi[u:], tr, ti)]
                        elif yr:
                            xr[u:] = [x + yr * p for x, p in zip(xr[u:], tr)]
                            xi[u:] = [x + yr * q for x, q in zip(xi[u:], ti)]
    return x_den, [[(c, re, im) for c, (re, im) in acc.items()] for acc in window]


def _degree_matrix(rows: list, den: int, index: int, factor: int) -> tuple:
    """The GaussianRational matrix of factor times coefficient ``index`` of
    the entries of rows, over den."""
    out = [[ZERO] * len(rows) for _ in rows]
    for out_row, row in zip(out, rows):
        for c, re, im in row:
            if re[index] or im[index]:
                out_row[c] = GaussianRational.from_integers(factor * re[index], factor * im[index], den)
    return tuple(tuple(row) for row in out)


def _reduced(den: int, rows: list) -> tuple:
    """(den, rows) without the entries whose numerators all vanish, divided
    by the gcd of den and every numerator."""
    rows = [[(c, re, im) for c, re, im in row if any(re) or any(im)] for row in rows]
    g = math.gcd(den, *(v for row in rows for _, re, im in row for part in (re, im) for v in part))
    if g == 1:
        return den, rows
    return den // g, [
        [(c, [v // g for v in re], [v // g for v in im]) for c, re, im in row] for row in rows
    ]


def _generator(c_series: MatrixSeries, hbar: Fraction) -> MatrixSeries:
    """W = i hbar log C, C_0 = I, as the log series of X = C - I on the
    integer kernel.  X_k is held as Gaussian integers over E^k, E the lcm
    of the entry denominators of C_1..C_K (``_integer_rows``), so order k
    of every power X^j is over E^k too (``_gaussian_product``); the powers
    stop at the first that vanishes, and at X^K, since X_0 = 0.  The log's
    weights are the integers of ``_log_weights`` over L, so order k of
    log C sums to Gaussian integers re + im i over L E^k, and with
    hbar = p/q each entry of W_k is one canonical value
    (-p im + p re i) / (q L E^k)."""
    dim = c_series.dim
    x = [zero_matrix(dim)] + list(c_series.coeffs[1:])
    e = _denominator(x)
    base = power = [_integer_rows(a, e**k) for k, a in enumerate(x)]
    lcm, weights = _log_weights(c_series.order)
    # per order and row, {column: (re, im)} of the weighted sum of powers
    total = [[{} for _ in range(dim)] for _ in x]
    for j, weight in enumerate(weights):
        if j:
            power = _gaussian_product(power, base)
            if not any(map(any, power)):
                break
        for sums, rows in zip(total, power):
            for acc, row in zip(sums, rows):
                for c, xr, xi in row:
                    re, im = acc.get(c, (0, 0))
                    acc[c] = (re + weight * xr, im + weight * xi)
    p, q = hbar.numerator, hbar.denominator
    coeffs = []
    for k, sums in enumerate(total):
        den = q * lcm * e**k
        rows = []
        for acc in sums:
            row = [ZERO] * dim
            for c, (re, im) in acc.items():
                if re or im:
                    row[c] = GaussianRational.from_integers(-p * im, p * re, den)
            rows.append(tuple(row))
        coeffs.append(tuple(rows))
    return MatrixSeries(coeffs)


def _log_weights(order: int) -> tuple:
    """(L, [(-1)^(j-1) L / j for j = 1..order]), L = lcm(1..order): the
    coefficients of log(I + X) = sum over j of (-1)^(j-1) X^j / j, as
    integers over L."""
    lcm = math.lcm(*range(1, order + 1))
    return lcm, [(-1) ** (j - 1) * (lcm // j) for j in range(1, order + 1)]


# -- verification ------------------------------------------------------------------


@dataclass
class ConjugacyReport:
    """Exact residuals of the normalization identities, per order in mu."""

    conjugacy_magnitude: list
    unitarity_magnitude: list
    commutation_ok: list
    hermitian_ok: list
    trace_ok: dict
    generator_hermitian: bool

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
            and self.generator_hermitian
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
            "generator_hermitian": self.generator_hermitian,
        }


def verify_conjugacy(
    problem: PerturbationProblem,
    n_series: MatrixSeries,
    c_series: MatrixSeries,
    w_series: MatrixSeries,
) -> ConjugacyReport:
    """C (H0 + mu V) C* - (H0 + N) must vanish identically through the
    truncation order, alongside unitarity, [H0, N_k] = 0, Hermiticity of
    N_k and of W, and conservation of tr((H0 + mu V)^p).

    C, N and W are read as the GaussianRational series that ``solve``
    outputs.  The products run on the integer kernel: order k of C is
    written as Gaussian integers over F^k, F the lcm of the entry
    denominators of C_1..C_K and of V (``_integer_rows``), H0 over D,
    the common denominator of the levels (``PerturbationProblem.levels``),
    and V over D F; C* is C's rows transposed, imaginary parts negated.  So
    order k of C H and of C H C* is over D F^k, and order k of C C* over
    F^k (``_gaussian_product``), with no reduction on the way; each
    product is held as its nonzero rows and feeds the next as it is.
    Order k is compared with H0 + N and with I in integers
    (``_integer_residual``), where an entry absent from the rows is 0,
    and an entry becomes a GaussianRational only where the two differ, so
    the residual magnitudes are exactly those of the differences
    C H C* - (H0 + N) and C C* - I.  The oracle keeps its own product of
    GaussianRational entries (``_accumulate``): the checks and the oracle
    share no product kernel that one fault could make agree.  As H0 is
    diagonal, [H0, N_k] = 0 is read as N_k equal to its resonant part."""
    dim, order = problem.dim, problem.order
    (d, level), f = problem.levels, _denominator(c_series.coeffs[1:] + (problem.v,))
    c_rows = [_integer_rows(a, f**k) for k, a in enumerate(c_series.coeffs)]
    c_adj = [_adjoint_rows(rows) for rows in c_rows]
    h_rows = [[[(i, e, 0)] if e else [] for i, e in enumerate(level)], _integer_rows(problem.v, d * f)]
    h_rows += [[[] for _ in range(dim)] for _ in range(order - 1)]
    ch_rows = _gaussian_product(c_rows, h_rows)
    conjugated = _gaussian_product(ch_rows, c_adj)
    unitary = _gaussian_product(c_rows, c_adj)
    rhs = _normal_series(problem, n_series)
    identity = MatrixSeries.from_orders(dim, order, {0: identity_matrix(dim)})
    commutation = [n == problem.resonant_part(n) for n in n_series.coeffs[1:]]
    hermitian = [mat_is_hermitian(n) for n in n_series.coeffs[1:]]
    every = range(dim)
    pairs = zip(_power_traces(problem.h_series(), every), _power_traces(rhs, every))
    trace_ok = {p: a == b for p, (a, b) in enumerate(pairs, start=1)}
    return ConjugacyReport(
        conjugacy_magnitude=[
            _integer_residual(p, d * f**k, a) for k, (p, a) in enumerate(zip(conjugated, rhs.coeffs))
        ],
        unitarity_magnitude=[
            _integer_residual(p, f**k, a) for k, (p, a) in enumerate(zip(unitary, identity.coeffs))
        ],
        commutation_ok=commutation,
        hermitian_ok=hermitian,
        trace_ok=trace_ok,
        generator_hermitian=all(mat_is_hermitian(w) for w in w_series.coeffs),
    )


def _adjoint_rows(rows: list) -> list:
    """The nonzero rows of the adjoint of a Gaussian-integer matrix given by
    its nonzero rows: transposed, imaginary parts negated."""
    out = [[] for _ in rows]
    for j, row in enumerate(rows):
        for i, re, im in row:
            out[i].append((j, re, -im))
    return out


def _integer_residual(rows: list, den: int, target: tuple) -> int:
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


def hierarchy_oracle(problem: PerturbationProblem) -> tuple:
    """Order-by-order normalization by explicit generators.

    At order k the still-unnormalized coefficient X_k splits into its
    resonant part (the new N_k) and an off-resonant rest absorbed by
    W_k[n][m] = i hbar X_k[n][m] / (E0(n) - E0(m)) (``_oracle_generator``);
    conjugating by e = exp(mu^k A), A = W_k / (i hbar), clears order k and
    the loop moves on.  The conjugation is the sum over n of
    mu^(kn) ad_A^n(x) / n! (``_conjugated``), so no exponential and no
    product of two series is formed.  The resonant part of each W_k is
    fixed to zero (free gauge), and so is every entry where X_k vanishes,
    without forming its weight.  A step whose W_k vanishes conjugates
    nothing, and the series is not conjugated after order K, as nothing
    reads the result.  The constants are the oracle's own, not shared
    with ``build_conjugator``.  Returns ([N_1..N_K], [W_1..W_K]).
    """
    K = problem.order
    e0 = problem.e0
    p, q = problem.hbar.numerator, problem.hbar.denominator
    inv_ihbar = GaussianRational(0, -1 / problem.hbar)

    @functools.cache
    def weight(n: int, m: int) -> GaussianRational:
        """i hbar / (E0(n) - E0(m)) = i p b / (q a) for the gap a / b and
        hbar = p / q; zero on resonance."""
        gap = e0[n] - e0[m]
        if not gap:
            return ZERO
        sign = 1 if gap > 0 else -1
        return GaussianRational.from_integers(0, sign * p * gap.denominator, q * abs(gap.numerator))

    x = list(problem.h_series().coeffs)
    n_parts = []
    w_parts = []
    for k in range(1, K + 1):
        w_k = _oracle_generator(x[k], weight)
        n_parts.append(problem.resonant_part(x[k]))
        w_parts.append(w_k)
        a_rows = [[(m, inv_ihbar * w) for m, w in row] for row in _nonzero_rows(w_k)]
        if k < K and any(a_rows):
            x = _conjugated(x, a_rows, k)
    return n_parts, w_parts


def _oracle_generator(a: tuple, weight) -> tuple:
    """W[n][m] = a[n][m] weight(n, m), weight(n, m) = i hbar / (E0(n) -
    E0(m)) off resonance and zero on it; no weight is formed where a
    vanishes."""
    return tuple(
        tuple(y * weight(n, m) if y else ZERO for m, y in enumerate(row))
        for n, row in enumerate(a)
    )


def _conjugated(x: list, a_rows: list, k: int) -> list:
    """The coefficients of e x e*, e = exp(mu^k a), for a anti-Hermitian,
    given by its nonzero rows, and every x_m Hermitian: the sum over n of
    mu^(kn) ad_a^n(x) / n!.  Term n is ad_(a/n) of term n - 1, so no term
    is rescaled, and it is formed only on orders m >= n k, from order
    m - k of term n - 1."""
    K = len(x) - 1
    out = [[list(row) for row in c] for c in x]
    term = x
    for n in range(1, K // k + 1):
        inverse = GaussianRational.from_integers(1, 0, n)
        a_n = [[(j, z * inverse) for j, z in row] for row in a_rows]
        term = {m: _ad_term(a_n, term[m - k]) for m in range(n * k, K + 1)}
        for m, t in term.items():
            for out_row, row in zip(out[m], t):
                for j, y in enumerate(row):
                    if y:
                        out_row[j] = out_row[j] + y
    return [tuple(tuple(row) for row in c) for c in out]


def _ad_term(a_rows: list, y) -> list:
    """ad_a(y) = a y - y a for a anti-Hermitian, given by its nonzero rows,
    and y Hermitian: then y a = -(a y)*, so ad_a(y) = a y + (a y)*, one
    product mirrored."""
    dim = len(y)
    p = [[ZERO] * dim for _ in range(dim)]
    _accumulate(p, a_rows, _nonzero_rows(y))
    return [
        [u + v.conjugate() if v else u for u, v in zip(row, column)]
        for row, column in zip(p, zip(*p))
    ]


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


def compare_with_oracle(
    problem: PerturbationProblem, n_series: MatrixSeries, w_series: MatrixSeries
) -> OracleReport:
    """N against the recursive construction, up to the normal form's gauge,
    and W_1 against the oracle's W_1.

    With H0 degenerate the normal form is unique only up to a unitary
    change of basis inside each eigenspace of H0; only the eigenvalue
    content of each diagonal block is fixed.  Order k matches when every
    entry outside the diagonal blocks agrees exactly and, in each block of
    size m >= 2, the mu^k coefficients of tr(block^p), p = 1..m, agree
    (``_power_traces``).  A block of size 1 is its diagonal entry, and is
    compared exactly as one more entry, so for a simple spectrum this is
    the entrywise test and no trace is formed.  Both constructions fix the
    resonant part of W_1 to zero, so W_1 is the same in both, and order 1
    matches only if W_1 does too: this is the one check of the scale of W,
    which nothing else reads.  The higher W_k differ, as the oracle
    composes one exponential per order.
    """
    n_parts, w_parts = hierarchy_oracle(problem)
    oracle = MatrixSeries([zero_matrix(problem.dim)] + n_parts)
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
            and (k > 1 or w_series.coeffs[1] == w_parts[0])
        )
    return OracleReport(orders_equal=flags)


def _power_traces(series: MatrixSeries, indices: Sequence[int]) -> list:
    """[tr(B^p) by order for p = 1..n], n = len(indices), B the series
    restricted to the rows and columns in ``indices``.

    The work is done in integers (``_integer_rows``), with one denominator
    per order: B_0 over D0, the lcm of its entry denominators, and B_k,
    k >= 1, over D0 E^k, E the lcm of the entry denominators of all orders
    k >= 1.  Each product of p coefficients whose orders sum to k is then
    over D0^p E^k, so order k of B^p is a matrix of Gaussian integers over
    D0^p E^k and no sum or product is reduced on the way.  Only
    B^1..B^m, m = ceil(n/2), are formed as series products, each order
    as its nonzero rows (``_gaussian_product``), so the cost follows the
    nonzero products.  For p > m, tr(B^p) is taken order by order as the
    sum over i, j of (B^m)_ij (B^(p-m))_ji, with p - m <= m: one pass
    over the nonzero entries of B^(p-m), each looking up its partner in
    the per-row dicts of B^m (``_split_trace``), instead of another
    product.  Each trace becomes a canonical GaussianRational once, as
    (its integer sum) / (D0^p E^k).  Every trace still comes from B
    alone."""
    n = len(indices)
    block = [[[a[i][j] for j in indices] for i in indices] for a in series.coeffs]
    d0, e = _denominator(block[:1]), _denominator(block[1:])
    base_rows = top_rows = [_integer_rows(a, d0 * e**k) for k, a in enumerate(block)]
    powers = [base_rows]
    for _ in range(1, (n + 1) // 2):
        top_rows = _gaussian_product(top_rows, base_rows)
        powers.append(top_rows)
    m = len(powers)
    sums = [[_diagonal_sum(rows) for rows in power] for power in powers]
    top = [[{c: (re, im) for c, re, im in row} for row in rows] for rows in top_rows]
    for p in range(m + 1, n + 1):
        sums.append(_split_trace(top, powers[p - m - 1]))
    return [
        [GaussianRational.from_integers(re, im, d0**p * e**k) for k, (re, im) in enumerate(by_order)]
        for p, by_order in enumerate(sums, start=1)
    ]


def _gaussian_product(left: list, right: list) -> list:
    """The truncated series product of two Gaussian-integer matrix series,
    each given per order by the nonzero rows of its coefficient; per order,
    the nonzero rows of the product.  Each output row is summed in a dict
    keyed by column, so the work follows the nonzero products; an entry
    that cancels to 0 + 0i is dropped, and the columns within a row come
    in no fixed order."""
    out = []
    for k in range(len(left)):
        pairs = [(left[j], right[k - j]) for j in range(k + 1)]
        rows = []
        for i in range(len(left[k])):
            acc = {}
            for a, b in pairs:
                for c, xr, xi in a[i]:
                    for l, yr, yi in b[c]:
                        if l in acc:
                            s = acc[l]
                            s[0] += xr * yr - xi * yi
                            s[1] += xr * yi + xi * yr
                        else:
                            acc[l] = [xr * yr - xi * yi, xr * yi + xi * yr]
            rows.append([(l, re, im) for l, (re, im) in acc.items() if re or im])
        out.append(rows)
    return out


def _diagonal_sum(rows: list) -> tuple:
    """The trace, as (real, imaginary) integers, of a Gaussian-integer
    matrix given by its nonzero rows."""
    total_re = total_im = 0
    for i, row in enumerate(rows):
        for c, re, im in row:
            if c == i:
                total_re += re
                total_im += im
    return total_re, total_im


def _split_trace(left: list, right: list) -> list:
    """tr(X Y) by order as (real, imaginary) integers, X given per order
    by one dict {column: (re, im)} per row of its coefficient and Y by the
    nonzero rows of its coefficients: the sum over the entries Y_li of
    Y_li X_il, an absent X_il being 0."""
    out = []
    for k in range(len(left)):
        total_re = total_im = 0
        for j in range(k + 1):
            x_rows = left[j]
            for l, row in enumerate(right[k - j]):
                for i, yr, yi in row:
                    x = x_rows[i].get(l)
                    if x is not None:
                        xr, xi = x
                        total_re += xr * yr - xi * yi
                        total_im += xr * yi + xi * yr
        out.append((total_re, total_im))
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


def _to_complex_matrix(a: tuple):
    import numpy as np  # only the numeric cross-check needs it

    return np.array([[complex(x) for x in row] for row in a], dtype=complex)


def numeric_compare(
    problem: PerturbationProblem,
    n_series: MatrixSeries,
    mu_samples: Sequence[Fraction],
) -> list:
    """|double-precision eigenvalue - exact value|, one :class:`NumericSample`
    per sample.

    The numeric eigenvalues are those of H0 + mu V at the sample; the
    exact values are read from (H0 + N) at the sample.  For a simple
    spectrum its diagonal entry n is level n's partial sum (see
    :func:`eigenvalue_series`), matched to the numeric eigenvalues by
    proximity; for a degenerate one its eigenvalues are compared in order.
    A proximity match is flagged ambiguous when the two nearest numeric
    eigenvalues are closer than 1e-8 times the spectral range.  Expected
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
    import numpy as np  # only the numeric cross-check needs it

    try:
        numeric = np.linalg.eigvalsh(_to_complex_matrix(h_series.evaluate(mu)))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"numeric diagonalization failed at mu = {mu}: {exc}") from exc
    spread = float(numeric[-1] - numeric[0]) or 1.0
    tol = 1e-8 * spread
    ambiguous = False
    errors = []
    exact = normal_series.evaluate(mu)
    if simple:
        for n, row in enumerate(exact):
            gaps = np.abs(numeric - complex(row[n]))
            order = np.argsort(gaps)
            best = gaps[order[0]]
            if len(order) > 1 and gaps[order[1]] - best < tol:
                ambiguous = True
            errors.append(float(best))
    else:
        reference = np.linalg.eigvalsh(_to_complex_matrix(exact))
        errors = [float(abs(a - b)) for a, b in zip(numeric, reference)]
    return NumericSample(mu=mu, errors=errors, ambiguous=ambiguous)


# -- whole pipeline --------------------------------------------------------------------


@dataclass
class NormalizationOutput:
    problem: PerturbationProblem
    n_series: MatrixSeries
    c_series: MatrixSeries
    w_series: MatrixSeries
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
    c_series, w_series, n_series = build_conjugator(problem)
    return NormalizationOutput(
        problem=problem,
        n_series=n_series,
        c_series=c_series,
        w_series=w_series,
        conjugacy=verify_conjugacy(problem, n_series, c_series, w_series),
        oracle=compare_with_oracle(problem, n_series, w_series),
        eigen=eigenvalue_series(problem, n_series),
        numeric=numeric_compare(problem, n_series, mu_samples) if mu_samples else None,
    )
