"""Truncated formal Laurent series in e over the Gaussian rationals.

A :class:`Laurent` value represents an element of C((e)) known exactly on
a window of degrees.  ``acc_order`` is the highest degree whose
coefficient is guaranteed; degrees above it are *unknown*, not zero.
``acc_order is None`` means every coefficient is exact, i.e. the value is
a finite Laurent polynomial; the canonical zero is the empty polynomial
with infinite accuracy, so exactly-vanishing values short-circuit
arithmetic.

In the word engine this is the check route's type; the source's fixed
windows are plain tuples, which ``window_json`` prints.

The direct-sum split C((e)) = e^-1 C[e^-1] (+) C[[e]] drives everything
downstream: ``polar_part``/``regular_part`` are the two projections and
``residue``/``constant_term`` read the e^-1 and e^0 coefficients.

Accuracy bookkeeping follows one rule: a product of f and g is
guaranteed through min(acc(f) + mindeg(g), acc(g) + mindeg(f))
(``_product_acc``), and a sum of products through the least of its
terms' bounds.  Every sum and product is formed in one coefficient table
(:meth:`Laurent.sum_of_products`): ``*`` is its one-term case, and
f + g is f * 1 + g * 1, so a sum keeps the worse window of its
operands.  Division by a linear s + r e runs the recurrence
q_k = (p_k - r q_{k-1}) / s (:meth:`Laurent.over_linear`).  ``inverse``
is the general series inverse; no computation in the package calls it,
but the benchmark's per-layer micro case times it.

Consumers that need a deeper window must request it explicitly; reading
an unguaranteed coefficient raises :class:`InsufficientAccuracyError`
instead of returning a silently wrong value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .scalars import GaussianRational, ONE, ZERO, format_scalar

__all__ = ["Laurent", "InsufficientAccuracyError", "window_json"]


class InsufficientAccuracyError(ArithmeticError):
    """A coefficient beyond the guaranteed window was required."""


def _product_acc(acc_f: Optional[int], low_f: int, acc_g: Optional[int], low_g: int) -> Optional[int]:
    """Accuracy of f * g from each factor's accuracy and valuation bound:
    min(acc f + mindeg g, acc g + mindeg f), None when both are exact."""
    if acc_f is None:
        return None if acc_g is None else acc_g + low_f
    if acc_g is None:
        return acc_f + low_g
    return min(acc_f + low_g, acc_g + low_f)


class Laurent:
    """Immutable truncated Laurent series with tracked accuracy."""

    __slots__ = ("_min", "_coeffs", "_acc")

    def __init__(self, min_degree: int, coeffs: Iterable[GaussianRational], acc_order: Optional[int] = None):
        coeffs = list(coeffs)
        if acc_order is not None:
            # stored coefficients above the guaranteed window are meaningless
            keep = acc_order - min_degree + 1
            coeffs = coeffs[:max(keep, 0)]
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
            min_degree += 1
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self._coeffs = tuple(coeffs)
        self._min = min_degree if coeffs else 0
        self._acc = acc_order

    # -- constructors ---------------------------------------------------

    @staticmethod
    def _raw(min_degree: int, coeffs: tuple, acc_order: Optional[int]) -> "Laurent":
        # trusted constructor: coeffs must already be trimmed at both ends
        out = object.__new__(Laurent)
        out._min = min_degree
        out._coeffs = coeffs
        out._acc = acc_order
        return out

    @classmethod
    def zero(cls) -> "Laurent":
        return _EXACT_ZERO

    @classmethod
    def one(cls) -> "Laurent":
        return _EXACT_ONE

    @classmethod
    def monomial(cls, c, degree: int) -> "Laurent":
        if isinstance(c, (int, Fraction)):
            c = GaussianRational(c)
        return cls(degree, (c,), None)

    @classmethod
    def from_pairs(cls, pairs, acc_order: Optional[int] = None) -> "Laurent":
        """Build from (degree, scalar) pairs; scalars may be int/Fraction."""
        table = {}
        for deg, c in pairs:
            if isinstance(c, (int, Fraction)):
                c = GaussianRational(c)
            table[deg] = table.get(deg, ZERO) + c
        if not table:
            return cls(0, (), acc_order)
        lo = min(table)
        hi = max(table)
        return cls(lo, [table.get(k, ZERO) for k in range(lo, hi + 1)], acc_order)

    # -- inspection -------------------------------------------------------

    @property
    def acc_order(self) -> Optional[int]:
        return self._acc

    @property
    def is_exact_zero(self) -> bool:
        return not self._coeffs and self._acc is None

    def __bool__(self) -> bool:
        """False only for the exact zero (a windowed zero is unknown above it)."""
        return not self.is_exact_zero

    @property
    def min_degree(self) -> Optional[int]:
        """Degree of the lowest stored coefficient; None if no term is stored."""
        return self._min if self._coeffs else None

    @property
    def max_degree(self) -> Optional[int]:
        return self._min + len(self._coeffs) - 1 if self._coeffs else None

    def min_degree_bound(self) -> int:
        """A certified lower bound on the true valuation.

        Exact for nonzero stored values; for a value that vanishes through
        a finite window the bound is acc_order + 1.  Undefined for the
        exact zero (callers must short-circuit that case first).
        """
        if self._coeffs:
            return self._min
        if self._acc is None:
            raise ValueError("the exact zero has no valuation bound")
        return self._acc + 1

    def coefficient(self, degree: int) -> GaussianRational:
        if self._acc is not None and degree > self._acc:
            raise InsufficientAccuracyError(
                f"coefficient of e^{degree} requested but only degrees <= {self._acc} are guaranteed"
            )
        if not self._coeffs or not (self._min <= degree <= self.max_degree):
            return ZERO
        return self._coeffs[degree - self._min]

    def residue(self) -> GaussianRational:
        return self.coefficient(-1)

    def constant_term(self) -> GaussianRational:
        return self.coefficient(0)

    # -- ring operations --------------------------------------------------

    def __neg__(self) -> "Laurent":
        return Laurent._raw(self._min, tuple(-c for c in self._coeffs), self._acc)

    def __add__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return Laurent.sum_of_products(((self, _EXACT_ONE), (other, _EXACT_ONE)))

    def __sub__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.__add__(-other)

    def scale(self, c) -> "Laurent":
        """Multiply by an exact scalar."""
        if isinstance(c, (int, Fraction)):
            c = GaussianRational(c)
        if not c:
            return _EXACT_ZERO
        return Laurent._raw(self._min, tuple(x * c for x in self._coeffs), self._acc)

    def shift(self, k: int) -> "Laurent":
        """Multiply by e^k."""
        if k == 0 or self.is_exact_zero:
            return self
        return Laurent._raw(self._min + k, self._coeffs, None if self._acc is None else self._acc + k)

    def __mul__(self, other):
        if isinstance(other, (GaussianRational, int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        return Laurent.sum_of_products(((self, other),))

    @staticmethod
    def sum_of_products(terms) -> "Laurent":
        """The sum of f * g over the (f, g) pairs of ``terms``, formed in one
        coefficient table.

        The one accumulator of the class: ``*`` and ``+`` are its cases.
        A pair with an exact-zero factor adds nothing;
        every other pair bounds the accuracy by its product rule
        (``_product_acc``), windowed zeros included, and the sum keeps the
        least of those bounds.  Only degrees up to that bound are formed.
        The result is the exact zero when every pair is exact and they
        cancel.
        """
        acc = None
        lo = hi = None
        live = []
        for f, g in terms:
            f_coeffs, f_acc = f._coeffs, f._acc
            g_coeffs, g_acc = g._coeffs, g._acc
            if f_coeffs:
                f_low = f._min
            elif f_acc is None:
                continue
            else:
                f_low = f_acc + 1
            if g_coeffs:
                g_low = g._min
            elif g_acc is None:
                continue
            else:
                g_low = g_acc + 1
            bound = _product_acc(f_acc, f_low, g_acc, g_low)
            if bound is not None and (acc is None or bound < acc):
                acc = bound
            if f_coeffs and g_coeffs:
                low = f_low + g_low
                top = low + len(f_coeffs) + len(g_coeffs) - 2
                if lo is None or low < lo:
                    lo = low
                if hi is None or top > hi:
                    hi = top
                live.append((low, f_coeffs, g_coeffs))
        if acc is not None and hi is not None and acc < hi:
            hi = acc
        if lo is None or hi < lo:
            return _EXACT_ZERO if acc is None else Laurent(0, (), acc)
        width = hi - lo + 1
        out = [ZERO] * width
        for low, f_coeffs, g_coeffs in live:
            k = low - lo
            for a in f_coeffs:
                room = width - k
                if room <= 0:
                    break
                if a:
                    for j, b in enumerate(g_coeffs[:room], k):
                        if b:
                            out[j] = out[j] + (a if b is ONE else a * b)
                k += 1
        return Laurent(lo, out, acc)

    def over_linear(self, s: GaussianRational, r: int, need: int) -> "Laurent":
        """self / (s + r e): the coefficients and window of self times the
        inverse of s + r e known through degree need >= 0.

        For s != 0 the quotient is run up the recurrence
        q_k = (p_k - r q_{k-1}) / s from the valuation of self to the
        product accuracy min(acc(self), need + mindeg(self)).  For s == 0
        the inverse is the exact (1/r) e^-1: a scale and a shift.
        """
        if self.is_exact_zero:
            return _EXACT_ZERO
        if not s:
            return self.scale(GaussianRational.from_integers(1, 0, r)).shift(-1)
        acc = _product_acc(self._acc, self.min_degree_bound(), need, 0)
        if not self._coeffs or acc < self._min:
            return Laurent(0, (), acc)
        inv_s = s.reciprocal()
        minus_r = GaussianRational(-r)
        p = self._coeffs
        q = [p[0] * inv_s]
        for k in range(1, acc - self._min + 1):
            step = q[-1] * minus_r
            if k < len(p):
                step = step + p[k]
            q.append(step * inv_s)
        return Laurent(self._min, q, acc)

    __rmul__ = __mul__

    def inverse(self, target_acc: int) -> "Laurent":
        """Multiplicative inverse g with self * g == 1 through degree target_acc.

        The package itself divides only by linear factors (``over_linear``);
        this general inverse is the tests' reference for that division and
        the benchmark's micro case.
        """
        if self.is_exact_zero:
            raise ZeroDivisionError("inverting the exact zero series")
        if not self._coeffs:
            raise InsufficientAccuracyError(
                "cannot invert: leading coefficient unknown (value vanishes through its window)"
            )
        d = self._min
        if self._acc is not None and self._acc < target_acc + d:
            raise InsufficientAccuracyError(
                f"inverse through degree {target_acc} needs the operand through degree "
                f"{target_acc + d}, but only degrees <= {self._acc} are guaranteed"
            )
        c = self._coeffs[0]
        if len(self._coeffs) == 1 and self._acc is None:
            return Laurent.monomial(c.reciprocal(), -d)
        n = max(target_acc, 0)
        inv_c = c.reciprocal()
        a = [ (self._coeffs[j] * inv_c if j < len(self._coeffs) else ZERO) for j in range(n + 1) ]
        b = [ONE] + [ZERO] * n
        for k in range(1, n + 1):
            s = ZERO
            for j in range(1, k + 1):
                if a[j]:
                    s = s + a[j] * b[k - j]
            b[k] = -s
        return Laurent(-d, [x * inv_c for x in b], target_acc - d)

    # -- the K = K+ (+) K- split -----------------------------------------

    def polar_part(self) -> "Laurent":
        """Projection onto e^-1 C[e^-1]; always an exact finite polynomial."""
        if self._acc is not None and self._acc < -1:
            raise InsufficientAccuracyError(
                "polar part undetermined: negative degrees above the guaranteed window"
            )
        if not self._coeffs or self._min >= 0:
            return _EXACT_ZERO
        return Laurent(self._min, self._coeffs[: -self._min], None)

    def regular_part(self) -> "Laurent":
        """Projection onto C[[e]]; requires a guaranteed degree-0 coefficient."""
        if self._acc is not None and self._acc < 0:
            raise InsufficientAccuracyError(
                "regular part undetermined: degree 0 is above the guaranteed window"
            )
        if not self._coeffs:
            return Laurent(0, (), self._acc)
        if self._min >= 0:
            return Laurent(self._min, self._coeffs, self._acc)
        return Laurent(0, self._coeffs[-self._min:], self._acc)

    # -- comparison ---------------------------------------------------------

    def agrees_with(self, other: "Laurent", through: int) -> bool:
        """Exact coefficientwise agreement for all degrees <= through.

        Both operands must guarantee the window; otherwise the comparison
        would be vacuous and an InsufficientAccuracyError is raised.
        """
        for f in (self, other):
            if f._acc is not None and f._acc < through:
                raise InsufficientAccuracyError(
                    f"agreement through degree {through} requested but only degrees <= {f._acc} are guaranteed"
                )
        degs = set()
        for f in (self, other):
            if f._coeffs:
                degs.update(range(f._min, min(f.max_degree, through) + 1))
        return all(self.coefficient(k) == other.coefficient(k) for k in degs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Laurent):
            return NotImplemented
        return (
            self._coeffs == other._coeffs
            and self._acc == other._acc
            and (self._min == other._min or not self._coeffs)
        )

    __hash__ = None  # mutable-window semantics make hashing a trap

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        """Report form "c e^-k + ... + c e^m"."""
        if not self._coeffs:
            return "0"
        parts = []
        for offset, c in enumerate(self._coeffs):
            if not c:
                continue
            k = self._min + offset
            if k == 0:
                parts.append(format_scalar(c))
                continue
            if c == ONE:
                head = ""
            elif c == -ONE:
                head = "-"
            else:
                text = format_scalar(c)
                if ("+" in text[1:]) or ("-" in text[1:]):
                    text = f"({text})"
                head = text + " "
            parts.append(f"{head}e^{k}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        tail = "" if self._acc is None else f" + O(e^{self._acc + 1})"
        return f"<Laurent {self.render()}{tail}>"


def window_json(low: int, coeffs, through: Optional[int] = None) -> dict:
    """JSON form of the coefficients coeffs of degrees low, low + 1, ...:
    degree -> scalar literal, of the nonzero coefficients of degrees
    <= through when it is given."""
    if through is not None:
        coeffs = coeffs[: max(0, through - low + 1)]
    return {str(low + offset): format_scalar(c) for offset, c in enumerate(coeffs) if c}


_EXACT_ZERO = Laurent(0, (), None)
_EXACT_ONE = Laurent(0, (ONE,), None)
