"""Exact arithmetic in the Gaussian rationals Q(i).

Every coefficient downstream (alphabet letters, Laurent coefficients,
matrix entries) is a :class:`GaussianRational`, so comparison against zero
is decidable and algebraic identities can be verified exactly.  Plain
rationals are handled by :class:`fractions.Fraction` from the standard
library; this module only adds the imaginary unit on top of it.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "GaussianRational",
    "ScalarParseError",
    "parse_scalar",
    "format_scalar",
    "ZERO",
    "ONE",
    "I",
]


_gcd = math.gcd
_new = object.__new__


class ScalarParseError(ValueError):
    """Malformed scalar literal; carries the offending position."""

    def __init__(self, text: str, pos: int, reason: str):
        super().__init__(f"bad scalar literal {text!r} at position {pos}: {reason}")
        self.text = text
        self.pos = pos
        self.reason = reason


class GaussianRational:
    """An exact complex number a + b*i with rational a and b.

    Values are immutable and canonical: internally a triple of integers
    (a, b, d) standing for (a + b*i) / d, with d > 0 and
    gcd(a, b, d) == 1, so zero is exactly (0, 0, 1) and equal values
    have equal triples.  The integer triple keeps the hot arithmetic
    paths on machine-speed int operations instead of a pair of
    Fractions.

    Most matrix and series entries are zero or Gaussian integers, so
    ``+``, ``-`` and ``*`` take shortcuts that keep the invariant:

    - a zero operand returns the other operand, or ``ZERO`` for a
      product, without a gcd;
    - a sum where either denominator is 1 skips ``math.gcd``: a prime
      dividing both new numerators and d would divide the whole triple
      of the operand with d > 1;
    - a product of two Gaussian integers has d == 1 and skips it too;
    - over equal denominators d > 1 the numerators are added directly
      and reduced by one gcd (1/2 + 1/2 = 1).

    Every other result is reduced by one gcd; ``x - y`` is ``x + (-y)``.
    ``GaussianRational(int, int)`` builds (re, im, 1) without going
    through ``Fraction``.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a = re
            self._b = im
            self._d = 1
            return
        re = re if isinstance(re, Fraction) else Fraction(re)
        im = im if isinstance(im, Fraction) else Fraction(im)
        d = re.denominator * im.denominator // math.gcd(re.denominator, im.denominator)
        a = re.numerator * (d // re.denominator)
        b = im.numerator * (d // im.denominator)
        g = math.gcd(a, b, d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        self._a = a
        self._b = b
        self._d = d

    @staticmethod
    def _raw(a: int, b: int, d: int) -> "GaussianRational":
        # trusted constructor: (a, b, d) must already be canonical
        self = _new(GaussianRational)
        self._a = a
        self._b = b
        self._d = d
        return self

    @staticmethod
    def from_integers(a: int, b: int, d: int) -> "GaussianRational":
        """(a + b i) / d for ints a, b and d > 0, reduced by one gcd."""
        g = _gcd(a, b, d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        return GaussianRational._raw(a, b, d)

    # -- inspection ---------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def is_real(self) -> bool:
        return self._b == 0

    @property
    def is_imaginary(self) -> bool:
        return self._a == 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._raw(self._a, -self._b, self._d)

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    # -- field operations ---------------------------------------------

    def __neg__(self) -> "GaussianRational":
        return GaussianRational._raw(-self._a, -self._b, self._d)

    def __pos__(self) -> "GaussianRational":
        return self

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        c, e, f = other._a, other._b, other._d
        if not (c or e):
            return self
        a, b, d = self._a, self._b, self._d
        if not (a or b):
            return other
        if d == f:
            a += c
            b += e
            if d != 1:
                g = _gcd(a, b, d)
                if g > 1:
                    a //= g
                    b //= g
                    d //= g
        elif d == 1:
            a = a * f + c
            b = b * f + e
            d = f
        elif f == 1:
            a += c * d
            b += e * d
        else:
            a = a * f + c * d
            b = b * f + e * d
            d *= f
            g = _gcd(a, b, d)
            if g > 1:
                a //= g
                b //= g
                d //= g
        out = _new(GaussianRational)
        out._a = a
        out._b = b
        out._d = d
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        c, e, f = other._a, other._b, other._d
        a, b, d = self._a, self._b, self._d
        if not (a or b) or not (c or e):
            return ZERO
        a, b = a * c - b * e, a * e + b * c
        if d != 1 or f != 1:
            d *= f
            g = _gcd(a, b, d)
            if g > 1:
                a //= g
                b //= g
                d //= g
        out = _new(GaussianRational)
        out._a = a
        out._b = b
        out._d = d
        return out

    __rmul__ = __mul__

    def reciprocal(self) -> "GaussianRational":
        n = self._a * self._a + self._b * self._b
        if n == 0:
            raise ZeroDivisionError("reciprocal of zero")
        return GaussianRational.from_integers(self._d * self._a, -self._d * self._b, n)

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.__mul__(o.reciprocal())

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.__mul__(self.reciprocal())

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.reciprocal() ** (-exponent)
        out = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        if self._b == 0:
            # agree with hash(int) / hash(Fraction) for real values
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussianRational({format_scalar(self)!r})"


def _coerce(x) -> GaussianRational | None:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, int):
        return GaussianRational._raw(x, 0, 1)
    if isinstance(x, Fraction):
        return GaussianRational._raw(x.numerator, 0, x.denominator)
    return None


ZERO = GaussianRational._raw(0, 0, 1)
ONE = GaussianRational._raw(1, 0, 1)
I = GaussianRational._raw(0, 1, 1)


# -- text form ----------------------------------------------------------
#
# Grammar:  [+-]? p (/q)? ([+-] (r (/s)?)? i)?   |   [+-]? (r (/s)?)? i
# No internal whitespace; denominators must be nonzero.


def parse_scalar(text: str) -> GaussianRational:
    """Parse a scalar literal such as "3/4", "-1/2+2/3i" or "i"."""
    stripped = text.strip()
    offset = text.index(stripped) if stripped else 0
    s = stripped
    n = len(s)
    i = 0

    def fail(pos: int, reason: str):
        raise ScalarParseError(text, offset + pos, reason)

    def read_sign() -> int:
        nonlocal i
        if i < n and s[i] in "+-":
            i += 1
            return -1 if s[i - 1] == "-" else 1
        return 1

    def read_uint(what: str) -> int:
        nonlocal i
        start = i
        while i < n and s[i] in "0123456789":
            i += 1
        if i == start:
            fail(start, f"expected {what}")
        return _parse_digits(s[start:i])

    def read_rational() -> Fraction:
        nonlocal i
        p = read_uint("a numerator")
        if i < n and s[i] == "/":
            i += 1
            qpos = i
            q = read_uint("a denominator")
            if q == 0:
                fail(qpos, "zero denominator")
            return Fraction(p, q)
        return Fraction(p)

    if n == 0:
        fail(0, "empty scalar")

    sign1 = read_sign()
    if i < n and s[i] == "i":
        i += 1
        re_part, im_part = Fraction(0), Fraction(sign1)
    else:
        mag = read_rational()
        if i < n and s[i] == "i":
            i += 1
            re_part, im_part = Fraction(0), sign1 * mag
        else:
            re_part, im_part = sign1 * mag, Fraction(0)
            if i < n and s[i] in "+-":
                sign2 = read_sign()
                if i < n and s[i] == "i":
                    i += 1
                    im_part = Fraction(sign2)
                else:
                    mag2 = read_rational()
                    if i < n and s[i] == "i":
                        i += 1
                        im_part = sign2 * mag2
                    else:
                        fail(i, "expected 'i' after the imaginary part")
    if i != n:
        fail(i, "trailing characters")
    return GaussianRational(re_part, im_part)


def _parse_digits(digits: str) -> int:
    """int(digits), for digits with an optional leading "-", past the
    interpreter's int/str digit limit in halves."""
    try:
        return int(digits)
    except ValueError:
        if digits[0] == "-":
            return -_parse_digits(digits[1:])
        k = len(digits) // 2
        return _parse_digits(digits[:-k]) * 10**k + _parse_digits(digits[-k:])


def _decimal(n: int) -> str:
    """str(n), past the int/str digit limit split at a power of ten."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # log10(2) ~ 0.3
        high, low = divmod(abs(n), 10**k)
        return ("-" if n < 0 else "") + _decimal(high) + _decimal(low).zfill(k)


def _ratio_str(n: int, d: int) -> str:
    """n/d in lowest terms, d > 0; a whole number prints without "/1"."""
    g = _gcd(n, d)
    try:
        return str(n // g) if g == d else f"{n // g}/{d // g}"
    except ValueError:  # past the interpreter's limit on int/str conversion
        return _decimal(n // g) if g == d else _decimal(n // g) + "/" + _decimal(d // g)


def format_scalar(z: GaussianRational) -> str:
    """Canonical literal; round-trips through :func:`parse_scalar`."""
    a, b, d = z._a, z._b, z._d
    if b == 0:
        return _ratio_str(a, d)
    unit = "i" if abs(b) == d else _ratio_str(abs(b), d) + "i"
    if a == 0:
        return "-" + unit if b < 0 else unit
    return _ratio_str(a, d) + ("-" if b < 0 else "+") + unit
