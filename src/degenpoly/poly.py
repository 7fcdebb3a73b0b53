"""Exact sparse polynomial arithmetic over the rationals in lambda, x and y.

A polynomial is stored fraction-free, in the layout of FLINT's ``fmpq_poly``:
``num`` maps packed monomial keys to nonzero integer numerators, all over one
common denominator ``den``.  The form is canonical: ``den > 0``,
``gcd(den, *num.values()) == 1`` and the zero polynomial is ``({}, 1)``, so
equality of ``(num, den)`` is mathematical equality of polynomials.  A
product multiplies integers and denominators, a sum works over the lcm of
the two denominators, and each result is reduced by one multi-argument gcd,
so no per-coefficient :class:`fractions.Fraction` arithmetic is paid.
:func:`sum_of_products` reduces a whole ``sum c * p * q`` once, not per addend,
and ``p * q`` is its one-term case.  A product with a zero factor, integer
or polynomial, is ``ZERO`` with no kernel call.  An integer scale ``p * c``
needs no reduction pass: ``gcd(den, *num) == 1`` makes ``gcd(den, c)`` the
whole common factor, so the result is ``num * (c // g)`` over ``den // g``.
:attr:`MultiPoly.terms` gives the coefficients as reduced ``Fraction`` values.

Monomial keys.  The monomial ``lambda^a * x^b * y^c`` is the one int
``c << 40 | b << 20 | a``: three 20-bit fields, lambda in the low field,
then x, then y, as in the packed monomials of sparse polynomial
multiplication (Monagan and Pearce, J. Symb. Comp. 46, 2011).  So a
monomial product is one int sum ``k1 + k2``.  Lambda is low because most
products are in lambda alone: CPython hashes an int to its own value and
takes a dict slot from its low bits, so keys that differ in lambda start on
different probe chains.  A lambda-only key is its own exponent, a one-digit
int and a cached small int up to 256, so ``k1 + k2`` is one-digit
arithmetic; a ``(lambda, x)`` key with x-degree below 1024 is one digit
too.  Each exponent lies in ``0..MAX_EXPONENT`` (``2^19 - 1``); the top
bit of each field is a guard bit, clear in every stored key.  Two fields
below the limit sum to at most ``2^20 - 2``, so a sum never carries into
the next field and sets the field's guard bit exactly when the exponent
passes the limit: :func:`sum_of_products` then raises ``OverflowError``
rather than wrap.  The public interface speaks in exponent triples
``(a, b, c)``: ``MultiPoly(terms)`` takes them (anything else raises
``ValueError``), and ``terms`` gives them back.

The canonical text form orders monomials by descending exponent triple
(lambda weighs more than x, x more than y), e.g. ``lambda^2 - 3*lambda +
2`` or ``3/2*lambda + x^2``.  That is not key order: :func:`term_texts`
sorts by :func:`_rank`, the triple packed lambda high, cached per key.  The
package writes this text and never reads it back.  Scalars are ``int`` or
``Fraction``; any other scalar, a float or a string included, raises
``TypeError``.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from typing import Iterable, Mapping, TypeVar, Union

Exponents = tuple[int, int, int]
Scalar = Union[int, Fraction]
R = TypeVar("R")  # a ring element: a polynomial or a truncated series

SYMBOLS = ("lambda", "x", "y")

# the packed monomial key: one 20-bit field per symbol, lambda lowest
MAX_EXPONENT = 2**19 - 1
_FIELD = 2**20 - 1
_SHIFT = {"lambda": 0, "x": 20, "y": 40}
_GUARD = 1 << 59 | 1 << 39 | 1 << 19


def _pack(exps: Exponents) -> int:
    """The key of ``lambda^a * x^b * y^c``, for a triple of ints in ``0..MAX_EXPONENT``."""
    if isinstance(exps, tuple) and len(exps) == 3:
        a, b, c = exps
        if type(a) is int and type(b) is int and type(c) is int:
            if 0 <= a <= MAX_EXPONENT and 0 <= b <= MAX_EXPONENT and 0 <= c <= MAX_EXPONENT:
                return c << 40 | b << 20 | a
    raise ValueError(f"exponents must be a triple of ints in 0..{MAX_EXPONENT}, got {exps!r}")


def _unpack(key: int) -> Exponents:
    return (key & _FIELD, key >> 20 & _FIELD, key >> 40)


def _fraction(value: Scalar) -> Fraction:
    """``value`` as a Fraction; only an int or a Fraction is a scalar."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"scalar must be an int or a Fraction, got {type(value).__name__}")
    return Fraction(value)


def read_count(value: int, name: str = "n_max", least: int = 0) -> int:
    """Every count (``n_max``, an order, r, an index): an ``int``, never a bool, ``>= least``."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


def _shift(symbol: str) -> int:
    if symbol not in _SHIFT:
        raise ValueError(f"unknown symbol {symbol!r}, expected one of {SYMBOLS}")
    return _SHIFT[symbol]


def _canonical(num: dict[int, int], den: int) -> "MultiPoly":
    """``num / den`` (``den > 0``) as a :class:`MultiPoly` in canonical form.

    Drops zero numerators and divides out ``gcd(den, *num.values())``; the
    zero polynomial comes out as ``({}, 1)``.  ``num`` is taken over, not copied.
    """
    if 0 in num.values():
        num = {key: v for key, v in num.items() if v}
    if not num:
        den = 1
    else:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {key: v // g for key, v in num.items()}
            den //= g
    p = object.__new__(MultiPoly)
    p.num = num
    p.den = den
    return p


class MultiPoly:
    """Sparse polynomial in lambda, x, y with exact rational coefficients.

    ``num`` maps packed monomial keys (see the module docstring: 20-bit
    fields, lambda low, then x, then y, each exponent at most
    ``MAX_EXPONENT = 2^19 - 1`` with the field's top bit as guard) to integer
    numerators over the one common denominator ``den``.  ``MultiPoly(terms)``
    takes ``{(a, b, c): coefficient}`` and raises ``ValueError`` for any key
    that is not a triple of ints in ``0..MAX_EXPONENT``.  Instances are
    treated as immutable; all operations return new objects.  Scalars (int
    or Fraction, nothing else) mix freely with polynomials in ``+ - * ==``.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms: Mapping[Exponents, Scalar] | None = None):
        coeffs = {_pack(exps): _fraction(c) for exps, c in (terms or {}).items()}
        coeffs = {key: c for key, c in coeffs.items() if c}
        # over the lcm of reduced denominators the numerators share no factor
        # with den, so the result is already canonical
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self.num = {key: c.numerator * (den // c.denominator) for key, c in coeffs.items()}
        self.den = den

    @classmethod
    def const(cls, value: Scalar) -> "MultiPoly":
        c = _fraction(value)
        return _canonical({0: c.numerator}, c.denominator)

    @classmethod
    def sym(cls, name: str) -> "MultiPoly":
        return _canonical({1 << _shift(name): 1}, 1)

    @classmethod
    def zero(cls) -> "MultiPoly":
        return _canonical({}, 1)

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """The coefficients as a fresh ``{exponents: Fraction}`` map (read-only view)."""
        den = self.den
        return {_unpack(key): Fraction(v, den) for key, v in self.num.items()}

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other)
        return None

    def __add__(self, other) -> "MultiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            return self
        if not self.num:
            return o
        d1, d2 = self.den, o.den
        if d1 == d2:
            out, scale, den = dict(self.num), 1, d1
        else:
            g = math.gcd(d1, d2)
            m1, scale = d2 // g, d1 // g
            out, den = {key: v * m1 for key, v in self.num.items()}, d1 * m1
        get = out.get
        for key, v in o.num.items():
            out[key] = get(key, 0) + v * scale
        return _canonical(out, den)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __neg__(self) -> "MultiPoly":
        p = object.__new__(MultiPoly)
        p.num = {key: -v for key, v in self.num.items()}
        p.den = self.den
        return p

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, int):
            if not other or not self.num:
                return ZERO
            # gcd(den, *num) == 1 gives gcd(den, other * num) == gcd(den, other)
            g = math.gcd(self.den, other)
            c = other // g
            p = object.__new__(MultiPoly)
            p.num = {key: v * c for key, v in self.num.items()}
            p.den = self.den // g
            return p
        if isinstance(other, Fraction):
            n = other.numerator
            num = {key: v * n for key, v in self.num.items()}
            return _canonical(num, self.den * other.denominator)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        return sum_of_products(((1, self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if read_count(n, "polynomial exponent") == 0:
            return MultiPoly.const(1)
        return power_by_squaring(self, n)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def substitute(self, symbol: str, value: Scalar) -> "MultiPoly":
        """Substitute an exact rational ``p/q`` for lambda, x or y.

        With ``top`` the symbol's degree, a numerator at exponent k is scaled
        by ``p^k q^(top-k)`` and the denominator by ``q^top``.  The scale is
        computed once per exponent that occurs, not for every k up to ``top``.
        """
        shift = _shift(symbol)
        val = _fraction(value)
        p, q = val.numerator, val.denominator
        top = self.degree(symbol)
        scales: dict[int, int] = {}
        out: dict[int, int] = {}
        get = out.get
        for key, v in self.num.items():
            k = key >> shift & _FIELD
            scale = scales.get(k)
            if scale is None:
                scale = scales[k] = p**k * q ** (top - k)
            rest = key ^ k << shift
            out[rest] = get(rest, 0) + v * scale
        return _canonical(out, self.den * q**top)

    def coeff_x(self, power: int) -> "MultiPoly":
        """Coefficient of x**power, as a polynomial in lambda and y."""
        read_count(power, "x exponent")
        x_field = _FIELD << 20
        return _canonical(
            {key ^ power << 20: v for key, v in self.num.items() if key & x_field == power << 20},
            self.den,
        )

    def degree(self, symbol: str) -> int:
        """Largest exponent of the symbol (0 for the zero polynomial)."""
        shift = _shift(symbol)
        return max((key >> shift & _FIELD for key in self.num), default=0)

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({render_poly(self)!r})"


def power_by_squaring(base: R, n: int) -> R:
    """``base^n`` for ``n >= 1`` by repeated squaring, from the lowest set bit of ``n`` up.

    The constant 1 is never a factor, so n = 1, 2, 3 cost 0, 1, 2 products,
    and each squaring is ``base * base``, one operand times itself.
    """
    out = None
    while True:
        if n & 1:
            out = base if out is None else base * out
        n >>= 1
        if not n:
            return out
        base = base * base


def sum_of_products(terms: Iterable[tuple[int, MultiPoly, MultiPoly]]) -> MultiPoly:
    """``sum c * p * q`` over ``(c, p, q)`` triples with integer weights ``c``.

    Works over ``L = lcm(p.den * q.den)``: every term-pair product, scaled by
    ``c * L / (p.den * q.den)``, goes into one numerator map, which is
    reduced once.  Triples with a zero weight or a zero factor are skipped.
    A monomial product is the sum of the two packed keys; an exponent past
    ``MAX_EXPONENT`` sets its field's guard bit and raises ``OverflowError``.
    """
    live = [(c, p, q) for c, p, q in terms if c and p.num and q.num]
    den = math.lcm(*(p.den * q.den for _, p, q in live))
    out: dict[int, int] = {}
    get = out.get
    for c, p, q in live:
        scale = c * (den // (p.den * q.den))
        q_terms = q.num.items()
        for k1, v1 in p.num.items():
            v1 *= scale
            for k2, v2 in q_terms:
                key = k1 + k2
                out[key] = get(key, 0) + v1 * v2
    if any(map(_GUARD.__and__, out)):
        raise OverflowError(f"a product has an exponent above {MAX_EXPONENT}")
    return _canonical(out, den)


ZERO = MultiPoly.zero()
ONE = MultiPoly.const(1)
LAM = MultiPoly.sym("lambda")
X = MultiPoly.sym("x")
Y = MultiPoly.sym("y")


def monomial_text(exps: Exponents) -> str:
    """Canonical text of the monomial with exponent triple ``exps``, ``1`` for the constant."""
    bits = []
    for name, e in zip(SYMBOLS, exps):
        if e == 1:
            bits.append(name)
        elif e > 1:
            bits.append(f"{name}^{e}")
    return "*".join(bits) if bits else "1"


@functools.cache
def _key_text(key: int) -> str:
    """:func:`monomial_text` of a packed key.

    Cached: a table has a few hundred distinct monomials over many terms.
    """
    return monomial_text(_unpack(key))


@functools.cache
def _rank(key: int) -> int:
    """The exponent triple of a packed key, packed lambda high: its canonical sort key.

    Cached, as :func:`_key_text` is.
    """
    a, b, c = _unpack(key)
    return a << 40 | b << 20 | c


def term_texts(p: MultiPoly) -> list[tuple[str, str]]:
    """``(monomial text, reduced coefficient text)`` per term, in canonical order.

    Canonical order is descending exponent triples: descending :func:`_rank`,
    not key order, since keys put lambda in the low field.  Each numerator is
    reduced against the common denominator on the integers, giving the text
    ``str(Fraction(v, den))`` would give.  Exact integers can pass CPython's
    int/str digit limit (4300 digits by default): such a polynomial renders
    in a second pass with the limit lifted, and the first pass pays nothing
    for it.  Where no limit is set, the error had another cause and is raised
    again.
    """
    num, den = p.num, p.den
    keys = sorted(num, key=_rank, reverse=True)
    out = []
    try:
        if den == 1:  # no coefficient to reduce
            return [(_key_text(key), f"{num[key]}") for key in keys]
        for key in keys:
            v = num[key]
            g = math.gcd(v, den)
            out.append((_key_text(key), f"{v // g}" if g == den else f"{v // g}/{den // g}"))
    except ValueError:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            raise
        sys.set_int_max_str_digits(0)
        try:
            return term_texts(p)
        finally:
            sys.set_int_max_str_digits(limit)
    return out


def render_terms(texts: list[tuple[str, str]]) -> str:
    """Join :func:`term_texts` into the canonical text form (``0`` for no terms)."""
    parts = []
    for mono, coeff in texts:
        sign, mag = ("-", coeff[1:]) if coeff[0] == "-" else ("+", coeff)
        body = mag if mono == "1" else mono if mag == "1" else f"{mag}*{mono}"
        parts.append(f" {sign} {body}")
    text = "".join(parts)  # " + a - b ...": drop the first sign's " + ", or keep its "-"
    return "0" if not text else text[3:] if text[1] == "+" else f"-{text[3:]}"


def render_poly(p: MultiPoly) -> str:
    """Render to the canonical text form (``0`` for the zero polynomial)."""
    return render_terms(term_texts(p))
