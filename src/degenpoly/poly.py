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
and ``p * q`` is its one-term case.
:attr:`MultiPoly.terms` gives the coefficients as reduced ``Fraction`` values.

Monomial keys.  The monomial ``lambda^a * x^b * y^c`` is the one int
``a << 40 | b << 20 | c``: three 20-bit fields, lambda in the high field,
then x, then y, as in the packed monomials of sparse polynomial
multiplication (Monagan and Pearce, J. Symb. Comp. 46, 2011).  So a
monomial product is one int sum ``k1 + k2``.  Each exponent lies in
``0..MAX_EXPONENT`` (``2^19 - 1``); the top bit of each field is a guard
bit, clear in every stored key.  Two fields below the limit sum to at most
``2^20 - 2``, so a sum never carries into the next field and sets the
field's guard bit exactly when the exponent passes the limit:
:func:`sum_of_products` then raises ``OverflowError`` rather than wrap.  The
public interface speaks in exponent triples ``(a, b, c)``:
``MultiPoly(terms)`` and :func:`parse_poly` take them (anything else raises
``ValueError``), and ``terms`` and :meth:`MultiPoly.evaluate` give them back.

The canonical text form orders monomials by descending exponent triple
(lambda weighs more than x, x more than y), which is descending key order,
and is read back exactly by :func:`parse_poly`, e.g.
``lambda^2 - 3*lambda + 2`` or ``3/2*lambda + x^2``.  Scalars are ``int`` or
``Fraction``; any other scalar, a float or a string included, raises
``TypeError``.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

Exponents = tuple[int, int, int]
Scalar = Union[int, Fraction]

SYMBOLS = ("lambda", "x", "y")
_SYMBOL_INDEX = {name: i for i, name in enumerate(SYMBOLS)}

# the packed monomial key: one 20-bit field per symbol, lambda highest
MAX_EXPONENT = 2**19 - 1
_FIELD = 2**20 - 1
_SHIFT = {"lambda": 40, "x": 20, "y": 0}
_GUARD = 1 << 59 | 1 << 39 | 1 << 19


def _pack(exps: Exponents) -> int:
    """The key of ``lambda^a * x^b * y^c``, for a triple of ints in ``0..MAX_EXPONENT``."""
    if isinstance(exps, tuple) and len(exps) == 3:
        a, b, c = exps
        if type(a) is int and type(b) is int and type(c) is int:
            if 0 <= a <= MAX_EXPONENT and 0 <= b <= MAX_EXPONENT and 0 <= c <= MAX_EXPONENT:
                return a << 40 | b << 20 | c
    raise ValueError(f"exponents must be a triple of ints in 0..{MAX_EXPONENT}, got {exps!r}")


def _unpack(key: int) -> Exponents:
    return (key >> 40, key >> 20 & _FIELD, key & _FIELD)


def _fraction(value: Scalar) -> Fraction:
    """``value`` as a Fraction; only an int or a Fraction is a scalar."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"scalar must be an int or a Fraction, got {type(value).__name__}")
    return Fraction(value)


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
    fields, lambda high, then x, then y, each exponent at most
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
            return _canonical({key: v * other for key, v in self.num.items()}, self.den)
        if isinstance(other, Fraction):
            n = other.numerator
            num = {key: v * n for key, v in self.num.items()}
            return _canonical(num, self.den * other.denominator)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return sum_of_products(((1, self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = MultiPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

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

    def evaluate(self, lam: Scalar, x: Scalar, y: Scalar = 0) -> Fraction:
        """Evaluate at exact rational points."""
        lam, x, y = _fraction(lam), _fraction(x), _fraction(y)
        total = Fraction(0)
        for key, v in self.num.items():
            a, b, c = _unpack(key)
            total += v * lam**a * x**b * y**c
        return total / self.den

    def coeff_x(self, power: int) -> "MultiPoly":
        """Coefficient of x**power, as a polynomial in lambda and y."""
        x_field = _FIELD << 20
        return _canonical(
            {key ^ power << 20: v for key, v in self.num.items() if key & x_field == power << 20},
            self.den,
        )

    def degree(self, symbol: str) -> int:
        """Largest exponent of the symbol (0 for the zero polynomial)."""
        shift = _shift(symbol)
        return max((key >> shift & _FIELD for key in self.num), default=0)

    def is_constant(self) -> bool:
        return not self.num or (len(self.num) == 1 and 0 in self.num)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"polynomial is not constant: {self}")
        return Fraction(self.num.get(0, 0), self.den)

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({render_poly(self)!r})"


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


def term_texts(p: MultiPoly) -> list[tuple[str, str]]:
    """``(monomial text, reduced coefficient text)`` per term, in canonical order.

    Canonical order is descending exponent triples, which is descending key
    order.  Each numerator is reduced against the common denominator on the
    integers, giving the text ``str(Fraction(v, den))`` would give.
    """
    num, den = p.num, p.den
    out = []
    for key in sorted(num, reverse=True):
        v = num[key]
        g = math.gcd(v, den)
        out.append((_key_text(key), f"{v // g}" if g == den else f"{v // g}/{den // g}"))
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


_TOKEN_RE = re.compile(r"lambda|x|y|\d+|[+\-*/^]|\s+")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ValueError(f"bad character in polynomial text at {text[pos:]!r}")
        if not m.group().isspace():
            tokens.append(m.group())
        pos = m.end()
    return tokens


def parse_poly(text: str) -> MultiPoly:
    """Parse the canonical text form back into a :class:`MultiPoly`.

    Accepts exactly the grammar produced by :func:`render_poly`: signed terms
    joined by `` + `` / `` - ``, each term a ``*``-product of an optional
    rational coefficient and symbol powers.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial text")
    n = len(tokens)
    i = 0

    def take_int(what: str) -> int:
        nonlocal i
        if i >= n or not tokens[i].isdigit():
            raise ValueError(f"expected {what} in polynomial text")
        v = int(tokens[i])
        i += 1
        return v

    terms: dict[Exponents, Fraction] = {}
    sign = 1
    if tokens[i] == "-":
        sign, i = -1, i + 1
    elif tokens[i] == "+":
        i += 1
    while True:
        coeff = Fraction(sign)
        exps = [0, 0, 0]
        while True:
            if i < n and tokens[i].isdigit():
                num = take_int("number")
                if i < n and tokens[i] == "/":
                    i += 1
                    den = take_int("denominator")
                    if not den:
                        raise ValueError("zero denominator in polynomial text")
                    coeff *= Fraction(num, den)
                else:
                    coeff *= num
            elif i < n and tokens[i] in _SYMBOL_INDEX:
                idx = _SYMBOL_INDEX[tokens[i]]
                i += 1
                e = 1
                if i < n and tokens[i] == "^":
                    i += 1
                    e = take_int("exponent")
                exps[idx] += e
            else:
                got = tokens[i] if i < n else "end of input"
                raise ValueError(f"unexpected {got!r} in polynomial text")
            if i < n and tokens[i] == "*":
                i += 1
                continue
            break
        key = (exps[0], exps[1], exps[2])
        if coeff:
            prev = terms.get(key, Fraction(0)) + coeff
            if prev:
                terms[key] = prev
            elif key in terms:
                del terms[key]
        if i >= n:
            break
        if tokens[i] == "+":
            sign = 1
        elif tokens[i] == "-":
            sign = -1
        else:
            raise ValueError(f"unexpected {tokens[i]!r} between terms")
        i += 1
    return MultiPoly(terms)
