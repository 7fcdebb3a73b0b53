"""Exact sparse polynomial arithmetic over the rationals in lambda, x and y.

A polynomial is stored fraction-free, in the layout of FLINT's ``fmpq_poly``:
``num`` maps exponent triples ``(a, b, c)``, standing for
``lambda^a * x^b * y^c``, to nonzero integer numerators, all over one common
denominator ``den``.  The form is canonical: ``den > 0``,
``gcd(den, *num.values()) == 1`` and the zero polynomial is ``({}, 1)``, so
equality of ``(num, den)`` is mathematical equality of polynomials.  A
product multiplies integers and denominators, a sum works over the lcm of
the two denominators, and each result is reduced by one multi-argument gcd,
so no per-coefficient :class:`fractions.Fraction` arithmetic is paid.
:func:`sum_of_products` reduces a whole ``sum c * p * q`` once, not per addend,
and ``p * q`` is its one-term case.
:attr:`MultiPoly.terms` gives the coefficients as reduced ``Fraction`` values.

The canonical text form orders monomials by descending exponent triple
(lambda weighs more than x, x more than y) and is read back exactly by
:func:`parse_poly`, e.g. ``lambda^2 - 3*lambda + 2`` or ``3/2*lambda + x^2``.
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


def _canonical(num: dict[Exponents, int], den: int) -> "MultiPoly":
    """``num / den`` (``den > 0``) as a :class:`MultiPoly` in canonical form.

    Drops zero numerators and divides out ``gcd(den, *num.values())``; the
    zero polynomial comes out as ``({}, 1)``.  ``num`` is taken over, not copied.
    """
    if 0 in num.values():
        num = {exps: v for exps, v in num.items() if v}
    if not num:
        den = 1
    else:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {exps: v // g for exps, v in num.items()}
            den //= g
    p = object.__new__(MultiPoly)
    p.num = num
    p.den = den
    return p


class MultiPoly:
    """Sparse polynomial in lambda, x, y with exact rational coefficients.

    ``num`` maps exponent triples to integer numerators over the one common
    denominator ``den``.  Instances are treated as immutable; all operations
    return new objects.  Scalars (int or Fraction) mix freely with
    polynomials in ``+ - * ==``.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms: Mapping[Exponents, Scalar] | None = None):
        coeffs = {exps: Fraction(c) for exps, c in (terms or {}).items()}
        coeffs = {exps: c for exps, c in coeffs.items() if c}
        # over the lcm of reduced denominators the numerators share no factor
        # with den, so the result is already canonical
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self.num = {exps: c.numerator * (den // c.denominator) for exps, c in coeffs.items()}
        self.den = den

    @classmethod
    def const(cls, value: Scalar) -> "MultiPoly":
        c = Fraction(value)
        return _canonical({(0, 0, 0): c.numerator}, c.denominator)

    @classmethod
    def sym(cls, name: str) -> "MultiPoly":
        if name not in _SYMBOL_INDEX:
            raise ValueError(f"unknown symbol {name!r}, expected one of {SYMBOLS}")
        exps = [0, 0, 0]
        exps[_SYMBOL_INDEX[name]] = 1
        return _canonical({tuple(exps): 1}, 1)

    @classmethod
    def zero(cls) -> "MultiPoly":
        return _canonical({}, 1)

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """The coefficients as a fresh ``{exponents: Fraction}`` map (read-only view)."""
        den = self.den
        return {exps: Fraction(v, den) for exps, v in self.num.items()}

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
            out, den = {exps: v * m1 for exps, v in self.num.items()}, d1 * m1
        get = out.get
        for exps, v in o.num.items():
            out[exps] = get(exps, 0) + v * scale
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
        p.num = {exps: -v for exps, v in self.num.items()}
        p.den = self.den
        return p

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            n = c.numerator
            num = {exps: v * n for exps, v in self.num.items()}
            return _canonical(num, self.den * c.denominator)
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
        by ``p^k q^(top-k)`` and the denominator by ``q^top``.
        """
        if symbol not in _SYMBOL_INDEX:
            raise ValueError(f"unknown symbol {symbol!r}, expected one of {SYMBOLS}")
        i = _SYMBOL_INDEX[symbol]
        val = Fraction(value)
        p, q = val.numerator, val.denominator
        top = self.degree(symbol)
        p_pow, q_pow = [1], [1]
        for _ in range(top):
            p_pow.append(p_pow[-1] * p)
            q_pow.append(q_pow[-1] * q)
        out: dict[Exponents, int] = {}
        get = out.get
        for exps, v in self.num.items():
            k = exps[i]
            key = (*exps[:i], 0, *exps[i + 1 :])
            out[key] = get(key, 0) + v * p_pow[k] * q_pow[top - k]
        return _canonical(out, self.den * q_pow[top])

    def evaluate(self, lam: Scalar, x: Scalar, y: Scalar = 0) -> Fraction:
        """Evaluate at exact rational points."""
        lam, x, y = Fraction(lam), Fraction(x), Fraction(y)
        total = Fraction(0)
        for (a, b, c), v in self.num.items():
            total += v * lam**a * x**b * y**c
        return total / self.den

    def coeff_x(self, power: int) -> "MultiPoly":
        """Coefficient of x**power, as a polynomial in lambda and y."""
        return _canonical(
            {(a, 0, c): v for (a, b, c), v in self.num.items() if b == power}, self.den
        )

    def degree(self, symbol: str) -> int:
        """Largest exponent of the symbol (0 for the zero polynomial)."""
        if symbol not in _SYMBOL_INDEX:
            raise ValueError(f"unknown symbol {symbol!r}, expected one of {SYMBOLS}")
        i = _SYMBOL_INDEX[symbol]
        return max((exps[i] for exps in self.num), default=0)

    def is_constant(self) -> bool:
        return not self.num or (len(self.num) == 1 and (0, 0, 0) in self.num)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"polynomial is not constant: {self}")
        return Fraction(self.num.get((0, 0, 0), 0), self.den)

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({render_poly(self)!r})"


def sum_of_products(terms: Iterable[tuple[int, MultiPoly, MultiPoly]]) -> MultiPoly:
    """``sum c * p * q`` over ``(c, p, q)`` triples with integer weights ``c``.

    Works over ``L = lcm(p.den * q.den)``: every term-pair product, scaled by
    ``c * L / (p.den * q.den)``, goes into one numerator map, which is
    reduced once.  Triples with a zero weight or a zero factor are skipped.
    """
    live = [(c, p, q) for c, p, q in terms if c and p.num and q.num]
    den = math.lcm(*(p.den * q.den for _, p, q in live))
    out: dict[Exponents, int] = {}
    get = out.get
    for c, p, q in live:
        scale = c * (den // (p.den * q.den))
        for (a1, b1, c1), v1 in p.num.items():
            v1 *= scale
            for (a2, b2, c2), v2 in q.num.items():
                key = (a1 + a2, b1 + b2, c1 + c2)
                out[key] = get(key, 0) + v1 * v2
    return _canonical(out, den)


ZERO = MultiPoly.zero()
ONE = MultiPoly.const(1)
LAM = MultiPoly.sym("lambda")
X = MultiPoly.sym("x")
Y = MultiPoly.sym("y")


@functools.cache
def monomial_text(exps: Exponents) -> str:
    """Canonical text of a monomial, ``1`` for the constant monomial.

    Cached: a table has a few hundred distinct monomials over many terms.
    """
    bits = []
    for name, e in zip(SYMBOLS, exps):
        if e == 1:
            bits.append(name)
        elif e > 1:
            bits.append(f"{name}^{e}")
    return "*".join(bits) if bits else "1"


def term_texts(p: MultiPoly) -> list[tuple[str, str]]:
    """``(monomial text, reduced coefficient text)`` per term, in canonical order.

    Canonical order is descending exponent triples.  Each numerator is reduced
    against the common denominator on the integers, giving the text
    ``str(Fraction(v, den))`` would give.
    """
    num, den = p.num, p.den
    out = []
    for exps in sorted(num, reverse=True):
        v = num[exps]
        g = math.gcd(v, den)
        out.append((monomial_text(exps), f"{v // g}" if g == den else f"{v // g}/{den // g}"))
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
                    coeff *= Fraction(num, take_int("denominator"))
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
