"""Reference dict-of-Fraction polynomials: the differential test oracle.

This is the arithmetic core that ``degenpoly.poly`` used before it stored
integer numerators over one common denominator, kept unchanged so that
``tests/test_poly_differential.py`` can check the two against each other.
Its one later edit: the tokenizer reads ASCII digits only, as the CLI's
number flags do.

:func:`parse_poly` is the one reader of polynomial text in the project: the
package writes its canonical text and never reads it, so every test that
reads an output back goes through this token walk, a separate algorithm
from the package's renderer.  Integers past CPython's int/str digit limit
need the limit lifted around the call.

A polynomial is stored as a mapping from exponent triples ``(a, b, c)``,
standing for ``lambda^a * x^b * y^c``, to nonzero rational coefficients.
Coefficients are :class:`fractions.Fraction` values, which are kept reduced
with a positive denominator, so equality of term maps is mathematical
equality of polynomials.  The zero polynomial is the empty map.

The canonical text form orders monomials by descending exponent triple
(lambda weighs more than x, x more than y) and is read back exactly by
:func:`parse_poly`, e.g. ``lambda^2 - 3*lambda + 2`` or ``3/2*lambda + x^2``.
A zero denominator in the text raises ``ZeroDivisionError`` from ``Fraction``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Mapping, Union

Exponents = tuple[int, int, int]
Scalar = Union[int, Fraction]

SYMBOLS = ("lambda", "x", "y")
_SYMBOL_INDEX = {name: i for i, name in enumerate(SYMBOLS)}


def binomial(n: int, k: int) -> Fraction:
    """Binomial coefficient C(n, k) as an exact rational (0 when k > n)."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial needs nonnegative arguments, got ({n}, {k})")
    return Fraction(math.comb(n, k))


class MultiPoly:
    """Sparse polynomial in lambda, x, y with exact rational coefficients.

    Instances are treated as immutable; all operations return new objects.
    Scalars (int or Fraction) mix freely with polynomials in ``+ - * ==``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponents, Scalar] | None = None):
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                c = Fraction(coeff)
                if c:
                    clean[exps] = c
        self.terms = clean

    @classmethod
    def _raw(cls, terms: dict[Exponents, Fraction]) -> "MultiPoly":
        # internal: terms must already be canonical (no zero coefficients)
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def const(cls, value: Scalar) -> "MultiPoly":
        c = Fraction(value)
        return cls._raw({(0, 0, 0): c} if c else {})

    @classmethod
    def sym(cls, name: str) -> "MultiPoly":
        if name not in _SYMBOL_INDEX:
            raise ValueError(f"unknown symbol {name!r}, expected one of {SYMBOLS}")
        exps = [0, 0, 0]
        exps[_SYMBOL_INDEX[name]] = 1
        return cls._raw({tuple(exps): Fraction(1)})

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls._raw({})

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
        out = dict(self.terms)
        for exps, c in o.terms.items():
            s = out.get(exps)
            if s is None:
                out[exps] = c
            else:
                s = s + c
                if s:
                    out[exps] = s
                else:
                    del out[exps]
        return MultiPoly._raw(out)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw({exps: -c for exps, c in self.terms.items()})

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return MultiPoly._raw({})
            return MultiPoly._raw({exps: v * c for exps, v in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out: dict[Exponents, Fraction] = {}
        for (a1, b1, c1), v1 in self.terms.items():
            for (a2, b2, c2), v2 in other.terms.items():
                key = (a1 + a2, b1 + b2, c1 + c2)
                s = out.get(key)
                out[key] = v1 * v2 if s is None else s + v1 * v2
        return MultiPoly._raw({exps: v for exps, v in out.items() if v})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = MultiPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def substitute(self, symbol: str, value: Scalar) -> "MultiPoly":
        """Substitute an exact rational for lambda, x or y."""
        if symbol not in _SYMBOL_INDEX:
            raise ValueError(f"unknown symbol {symbol!r}, expected one of {SYMBOLS}")
        i = _SYMBOL_INDEX[symbol]
        val = Fraction(value)
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            c = coeff * val ** exps[i]
            if not c:
                continue
            key = list(exps)
            key[i] = 0
            k = (key[0], key[1], key[2])
            s = out.get(k)
            s = c if s is None else s + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return MultiPoly._raw(out)

    def evaluate(self, lam: Scalar, x: Scalar, y: Scalar = 0) -> Fraction:
        """Evaluate at exact rational points."""
        lam, x, y = Fraction(lam), Fraction(x), Fraction(y)
        total = Fraction(0)
        for (a, b, c), coeff in self.terms.items():
            total += coeff * lam**a * x**b * y**c
        return total

    def coeff_x(self, power: int) -> "MultiPoly":
        """Coefficient of x**power, as a polynomial in lambda and y."""
        return MultiPoly._raw(
            {(a, 0, c): v for (a, b, c), v in self.terms.items() if b == power}
        )

    def degree(self, symbol: str) -> int:
        """Largest exponent of the symbol (0 for the zero polynomial)."""
        if symbol not in _SYMBOL_INDEX:
            raise ValueError(f"unknown symbol {symbol!r}, expected one of {SYMBOLS}")
        i = _SYMBOL_INDEX[symbol]
        return max((exps[i] for exps in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in canonical order (descending exponent triples)."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({render_poly(self)!r})"


ZERO = MultiPoly.zero()
ONE = MultiPoly.const(1)
LAM = MultiPoly.sym("lambda")
X = MultiPoly.sym("x")
Y = MultiPoly.sym("y")


def monomial_text(exps: Exponents) -> str:
    """Canonical text of a monomial, ``1`` for the constant monomial."""
    bits = []
    for name, e in zip(SYMBOLS, exps):
        if e == 1:
            bits.append(name)
        elif e > 1:
            bits.append(f"{name}^{e}")
    return "*".join(bits) if bits else "1"


def render_poly(p: MultiPoly) -> str:
    """Render to the canonical text form (``0`` for the zero polynomial)."""
    if not p.terms:
        return "0"
    parts: list[str] = []
    for i, (exps, coeff) in enumerate(p.sorted_terms()):
        mono = monomial_text(exps)
        mag = -coeff if coeff < 0 else coeff
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if i == 0:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(parts)


_TOKEN_RE = re.compile(r"lambda|x|y|[0-9]+|[+\-*/^]|\s+")


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
    return MultiPoly._raw(terms)
