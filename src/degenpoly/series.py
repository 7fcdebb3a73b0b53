"""Truncated formal power series in t with polynomial coefficients.

A series of order N holds the ordinary coefficients ``c_0 .. c_N`` of
``f(t) = sum c_n t^n`` as :class:`~degenpoly.poly.MultiPoly` values; all
arithmetic is exact and silently drops degrees above N.  Exponential
generating coefficients (``a_n`` in ``f = sum a_n t^n / n!``) are exposed
through :meth:`TruncatedSeries.egf_coeff`, which returns ``n! * c_n``.

Binary operations require both operands to have the same order; mixing
orders raises ``ValueError`` rather than guessing a truncation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .poly import MultiPoly, ZERO, power_by_squaring, read_count, sum_of_products

CoeffLike = Union[MultiPoly, int, Fraction]


def _as_poly(value: CoeffLike) -> MultiPoly:
    return value if isinstance(value, MultiPoly) else MultiPoly.const(value)


def square_terms(
    a: Sequence[MultiPoly], m: int, low: int = 0
) -> list[tuple[int, MultiPoly, MultiPoly]]:
    """The ``(c, p, q)`` triples of ``[t^m] a(t)^2``, each cross product once.

    ``a_i a_{m-i}`` and ``a_{m-i} a_i`` are one triple of weight 2 and the
    middle ``a_{m/2}^2`` of an even m has weight 1: ``m // 2 + 1`` triples,
    read from ``a_0 .. a_m``.  With ``a`` zero below ``t^low`` (and
    ``m >= 2 * low``), the triples with ``i < low`` are zero and left out.
    """
    return [(1 if 2 * i == m else 2, a[i], a[m - i]) for i in range(low, m // 2 + 1)]


def _valuation(coeffs: Sequence[MultiPoly]) -> int:
    """Index of the first nonzero coefficient; ``len(coeffs)`` if all are zero."""
    return next((i for i, c in enumerate(coeffs) if c), len(coeffs))


class TruncatedSeries:
    """Eagerly evaluated power series truncated at a fixed order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[CoeffLike]):
        read_count(order, "series order")
        cs = tuple(_as_poly(c) for c in coeffs)
        if len(cs) != order + 1:
            raise ValueError(f"expected {order + 1} coefficients, got {len(cs)}")
        self.order = order
        self.coeffs = cs

    @classmethod
    def constant(cls, value: CoeffLike, order: int) -> "TruncatedSeries":
        return cls(order, [value] + [ZERO] * read_count(order, "series order"))

    @classmethod
    def t(cls, order: int) -> "TruncatedSeries":
        """The series t (truncates to 0 when order is 0)."""
        coeffs = [ZERO] * (read_count(order, "series order") + 1)
        if order >= 1:
            coeffs[1] = MultiPoly.const(1)
        return cls(order, coeffs)

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"series order mismatch: {self.order} vs {other.order}")

    # only a scalar or polynomial sum: check_basics reads ``t + 1`` and
    # ``e_lambda(t) - 1``, and the tests' Horner oracle adds coefficients
    def __add__(self, other) -> "TruncatedSeries":
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] + _as_poly(other)
        return TruncatedSeries(self.order, coeffs)

    def __sub__(self, other) -> "TruncatedSeries":
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "TruncatedSeries":
        """The truncated product of two series.

        A product of series starts at the operands' valuations ``va`` and
        ``vb``: coefficients below ``t^(va+vb)`` are ``ZERO`` without a
        kernel call, and each one above is one
        :func:`~degenpoly.poly.sum_of_products` call over the triples
        ``a_i b_{m-i}`` with ``i >= va`` and ``m - i >= vb``.  A series
        times itself (the same object) is a square, whose triples take
        each cross product once (:func:`square_terms`); any other pair,
        equal or not, stays the general Cauchy product.
        """
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        a, b = self.coeffs, other.coeffs
        va = _valuation(a)
        if other is self:
            low = 2 * va
            tail = [sum_of_products(square_terms(a, m, va)) for m in range(low, len(a))]
        else:
            vb = _valuation(b)
            low = va + vb
            tail = [
                sum_of_products((1, a[i], b[m - i]) for i in range(va, m - vb + 1))
                for m in range(low, len(a))
            ]
        return TruncatedSeries(self.order, [ZERO] * min(low, len(a)) + tail)

    # kept only because bench/tracing.py wraps it through the class __dict__
    __rmul__ = __mul__

    def __pow__(self, r: int) -> "TruncatedSeries":
        """``self^r`` by repeated squaring, each squaring a square of a series."""
        if read_count(r, "series exponent") == 0:
            return TruncatedSeries.constant(1, self.order)
        return power_by_squaring(self, r)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be a nonzero rational."""
        # no family reads it (the tests' oracle for 2/(e_lambda(t)+1)); kept
        # only because bench/tracing.py wraps it through the class __dict__
        c0 = self.coeffs[0].terms
        if set(c0) != {(0, 0, 0)}:
            raise ValueError(
                "series is invertible only when its constant term is a nonzero rational"
            )
        inv0 = 1 / c0[0, 0, 0]
        f, g = self.coeffs, [MultiPoly.const(inv0)]
        for n in range(1, self.order + 1):
            g.append(sum_of_products((1, f[i], g[n - i]) for i in range(1, n + 1)) * (-inv0))
        return TruncatedSeries(self.order, g)

    def powers(self, count: int) -> tuple["TruncatedSeries", ...]:
        """``(self, self^2, ..., self^count)``.

        An even power ``self^(2k)`` is the square of ``self^k``, which takes
        each cross product once; an odd one is ``self^(2k) * self``.  When
        ``self`` has valuation v, ``self^j`` is zero below ``t^(jv)``; the
        product starts at its operands' valuations, so each power costs
        only its coefficients from ``t^(jv)`` up and makes no kernel call
        below.
        """
        out: list[TruncatedSeries] = []
        for j in range(1, read_count(count, "power count") + 1):
            if j % 2:
                out.append(out[-1] * self if out else self)
            else:
                half = out[j // 2 - 1]
                out.append(half * half)
        return tuple(out)

    def compose(
        self, inner: "TruncatedSeries", powers: Sequence["TruncatedSeries"] | None = None
    ) -> "TruncatedSeries":
        """Substitute ``inner`` for t; ``inner`` must have zero constant term.

        Computes the sum ``f(g) = f_0 + sum_{j>=1} f_j g^j`` one output
        coefficient at a time.  With v the valuation of ``g`` and w that of
        ``f - f_0``, ``g^j`` has valuation ``jv``, so
        ``[t^m] = sum_{w<=j<=m/v} f_j [t^m] g^j``: one
        :func:`~degenpoly.poly.sum_of_products` call per coefficient
        from ``t^(wv)`` up, and ``ZERO`` below.  The powers ``g^j``
        come from :meth:`powers`, up to the last nonzero ``f_j``; a caller
        that composes several series with one ``g`` may pass them as
        ``powers`` (``powers[j - 1]`` is ``g^j``) to build them once.  Only
        their coefficients up to ``t^order`` are read, so powers of the same
        ``g`` built at this order or above give the same result.
        """
        if not isinstance(inner, TruncatedSeries):
            raise TypeError("compose expects a TruncatedSeries")
        self._check_order(inner)
        if inner.coeffs[0]:
            raise ValueError("inner series must have zero constant term")
        f = self.coeffs
        top = max((j for j in range(1, len(f)) if f[j]), default=0)
        if powers is None:
            powers = inner.powers(top)
        v = _valuation(inner.coeffs)
        w = _valuation(f[1:]) + 1
        low = min(w * v, len(f))
        tail = [
            sum_of_products(
                (1, f[j], powers[j - 1].coeffs[m]) for j in range(w, min(m // v, top) + 1)
            )
            for m in range(low, len(f))
        ]
        return TruncatedSeries(self.order, [f[0]] + [ZERO] * (low - 1) + tail)

    def egf_coeff(self, n: int) -> MultiPoly:
        """n-th exponential generating coefficient, ``n! * c_n``."""
        if read_count(n, "coefficient index") > self.order:
            raise ValueError(f"coefficient index {n} out of range 0..{self.order}")
        return self.coeffs[n] * math.factorial(n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:4])
        tail = ", ..." if self.order >= 4 else ""
        return f"TruncatedSeries(order={self.order}, [{head}{tail}])"
