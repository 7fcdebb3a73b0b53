"""Degenerate special functions as exact truncated series.

Everything here is parameterized by the deformation parameter lambda and
reduces to a classical object at lambda = 0:

* degenerate falling factorials ``(w)_{n,lambda} = w (w - lambda) ... (w - (n-1) lambda)``,
  as the list ``(w)_{0..n,lambda}``
* degenerate exponential ``e_lambda^w(t) = (1 + lambda t)^{w/lambda}``,
  whose egf coefficients are the falling factorials
* degenerate logarithm ``log_lambda(1 + t)``, the compositional inverse of
  ``e_lambda(t) - 1``
* degenerate Stirling numbers of the first kind, via the triangular
  recurrence ``S(n+1, k) = S(n, k-1) + (k lambda - n) S(n, k)``
* polyexponential functions: the modified polyexponential ``Ei_k``, its
  degenerate version ``Ei_{k,lambda}``, and the degenerate multiple
  polyexponential ``Ei_{(k_1..k_r),lambda}`` summed over strictly increasing
  index chains ``0 < n_1 < ... < n_r``.

Series weights and bases may be the symbols ``"x"``, ``"y"``, the sum
``"x+y"``, or any exact rational.  Each kind of input has one reader:
:func:`index_tuple`, :func:`read_lam` and :func:`read_argument` here, and
:func:`~degenpoly.series.read_count`, re-exported from
:mod:`degenpoly.series`, the lowest module that reads a count.  Each
builder that reads lambda takes it as the keyword ``lam``: the symbol
``LAM`` by default, or a constant polynomial to build at that value of
lambda directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .poly import LAM, ONE, X, Y, ZERO, MultiPoly, sum_of_products
from .series import TruncatedSeries, read_count

Argument = Union[str, int, Fraction]

_BASES = {"x": X, "y": Y, "x+y": X + Y}


def read_lam(lam: MultiPoly) -> MultiPoly:
    """``lam``: the symbol ``LAM`` or a constant ``MultiPoly``, the value lambda is built at."""
    if not isinstance(lam, MultiPoly):
        raise TypeError(f"lam must be LAM or a constant MultiPoly, got {type(lam).__name__}")
    # a nonzero packed key is a monomial in lambda, x or y
    if lam != LAM and any(lam.num):
        raise ValueError(f"lam must be LAM or a constant MultiPoly, got {lam}")
    return lam


def read_argument(value: Argument, *, weight: bool = False) -> Union[str, Fraction]:
    """A family argument: ``"x"``, ``"x+y"``, or an int or ``Fraction`` (never a bool).

    A symbol comes back as given and a number as a ``Fraction``; a series
    ``weight`` or base may also be ``"y"``.
    """
    if isinstance(value, str):
        symbols = _BASES if weight else ("x", "x+y")
        if value in symbols:
            return value
        raise ValueError(f"expected one of {tuple(symbols)} or a rational, got {value!r}")
    if type(value) is not int and not isinstance(value, Fraction):
        raise TypeError(f"expected an int or a Fraction, got {type(value).__name__}")
    return Fraction(value)


def _base_poly(base: Argument) -> MultiPoly:
    base = read_argument(base, weight=True)
    return _BASES[base] if isinstance(base, str) else MultiPoly.const(base)


def deg_falling_factorials(base: Argument, n_max: int, *, lam: MultiPoly = LAM) -> list[MultiPoly]:
    """``(base)_{m,lambda}`` for m = 0..n_max, in one running product."""
    read_count(n_max)
    b = _base_poly(base)
    read_lam(lam)
    out = [ONE]
    for i in range(n_max):
        out.append(out[-1] * (b - lam * i))
    return out


def classical_falling_factorial(n: int) -> MultiPoly:
    """Ordinary falling factorial ``(x)_n = x (x-1) ... (x-n+1)``."""
    read_count(n, "n")
    out = ONE
    for i in range(n):
        out = out * (X - i)
    return out


def deg_exp(weight: Argument, order: int, *, lam: MultiPoly = LAM) -> TruncatedSeries:
    """Degenerate exponential ``e_lambda^weight(t)`` to the given order.

    The ordinary coefficient at t^n is ``(weight)_{n,lambda} / n!``.
    """
    read_count(order, "order")
    b = _base_poly(weight)
    read_lam(lam)
    coeffs = []
    prod = ONE
    fact = 1
    for n in range(order + 1):
        if n:
            prod = prod * (b - lam * (n - 1))
            fact *= n
        coeffs.append(prod * Fraction(1, fact))
    return TruncatedSeries(order, coeffs)


def deg_log(order: int, *, lam: MultiPoly = LAM) -> TruncatedSeries:
    """Degenerate logarithm ``log_lambda(1 + t)`` to the given order.

    The ordinary coefficient at t^n (n >= 1) is
    ``(lambda - 1)(lambda - 2)...(lambda - n + 1) / n!``; at lambda = 0 the
    series collapses to ``log(1 + t)``.  Satisfies
    ``e_lambda(log_lambda(1 + t)) = 1 + t`` exactly.
    """
    read_count(order, "order")
    read_lam(lam)
    coeffs: list[MultiPoly] = [ZERO]
    prod = ONE
    fact = 1
    for n in range(1, order + 1):
        if n > 1:
            prod = prod * (lam - (n - 1))
        fact *= n
        coeffs.append(prod * Fraction(1, fact))
    return TruncatedSeries(order, coeffs)


@dataclass(frozen=True)
class StirlingTable:
    """Triangle of degenerate Stirling numbers of the first kind.

    ``entries[n][k]`` holds ``S_{1,lambda}(n, k)`` for ``0 <= k <= n <= n_max``
    as polynomials in lambda.
    """

    entries: tuple[tuple[MultiPoly, ...], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a Stirling table needs at least one row")
        for n, row in enumerate(self.entries):
            if len(row) != n + 1:
                raise ValueError(f"expected {n + 1} entries in row {n}, got {len(row)}")

    @property
    def n_max(self) -> int:
        """The last row's n."""
        return len(self.entries) - 1

    def value(self, n: int, k: int) -> MultiPoly:
        if not 0 <= n <= self.n_max or k < 0:
            raise ValueError(f"Stirling index ({n}, {k}) outside table range")
        return self.entries[n][k] if k <= n else ZERO


def stirling1_deg_recurrence(n_max: int, *, lam: MultiPoly = LAM) -> StirlingTable:
    """Build the Stirling triangle from the two-term recurrence.

    ``S(0,0) = 1`` and ``S(n+1, k) = S(n, k-1) + (k lambda - n) S(n, k)``.
    """
    read_count(n_max)
    read_lam(lam)
    rows: list[tuple[MultiPoly, ...]] = [(ONE,)]
    for n in range(n_max):
        prev = (ZERO, *rows[n], ZERO)  # prev[k + 1] is S(n, k), zero outside 0..n
        row = (
            sum_of_products([(1, ONE, prev[k]), (k, lam, prev[k + 1]), (-n, ONE, prev[k + 1])])
            for k in range(n + 2)
        )
        rows.append(tuple(row))
    return StirlingTable(tuple(rows))


def polyexp_modified(k: int, order: int) -> TruncatedSeries:
    """Modified polyexponential ``Ei_k(t) = sum_{n>=1} t^n / ((n-1)! n^k)``.

    ``Ei_1(t) = e^t - 1``.
    """
    read_count(order, "order")
    index_tuple((k,))
    coeffs: list[MultiPoly] = [ZERO]
    for n in range(1, order + 1):
        coeffs.append(
            MultiPoly.const(Fraction(1, math.factorial(n - 1)) * Fraction(n) ** (-k))
        )
    return TruncatedSeries(order, coeffs)


def deg_polyexp(k: int, order: int, *, lam: MultiPoly = LAM) -> TruncatedSeries:
    """Degenerate polyexponential ``Ei_{k,lambda}(t)``.

    The coefficient at t^n (n >= 1) is ``(1)_{n,lambda} / ((n-1)! n^k)``;
    ``Ei_{1,lambda}(t) = e_lambda(t) - 1``.
    """
    read_count(order, "order")
    index_tuple((k,))
    read_lam(lam)
    coeffs: list[MultiPoly] = [ZERO]
    prod = ONE
    for n in range(1, order + 1):
        prod = prod * (ONE - lam * (n - 1)) if n > 1 else ONE
        scale = Fraction(1, math.factorial(n - 1)) * Fraction(n) ** (-k)
        coeffs.append(prod * scale)
    return TruncatedSeries(order, coeffs)


def index_tuple(ks: Sequence[int]) -> tuple[int, ...]:
    """The polyexponential index list ``ks`` as a tuple of ints; a single k is read as ``(k,)``.

    An empty list raises ``ValueError``.  Any index that is not an ``int``
    (a float, a string, a bool) raises ``TypeError`` rather than being
    truncated to one.
    """
    ks = tuple(ks)
    if not ks:
        raise ValueError("need at least one polyexponential index")
    for k in ks:
        if type(k) is not int:
            raise TypeError(f"polyexponential indices must be ints, got {k!r}")
    return ks


def deg_multi_polyexp(ks: Sequence[int], order: int, *, lam: MultiPoly = LAM) -> TruncatedSeries:
    """Degenerate multiple polyexponential ``Ei_{(k_1..k_r),lambda}(t)``.

    The coefficient at t^m sums over strictly increasing chains
    ``0 < n_1 < ... < n_r = m`` the products
    ``prod_i (1)_{n_i,lambda} / ((n_i - 1)! n_i^{k_i})``.  With a single
    index it reduces to ``Ei_{k,lambda}``.  Computed by one forward pass
    per index using prefix sums over the previous level.
    """
    ks = index_tuple(ks)
    order = read_count(order, "order")
    read_lam(lam)
    ones = deg_falling_factorials(1, order, lam=lam)
    level: list[MultiPoly] | None = None
    for k in ks:
        nxt: list[MultiPoly] = [ZERO] * (order + 1)
        running = ZERO
        for n in range(1, order + 1):
            if level is not None:
                running = running + level[n - 1]
            base = ones[n] * (Fraction(1, math.factorial(n - 1)) * Fraction(n) ** (-k))
            nxt[n] = base if level is None else base * running
        level = nxt
    return TruncatedSeries(order, level)
