"""Mechanical verification of the identities tying the families together.

Each checker proves one identity symbolically over Q[lambda, x, y]: both
sides are computed along independent routes (generating function versus
explicit sum, degenerate object at lambda = 0 versus classical object) and
compared as exact polynomials.  A :class:`VerifyReport` carries one
:class:`VerifyCell` per checked instance; failing cells keep a canonical
rendering of both sides.

Identity ids:

* ``Thm1``: explicit chain-sum expansion of the multi-poly-Genocchi
  polynomials in terms of order-r Euler polynomials and degenerate Stirling
  numbers of the first kind (includes the n < r vanishing clause).
* ``Cor2``: same expansion with the Euler polynomials replaced by order-r
  Genocchi polynomials via ``Eq19``.
* ``Thm3``: value at argument r expressed through Euler numbers of orders
  0..r with alternating binomial weights.
* ``Prop4``: addition rule ``g_n(x+y) = sum C(n,l) g_l(x) (y)_{n-l,lambda}``.
* ``Eq15``: expansion of ``g_n(x)`` over the numbers ``g_l`` in the
  degenerate falling-factorial basis.
* ``Vanishing``: ``g_n = 0`` for n below the number of indices.
* ``Eq19``: order-r Euler versus order-r Genocchi rescaling.
* ``ReductionR1K1``: single-index reductions to the poly- and plain
  Genocchi families.
* ``Eq05``: polyexponential base cases ``Ei_1(t) = e^t - 1`` and
  ``Ei_{1,lambda}(t) = e_lambda(t) - 1``.
* ``InverseLogExp``: ``e_lambda(log_lambda(1+t)) = 1 + t`` and its reverse.
* ``LambdaZeroClassical``: collapse at lambda = 0 to classical Stirling,
  exponential, polyexponential and Genocchi objects.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Sequence

from . import families
from .degen import (
    StirlingTable,
    classical_falling_factorial,
    deg_exp,
    deg_falling_factorials,
    deg_log,
    deg_polyexp,
    index_tuple,
    polyexp_modified,
    read_argument,
    read_count,
    stirling1_deg_recurrence,
)
from .families import PolyFamily
from .poly import ONE, X, ZERO, MultiPoly, sum_of_products
from .series import TruncatedSeries

ParamItems = tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class VerifyCell:
    """One checked instance of an identity; sides are kept only on failure."""

    params: ParamItems
    passed: bool
    lhs: str | None = None
    rhs: str | None = None


@dataclass(frozen=True)
class VerifyReport:
    identity_id: str
    params: ParamItems
    cells: tuple[VerifyCell, ...]

    @property
    def passed(self) -> bool:
        return all(cell.passed for cell in self.cells)

    @property
    def vacuous(self) -> bool:
        """True when the report checked nothing (it still counts as passed)."""
        return not self.cells


def _cell(params: ParamItems, lhs: MultiPoly, rhs: MultiPoly) -> VerifyCell:
    if lhs == rhs:
        return VerifyCell(params, True)
    return VerifyCell(params, False, str(lhs), str(rhs))


def _rows(
    params: ParamItems, lhs: Iterable[MultiPoly], rhs: Iterable[MultiPoly], n_lo: int = 0
) -> list[VerifyCell]:
    """One cell per n >= n_lo: ``lhs[n]`` against ``rhs[n]`` under ``params + (("n", n),)``.

    The sides must have equal length, so a miswired checker raises instead of
    silently checking fewer cells.  Thm1, Cor2, Thm3, Prop4 and Eq15 all
    check ``lhs[n]`` against a binomial convolution ``sum_l C(n,l) a[l] b[n-l]``
    (from :func:`_binomial_convolutions` or :meth:`FamilyMemo.chain_convolutions`);
    each checker builds its ``lhs``, ``a`` and ``b`` along routes of its own.
    """
    pairs = enumerate(zip(lhs, rhs, strict=True))
    return [_cell(params + (("n", n),), a, b) for n, (a, b) in pairs if n >= n_lo]


def _binomial_convolutions(
    a: Sequence[MultiPoly], b: Sequence[MultiPoly], n_max: int
) -> list[MultiPoly]:
    """``sum_{l=0}^{n} C(n,l) a[l] b[n-l]`` at each n = 0..n_max; both lists reach n_max."""
    return [
        sum_of_products((math.comb(n, l), a[l], b[n - l]) for l in range(n + 1))
        for n in range(n_max + 1)
    ]


class FamilyMemo:
    """Caches family constructions and sub-series shared between checkers.

    Everything lives in one :class:`~degenpoly.families.SubSeriesStore`: a
    family's values are built once per builder and parameters, at the
    largest order asked so far, and a request at or below that order is
    served as a prefix of them, since the low coefficients of a truncated
    series do not depend on where it is cut; each accessor wraps what it
    is served in its own type.  The same holds for the chain
    products per r and the chain factors per k-list that Thm1, Cor2 and
    Thm3 share, for the right sides of Thm1 and Cor2 per k-list, kept next
    to the list they were convolved from (:meth:`chain_convolutions`), and
    for the ``(x)_{m,lambda}``, ``(y)_{m,lambda}`` and ``(1)_{m,lambda}``
    bases of Eq15, Prop4 and the chain factors, which come from
    :func:`deg_falling_factorials` and never from the ``e_lambda^x(t)``
    series those checkers compare.  A
    store is active while it builds an entry, so the family builders the
    memo calls share their sub-series through it too
    (``2/(e_lambda(t)+1)`` and its powers, the powers of
    ``log_lambda(1+t)``, the multi-poly-Genocchi kernel of each k-list,
    which the families at ``x``, ``x+y``, 0 and r differ from only by
    ``e_lambda^arg(t)``, and ``e_lambda^arg(t)`` itself for each argument
    but 0, where it is 1 and no family multiplies by it).
    Nothing is shared between two memos or with builders called outside a
    memo.

    With ``corrupt=True`` every multi-poly-Genocchi family served at symbolic
    argument x gets 1 added to the top value it is served with, after the
    cut.  This is the test hook behind
    the CLI's hidden ``--corrupt`` flag: only the x-argument copies are
    touched, so comparisons against clean routes (explicit sums, number
    families, the x+y family) are guaranteed to break rather than cancel.
    """

    def __init__(self, corrupt: bool = False):
        self.corrupt = corrupt
        self._store = families.SubSeriesStore()

    def _family(self, builder: Callable, params: tuple, argument, n_max: int) -> PolyFamily:
        """``builder(*params, argument, n_max)``, built once per builder and params.

        The key holds the builder, so families that coincide mathematically
        (``poly_genocchi(k)`` and ``multi_poly_genocchi((k,))``) stay separate
        entries and can be checked against each other.  The accessors pass
        ``params`` as the ``degen`` readers return them and the argument is
        read here, so a key holds exactly what its builder reads.
        """
        params = (*params, read_argument(argument))
        n_max = read_count(n_max)
        values = self._store.get((builder, params), n_max, lambda n: builder(*params, n).values)
        return PolyFamily(values)

    def multi_poly_genocchi(self, ks, argument, n_max: int) -> PolyFamily:
        fam = self._family(families.multi_poly_genocchi_deg, (index_tuple(ks),), argument, n_max)
        if self.corrupt and argument == "x":
            values = list(fam.values)
            values[-1] = values[-1] + 1
            fam = PolyFamily(tuple(values))
        return fam

    def poly_genocchi(self, k: int, argument, n_max: int) -> PolyFamily:
        return self._family(families.poly_genocchi_deg, index_tuple((k,)), argument, n_max)

    def genocchi(self, argument, n_max: int) -> PolyFamily:
        """The order-1 Genocchi family, so it shares that entry of the store."""
        return self.genocchi_order(1, argument, n_max)

    def genocchi_order(self, r: int, argument, n_max: int) -> PolyFamily:
        r = read_count(r, "r", least=1)
        return self._family(families.genocchi_deg_order, (r,), argument, n_max)

    def euler_order(self, r: int, argument, n_max: int) -> PolyFamily:
        r = read_count(r, "r", least=1)
        return self._family(families.euler_deg_order, (r,), argument, n_max)

    def stirling(self, n_max: int) -> StirlingTable:
        """The Stirling triangle, stored under its builder like a family; looked up at each call."""
        n_max = read_count(n_max)
        entries = self._store.get(
            (stirling1_deg_recurrence, ()), n_max, lambda n: stirling1_deg_recurrence(n).entries
        )
        return StirlingTable(entries)

    def falling_factorials(self, base: str, n_max: int) -> list[MultiPoly]:
        """``(base)_{m,lambda}`` for m = 0..n_max, one :func:`deg_falling_factorials` per base.

        The builder is looked up at each call, so a patched
        ``deg_falling_factorials`` reaches the stored lists.
        """
        base = read_argument(base, weight=True)
        n_max = read_count(n_max)
        return self._store.get(("falling", base), n_max, partial(deg_falling_factorials, base))

    def chain_factors(self, ks, n_max: int) -> list[MultiPoly]:
        """:func:`_chain_factors` of ``ks`` up to ``n_max``, over the shared chain products."""
        ks = index_tuple(ks)

        def build(n: int) -> list[MultiPoly]:
            r = len(ks)
            products = self._store.get(("chain products", r), n, partial(_chain_products, r))
            return _chain_factors(ks, self.stirling(n), products, self.falling_factorials(1, n))

        return self._store.get(("chain factors", ks), read_count(n_max), build)

    def chain_convolutions(self, ks, a: Sequence[MultiPoly], n_max: int) -> list[MultiPoly]:
        """``sum_l C(n,l) a[l] f[n-l]`` for n = 0..n_max, ``f`` the chain factors of ``ks``.

        These are the right sides of Thm1 (``a`` the order-r Euler values)
        and Cor2 (``a`` the Eq19-rescaled order-r Genocchi values), and
        ``a`` holds n_max + 1 values.  The first request for a k-list stores
        them next to its ``a``; a later request whose ``a`` equals the
        stored prefix exactly is served the stored right sides, so Cor2
        convolves nothing after Thm1 wherever Eq19 holds.  A request whose
        ``a`` differs convolves its own and stores nothing.
        """
        ks = index_tuple(ks)

        def convolve(n: int) -> list[MultiPoly]:
            return _binomial_convolutions(a, self.chain_factors(ks, n), n)

        n_max = read_count(n_max)
        stored = self._store.get(
            ("chain convolutions", ks), n_max, lambda n: list(zip(a, convolve(n), strict=True))
        )
        if [value for value, _ in stored] == list(a):
            return [rhs for _, rhs in stored]
        return convolve(n_max)


def _chain_products(r: int, n_max: int) -> list[list[tuple[tuple[int, ...], MultiPoly]]]:
    """Chain products below the top: ``products[top]`` lists each chain
    ``0 < n_1 < ... < n_r = top`` with ``prod_{i<r} (1)_{n_i,lambda}``, the
    product over ``chain[:-1]``.

    The chains are enumerated one by one, apart from the dynamic programme
    of ``deg_multi_polyexp`` that the families are built from.  Each
    chain's product is one product of ``(1)_{n_i,lambda}`` over its prefix,
    built once from the product over that prefix's own prefix and shared
    by every chain that starts with it; :func:`_chain_factors` multiplies
    ``(1)_{top,lambda}`` into each top's chain sum once.
    """
    ones = deg_falling_factorials(1, n_max)
    below: dict[tuple[int, ...], MultiPoly] = {(): ONE}

    def product(head: tuple[int, ...]) -> MultiPoly:
        if head not in below:
            below[head] = product(head[:-1]) * ones[head[-1]]
        return below[head]

    products: list[list] = [[] for _ in range(n_max + 1)]
    for chain in itertools.combinations(range(1, n_max + 1), r):
        products[chain[-1]].append((chain, product(chain[:-1])))
    return products


def _chain_factors(
    ks: Sequence[int],
    stirling: StirlingTable,
    products: Sequence[Sequence],
    ones: Sequence[MultiPoly],
) -> list[MultiPoly]:
    """Chain sums shared by Thm1/Cor2/Thm3 right-hand sides.

    ``factors[j]`` is the sum over chains ``0 < n_1 < ... < n_r <= j`` of
    ``prod_i (1)_{n_i,lambda} * S_{1,lambda}(j, n_r)`` divided by
    ``(n_1-1)! ... (n_{r-1}-1)! * n_1^{k_1} ... n_{r-1}^{k_{r-1}} * n_r^{k_r - 1}``.
    ``products`` are the chain products below the top of
    :func:`_chain_products` for ``r = len(ks)`` and ``ones`` the
    ``(1)_{m,lambda}``, both up to ``stirling.n_max``.  Each chain keeps its
    own term; ``(1)_{top,lambda}``, common to a top's chains, multiplies
    their sum once.
    """
    def weight(chain: tuple[int, ...]) -> tuple[int, int]:
        """One over the chain's divisor above, as integers ``(numerator, denominator)``."""
        num, den = 1, 1
        for n_i, e_i in zip(chain, (*ks[:-1], ks[-1] - 1)):
            if e_i < 0:
                num *= n_i**-e_i
            else:
                den *= n_i**e_i
        for n_i in chain[:-1]:
            den *= math.factorial(n_i - 1)
        return num, den

    def chain_sum(top: int, chains: Sequence) -> MultiPoly:
        # integer weights over the chains' common denominator, divided out once
        weights = [weight(chain) for chain, _ in chains]
        common = math.lcm(*(den for _, den in weights))
        terms = (
            (num * (common // den), prod, ONE) for (num, den), (_, prod) in zip(weights, chains)
        )
        return sum_of_products(terms) * Fraction(1, common) * ones[top]

    by_top = [chain_sum(top, chains) for top, chains in enumerate(products)]
    return [
        sum_of_products((1, by_top[top], stirling.value(j, top)) for top in range(1, j + 1))
        for j in range(stirling.n_max + 1)
    ]


def _per_k_list(identity_id: str) -> Callable:
    """The frame of a per-k-list checker whose body returns only its cells.

    The checker reads ``ks`` through :func:`index_tuple`, then ``n_max``
    through :func:`read_count`, builds on a fresh memo when none is given,
    and reports the cells under ``(("ks", ks), ("n_max", n_max))``.  It keeps
    the body's name and docstring, not its signature.
    """

    def frame(body: Callable[..., list[VerifyCell]]) -> Callable[..., VerifyReport]:
        def check(ks, n_max: int, memo: FamilyMemo | None = None) -> VerifyReport:
            ks = index_tuple(ks)
            read_count(n_max)
            cells = body(ks, n_max, memo or FamilyMemo())
            return VerifyReport(identity_id, (("ks", ks), ("n_max", n_max)), tuple(cells))

        check.__name__ = check.__qualname__ = body.__name__
        check.__doc__ = body.__doc__
        return check

    return frame


@_per_k_list("Thm1")
def check_theorem1(ks: tuple[int, ...], n_max: int, memo: FamilyMemo) -> list[VerifyCell]:
    """Chain-sum expansion of g_n(x) over order-r Euler polynomials.

    Cells cover n = r..n_max; the n < r vanishing clause is asserted too and
    surfaces as extra failing cells only when violated.
    """
    r = len(ks)
    fam = memo.multi_poly_genocchi(ks, "x", n_max)
    cells = []
    for n in range(min(r, n_max + 1)):
        if fam.values[n]:
            cells.append(_cell((("clause", "vanishing"), ("n", n)), fam.values[n], ZERO))
    if n_max >= r:
        euler = memo.euler_order(r, "x", n_max).values
        cells += _rows((), fam.values, memo.chain_convolutions(ks, euler, n_max), r)
    return cells


@_per_k_list("Cor2")
def check_corollary2(ks: tuple[int, ...], n_max: int, memo: FamilyMemo) -> list[VerifyCell]:
    """Same expansion with Euler replaced by order-r Genocchi via Eq19."""
    r = len(ks)
    if n_max < r:
        return []
    fam = memo.multi_poly_genocchi(ks, "x", n_max)
    # built at n_max + r, the order Eq19 asks for, so one build serves both
    gen_r = memo.genocchi_order(r, "x", n_max + r)
    # Eq19 weight: E^(r)_l = G^(r)_{l+r} / (r! C(l+r, l)); Thm1's Euler list
    # whenever Eq19 holds, so the memo may serve Thm1's right sides
    r_fact = math.factorial(r)
    euler = [
        gen_r.values[l + r] * Fraction(1, r_fact * math.comb(l + r, l))
        for l in range(n_max + 1)
    ]
    return _rows((), fam.values, memo.chain_convolutions(ks, euler, n_max), r)


@_per_k_list("Thm3")
def check_theorem3(ks: tuple[int, ...], n_max: int, memo: FamilyMemo) -> list[VerifyCell]:
    """Numbers at argument r via alternating sums of order-l Euler numbers."""
    r = len(ks)
    if n_max < r:
        return []
    fam = memo.multi_poly_genocchi(ks, Fraction(r), n_max)
    # euler_mix[m] = sum_{l=0}^{r} C(r,l) (-1)^l 2^(r-l) E^(l)_m, order 0 giving delta_{m,0}
    euler_mix: list[MultiPoly] = [ZERO] * (n_max + 1)
    euler_mix[0] = MultiPoly.const(2**r)
    for l in range(1, r + 1):
        weight = math.comb(r, l) * (-1) ** l * 2 ** (r - l)
        numbers = memo.euler_order(l, Fraction(0), n_max)
        for m in range(n_max + 1):
            euler_mix[m] = euler_mix[m] + weight * numbers.values[m]
    rhs = _binomial_convolutions(euler_mix, memo.chain_factors(ks, n_max), n_max)
    return _rows((), fam.values, rhs, r)


@_per_k_list("Prop4")
def check_prop4(ks: tuple[int, ...], n_max: int, memo: FamilyMemo) -> list[VerifyCell]:
    """Addition rule g_n(x+y) = sum_l C(n,l) g_l(x) (y)_{n-l,lambda}."""
    fam_xy = memo.multi_poly_genocchi(ks, "x+y", n_max)
    fam_x = memo.multi_poly_genocchi(ks, "x", n_max)
    fall_y = memo.falling_factorials("y", n_max)
    return _rows((), fam_xy.values, _binomial_convolutions(fam_x.values, fall_y, n_max))


@_per_k_list("Eq15")
def check_eq15(ks: tuple[int, ...], n_max: int, memo: FamilyMemo) -> list[VerifyCell]:
    """Expansion g_n(x) = sum_l C(n,l) g_l (x)_{n-l,lambda} over the numbers."""
    fam_x = memo.multi_poly_genocchi(ks, "x", n_max)
    numbers = memo.multi_poly_genocchi(ks, Fraction(0), n_max)
    fall_x = memo.falling_factorials("x", n_max)
    return _rows((), fam_x.values, _binomial_convolutions(numbers.values, fall_x, n_max))


@_per_k_list("Vanishing")
def check_vanishing(ks: tuple[int, ...], n_max: int, memo: FamilyMemo) -> list[VerifyCell]:
    """g_n vanishes identically for n below the number of indices."""
    fam = memo.multi_poly_genocchi(ks, "x", n_max)
    lhs = fam.values[: len(ks)]
    return _rows((), lhs, [ZERO] * len(lhs))


# the largest r of Eq19 in the full sweep
EQ19_R_MAX = 3


def check_eq19(n_max: int, r_max: int = EQ19_R_MAX, memo: FamilyMemo | None = None) -> VerifyReport:
    """Order-r Euler against order-r Genocchi: r! C(n+r,n) E^(r)_n = G^(r)_{n+r}."""
    read_count(n_max)
    read_count(r_max, "r_max", least=1)
    memo = memo or FamilyMemo()
    cells = []
    for r in range(1, r_max + 1):
        euler = memo.euler_order(r, "x", n_max).values
        gen = memo.genocchi_order(r, "x", n_max + r).values
        scale = math.factorial(r)
        lhs = [value * (scale * math.comb(n + r, n)) for n, value in enumerate(euler)]
        cells += _rows((("r", r),), lhs, gen[r:])
    return VerifyReport("Eq19", (("r_max", r_max), ("n_max", n_max)), tuple(cells))


def check_reduction(n_max: int, memo: FamilyMemo | None = None) -> VerifyReport:
    """Single-index reductions: ks=[1] gives Genocchi, ks=[k] gives poly-Genocchi."""
    read_count(n_max)
    memo = memo or FamilyMemo()
    plain = memo.genocchi("x", n_max).values
    cells = _rows(
        (("case", "ks=[1] vs genocchi"),), memo.multi_poly_genocchi((1,), "x", n_max).values, plain
    )
    cells += _rows(
        (("case", "k=1 poly vs genocchi"),), memo.poly_genocchi(1, "x", n_max).values, plain
    )
    for k in (-2, -1, 0, 1, 2):
        cells += _rows(
            (("case", "ks=[k] vs poly"), ("k", k)),
            memo.multi_poly_genocchi((k,), "x", n_max).values,
            memo.poly_genocchi(k, "x", n_max).values,
        )
    return VerifyReport("ReductionR1K1", (("n_max", n_max),), tuple(cells))


def _classical_genocchi_numbers(n_max: int) -> list[Fraction]:
    """Ordinary Genocchi numbers by plain rational division of 2t by e^t + 1.

    Kept independent of the series and family machinery on purpose: it is
    the oracle the lambda = 0 collapse is judged against.
    """
    a = [Fraction(2)] + [Fraction(1, math.factorial(n)) for n in range(1, n_max + 1)]
    c: list[Fraction] = []
    for n in range(n_max + 1):
        target = Fraction(2) if n == 1 else Fraction(0)
        s = target - sum(a[i] * c[n - i] for i in range(1, n + 1))
        c.append(s / a[0])
    return [c[n] * math.factorial(n) for n in range(n_max + 1)]


def _at_lambda0(values: Iterable[MultiPoly]) -> list[MultiPoly]:
    return [value.substitute("lambda", 0) for value in values]


def check_basics(n_max: int, memo: FamilyMemo | None = None) -> list[VerifyReport]:
    """Base-case reports: Eq05, InverseLogExp and LambdaZeroClassical."""
    read_count(n_max)
    memo = memo or FamilyMemo()
    reports = []
    e_lam = deg_exp(1, n_max)
    e_lam_m1 = e_lam - 1
    polyexp = {k: deg_polyexp(k, n_max) for k in (-1, 0, 1, 2)}
    polyexp_lam0 = {k: polyexp_modified(k, n_max) for k in polyexp}
    log_series = deg_log(n_max)
    log_powers = log_series.powers(n_max)
    t = TruncatedSeries.t(n_max)

    exp_m1 = [ZERO] + [MultiPoly.const(Fraction(1, math.factorial(n))) for n in range(1, n_max + 1)]
    cells = _rows((("case", "Ei_1 = exp - 1"),), polyexp_lam0[1].coeffs, exp_m1)
    cells += _rows((("case", "Ei_{1,lambda} = e_lambda - 1"),), polyexp[1].coeffs, e_lam_m1.coeffs)
    reports.append(VerifyReport("Eq05", (("n_max", n_max),), tuple(cells)))

    cells = []
    for case, lhs, rhs in (
        ("e_lambda(log_lambda(1+t)) = 1+t", e_lam.compose(log_series, log_powers), t + 1),
        ("Ei_{1,lambda}(log_lambda(1+t)) = t", polyexp[1].compose(log_series, log_powers), t),
        ("log_lambda(e_lambda(t)) = t", log_series.compose(e_lam_m1), t),
    ):
        cells += _rows((("case", case),), lhs.coeffs, rhs.coeffs)
    reports.append(VerifyReport("InverseLogExp", (("n_max", n_max),), tuple(cells)))

    cells = []
    for n, row in enumerate(memo.stirling(n_max).entries):
        classical = classical_falling_factorial(n)
        for k, value in enumerate(row):
            params = (("case", "stirling1 classical"), ("n", n), ("k", k))
            cells.append(_cell(params, value.substitute("lambda", 0), classical.coeff_x(k)))
    cells += _rows(
        (("case", "genocchi numbers"),),
        _at_lambda0(memo.genocchi(Fraction(0), n_max).values),
        map(MultiPoly.const, _classical_genocchi_numbers(n_max)),
    )
    exp_x = deg_exp("x", n_max)
    cells += _rows(
        (("case", "deg_exp classical"),),
        _at_lambda0(exp_x.egf_coeff(n) for n in range(n_max + 1)),
        (X**n for n in range(n_max + 1)),
    )
    for k, series in polyexp.items():
        cells += _rows(
            (("case", "polyexp classical"), ("k", k)),
            _at_lambda0(series.coeffs),
            polyexp_lam0[k].coeffs,
        )
    reports.append(VerifyReport("LambdaZeroClassical", (("n_max", n_max),), tuple(cells)))
    return reports


# r = 1 is swept exhaustively over k in -2..2, r = 2 over pairs from -1..2;
# r = 3 uses this fixed sample so every run checks identical instances.
R3_SAMPLE = (
    (1, 1, 1),
    (2, 1, 1),
    (-1, 1, 2),
    (0, 0, 0),
    (-2, 1, 2),
    (1, -1, 1),
    (2, -2, 2),
    (-1, -2, 1),
)


def default_k_lists() -> tuple[tuple[int, ...], ...]:
    singles = tuple((k,) for k in (-2, -1, 0, 1, 2))
    pairs = tuple((a, b) for a in (-1, 0, 1, 2) for b in (-1, 0, 1, 2))
    return singles + pairs + R3_SAMPLE


PER_KS_CHECKS: dict[str, Callable[..., VerifyReport]] = {
    "thm1": check_theorem1,
    "cor2": check_corollary2,
    "thm3": check_theorem3,
    "prop4": check_prop4,
    "eq15": check_eq15,
    "vanishing": check_vanishing,
}

IDENTITY_CHOICES = tuple(PER_KS_CHECKS) + ("basics", "all")

# Prop4 is the one checker whose work grows with trivariate coefficients;
# inside the full sweep it is capped at this n_max (standalone runs are not).
PROP4_SWEEP_CAP = 8


def run_identity(
    identity: str,
    n_max: int,
    k_lists: Sequence[Sequence[int]] | None = None,
    memo: FamilyMemo | None = None,
) -> list[VerifyReport]:
    """Run one identity (or ``basics`` / ``all``) and return its reports.

    ``k_lists`` defaults to :func:`default_k_lists`; default lists whose
    length exceeds ``n_max`` are skipped, while an explicit list longer than
    ``n_max`` still runs and may yield vacuous (zero-cell) reports.  An
    unknown identity or a negative ``n_max`` raises ``ValueError``.
    """
    read_count(n_max)
    memo = memo or FamilyMemo()
    explicit = k_lists is not None
    lists = [tuple(ks) for ks in k_lists] if explicit else list(default_k_lists())
    if not explicit:
        lists = [ks for ks in lists if len(ks) <= n_max]
    if identity in PER_KS_CHECKS:
        return [PER_KS_CHECKS[identity](ks, n_max, memo) for ks in lists]
    if identity == "basics":
        return check_basics(n_max, memo)
    if identity == "all":
        # Eq19 (r <= EQ19_R_MAX) and Cor2 (r = len(ks) <= n_max; a longer list
        # gives a vacuous report) ask for order-r Genocchi at n_max + r, the
        # highest orders of the sweep.  Building the highest first lets the
        # memo build 2/(e_lambda(t)+1) once and cut every later request down from it.
        r_top = max([EQ19_R_MAX, *(len(ks) for ks in lists if len(ks) <= n_max)])
        memo.genocchi_order(r_top, "x", n_max + r_top)
        reports: list[VerifyReport] = []
        for name, checker in PER_KS_CHECKS.items():
            nm = min(n_max, PROP4_SWEEP_CAP) if name == "prop4" else n_max
            for ks in lists:
                reports.append(checker(ks, nm, memo))
        reports.append(check_eq19(n_max, EQ19_R_MAX, memo))
        reports.append(check_reduction(n_max, memo))
        reports.extend(check_basics(n_max, memo))
        return reports
    raise ValueError(f"unknown identity {identity!r}; choose from {IDENTITY_CHOICES}")
