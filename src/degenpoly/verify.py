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
    polyexp_modified,
    stirling1_deg_recurrence,
)
from .families import PolyFamily
from .poly import ONE, X, ZERO, MultiPoly, sum_of_products
from .series import TruncatedSeries

ParamItems = tuple[tuple[str, object], ...]


def _json_value(value):
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


@dataclass(frozen=True)
class VerifyCell:
    """One checked instance of an identity; sides are kept only on failure."""

    params: ParamItems
    passed: bool
    lhs: str | None = None
    rhs: str | None = None

    def to_dict(self) -> dict:
        d: dict = {"params": {k: _json_value(v) for k, v in self.params}, "passed": self.passed}
        if not self.passed:
            d["lhs"] = self.lhs
            d["rhs"] = self.rhs
        return d


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

    def to_dict(self) -> dict:
        d: dict = {
            "identity_id": self.identity_id,
            "params": {k: _json_value(v) for k, v in self.params},
            "passed": self.passed,
        }
        if self.vacuous:
            d["vacuous"] = True
        d["cells"] = [cell.to_dict() for cell in self.cells]
        return d


def _cell(params: ParamItems, lhs: MultiPoly, rhs: MultiPoly) -> VerifyCell:
    if lhs == rhs:
        return VerifyCell(params, True)
    return VerifyCell(params, False, str(lhs), str(rhs))


def _rows(
    params: ParamItems, lhs: Iterable[MultiPoly], rhs: Iterable[MultiPoly]
) -> list[VerifyCell]:
    """One cell per n: ``lhs[n]`` against ``rhs[n]`` under ``params + (("n", n),)``.

    The sides must have equal length, so a miswired checker raises instead of
    silently checking fewer cells.
    """
    pairs = enumerate(zip(lhs, rhs, strict=True))
    return [_cell(params + (("n", n),), a, b) for n, (a, b) in pairs]


def _binomial_convolution(a: Sequence[MultiPoly], b: Sequence[MultiPoly], n: int) -> MultiPoly:
    """``sum_l C(n,l) a[l] b[n-l]``; entries past the end of a or b count as zero."""
    ls = range(max(0, n - len(b) + 1), min(n, len(a) - 1) + 1)
    return sum_of_products((math.comb(n, l), a[l], b[n - l]) for l in ls)


def _truncate(table: PolyFamily | StirlingTable, n_max: int) -> PolyFamily | StirlingTable:
    """The same table cut down to ``n_max``."""
    if isinstance(table, StirlingTable):
        return StirlingTable(n_max, table.entries[: n_max + 1])
    return PolyFamily(table.values[: n_max + 1])


def _head(seq: Sequence, n_max: int) -> Sequence:
    """Entries 0..n_max of a table indexed by n."""
    return seq[: n_max + 1]


class FamilyMemo:
    """Caches family constructions and sub-series shared between checkers.

    Everything lives in one :class:`~degenpoly.families.SubSeriesStore`: a
    family is built once per builder and parameters, at the largest order
    asked so far, and a request at or below that order is served by
    truncating the build, since the low coefficients of a truncated series
    do not depend on where it is cut.  The same holds for the chain
    products per r and the chain factors per k-list that Thm1, Cor2 and
    Thm3 share, and for the ``(x)_{m,lambda}`` and ``(y)_{m,lambda}`` bases
    of Eq15 and Prop4, which come from :func:`deg_falling_factorials` and
    never from the ``e_lambda^x(t)`` series those checkers compare.  A
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
    truncation.  This is the test hook behind
    the CLI's hidden ``--corrupt`` flag: only the x-argument copies are
    touched, so comparisons against clean routes (explicit sums, number
    families, the x+y family) are guaranteed to break rather than cancel.
    """

    def __init__(self, corrupt: bool = False):
        self.corrupt = corrupt
        self._store = families.SubSeriesStore()

    def _family(self, builder: Callable, params: tuple, argument, n_max: int):
        """``builder(*params, argument, n_max)``, built once per builder and params.

        The key holds the builder, so families that coincide mathematically
        (``poly_genocchi(k)`` and ``multi_poly_genocchi((k,))``) stay separate
        entries and can be checked against each other.  ``argument=None``
        means the builder takes none.
        """
        if argument is not None:
            params = (*params, families._norm_argument(argument))
        value = self._store.get((builder, params), n_max, partial(builder, *params), _truncate)
        if self.corrupt and builder is families.multi_poly_genocchi_deg and params[-1] == "x":
            values = list(value.values)
            values[-1] = values[-1] + 1
            value = PolyFamily(tuple(values))
        return value

    def multi_poly_genocchi(self, ks, argument, n_max: int) -> PolyFamily:
        return self._family(families.multi_poly_genocchi_deg, (_norm_ks(ks),), argument, n_max)

    def poly_genocchi(self, k: int, argument, n_max: int) -> PolyFamily:
        return self._family(families.poly_genocchi_deg, (k,), argument, n_max)

    def genocchi(self, argument, n_max: int) -> PolyFamily:
        return self._family(families.genocchi_deg, (), argument, n_max)

    def genocchi_order(self, r: int, argument, n_max: int) -> PolyFamily:
        return self._family(families.genocchi_deg_order, (r,), argument, n_max)

    def euler_order(self, r: int, argument, n_max: int) -> PolyFamily:
        return self._family(families.euler_deg_order, (r,), argument, n_max)

    def stirling(self, n_max: int) -> StirlingTable:
        return self._family(stirling1_deg_recurrence, (), None, n_max)

    def falling_factorials(self, base: str, n_max: int) -> list[MultiPoly]:
        """``(base)_{m,lambda}`` for m = 0..n_max, one :func:`deg_falling_factorials` per base.

        The builder is looked up at each call, so a patched
        ``deg_falling_factorials`` reaches the stored lists.
        """
        return self._store.get(
            ("falling", base), n_max, partial(deg_falling_factorials, base), _head
        )

    def chain_factors(self, ks: tuple[int, ...], n_max: int) -> list[MultiPoly]:
        """:func:`_chain_factors` of ``ks`` up to ``n_max``, over the shared chain products."""

        def build(n: int) -> list[MultiPoly]:
            r = len(ks)
            products = self._store.get(("chain products", r), n, partial(_chain_products, r), _head)
            return _chain_factors(ks, self.stirling(n), products)

        return self._store.get(("chain factors", ks), n_max, build, _head)


def _chain_products(r: int, n_max: int) -> list[list[tuple[tuple[int, ...], MultiPoly]]]:
    """Chain products: ``products[top]`` lists each chain ``0 < n_1 < ... < n_r = top``
    with its product ``prod_i (1)_{n_i,lambda}``.

    The chains are enumerated one by one, apart from the dynamic programme
    of ``deg_multi_polyexp`` that the families are built from.
    """
    ones = deg_falling_factorials(1, n_max)
    products: list[list] = [[] for _ in range(n_max + 1)]
    for chain in itertools.combinations(range(1, n_max + 1), r):
        prod = ones[chain[-1]]
        for n_i in chain[:-1]:
            prod = prod * ones[n_i]
        products[chain[-1]].append((chain, prod))
    return products


def _chain_factors(
    ks: Sequence[int], stirling: StirlingTable, products: Sequence[Sequence]
) -> list[MultiPoly]:
    """Chain sums shared by Thm1/Cor2/Thm3 right-hand sides.

    ``factors[j]`` is the sum over chains ``0 < n_1 < ... < n_r <= j`` of
    ``prod_i (1)_{n_i,lambda} * S_{1,lambda}(j, n_r)`` divided by
    ``(n_1-1)! ... (n_{r-1}-1)! * n_1^{k_1} ... n_{r-1}^{k_{r-1}} * n_r^{k_r - 1}``.
    ``products`` are the chain products of :func:`_chain_products` for
    ``r = len(ks)``, up to ``stirling.n_max``.
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

    def chain_sum(chains: Sequence) -> MultiPoly:
        # integer weights over the chains' common denominator, divided out once
        weights = [weight(chain) for chain, _ in chains]
        common = math.lcm(*(den for _, den in weights))
        terms = (
            (num * (common // den), prod, ONE) for (num, den), (_, prod) in zip(weights, chains)
        )
        return sum_of_products(terms) * Fraction(1, common)

    by_top = [chain_sum(chains) for chains in products]
    return [
        sum_of_products((1, by_top[top], stirling.value(j, top)) for top in range(1, j + 1))
        for j in range(stirling.n_max + 1)
    ]


def _convolution_cells(lhs, a, b, n_lo: int, n_max: int) -> list[VerifyCell]:
    """One cell per n = n_lo..n_max: ``lhs[n]`` against ``sum_l C(n,l) a[l] b[n-l]``.

    Thm1, Cor2, Thm3, Prop4 and Eq15 all have this shape; each checker
    builds its ``lhs``, ``a`` and ``b`` along routes of its own.
    """
    return [
        _cell((("n", n),), lhs[n], _binomial_convolution(a, b, n))
        for n in range(n_lo, n_max + 1)
    ]


def _norm_ks(ks) -> tuple[int, ...]:
    return tuple(int(k) for k in ks)


def check_theorem1(ks, n_max: int, memo: FamilyMemo | None = None) -> VerifyReport:
    """Chain-sum expansion of g_n(x) over order-r Euler polynomials.

    Cells cover n = r..n_max; the n < r vanishing clause is asserted too and
    surfaces as extra failing cells only when violated.
    """
    ks = _norm_ks(ks)
    memo = memo or FamilyMemo()
    r = len(ks)
    fam = memo.multi_poly_genocchi(ks, "x", n_max)
    cells = []
    for n in range(min(r, n_max + 1)):
        if fam.values[n]:
            cells.append(_cell((("clause", "vanishing"), ("n", n)), fam.values[n], ZERO))
    if n_max >= r:
        euler = memo.euler_order(r, "x", n_max).values
        cells += _convolution_cells(fam.values, euler, memo.chain_factors(ks, n_max), r, n_max)
    return VerifyReport("Thm1", (("ks", ks), ("n_max", n_max)), tuple(cells))


def check_corollary2(ks, n_max: int, memo: FamilyMemo | None = None) -> VerifyReport:
    """Same expansion with Euler replaced by order-r Genocchi via Eq19."""
    ks = _norm_ks(ks)
    memo = memo or FamilyMemo()
    r = len(ks)
    if n_max < r:
        return VerifyReport("Cor2", (("ks", ks), ("n_max", n_max)), ())
    fam = memo.multi_poly_genocchi(ks, "x", n_max)
    # built at n_max + r, the order Eq19 asks for, so one build serves both
    gen_r = memo.genocchi_order(r, "x", n_max + r)
    # Eq19 weight: E^(r)_l = G^(r)_{l+r} / (r! C(l+r, l))
    r_fact = math.factorial(r)
    euler = [
        gen_r.values[l + r] * Fraction(1, r_fact * math.comb(l + r, l))
        for l in range(n_max - r + 1)
    ]
    cells = _convolution_cells(fam.values, euler, memo.chain_factors(ks, n_max), r, n_max)
    return VerifyReport("Cor2", (("ks", ks), ("n_max", n_max)), tuple(cells))


def check_theorem3(ks, n_max: int, memo: FamilyMemo | None = None) -> VerifyReport:
    """Numbers at argument r via alternating sums of order-l Euler numbers."""
    ks = _norm_ks(ks)
    memo = memo or FamilyMemo()
    r = len(ks)
    if n_max < r:
        return VerifyReport("Thm3", (("ks", ks), ("n_max", n_max)), ())
    fam = memo.multi_poly_genocchi(ks, Fraction(r), n_max)
    # euler_mix[m] = sum_{l=0}^{r} C(r,l) (-1)^l 2^(r-l) E^(l)_m, order 0 giving delta_{m,0}
    euler_mix: list[MultiPoly] = [ZERO] * (n_max + 1)
    euler_mix[0] = MultiPoly.const(2**r)
    for l in range(1, r + 1):
        weight = math.comb(r, l) * (-1) ** l * 2 ** (r - l)
        numbers = memo.euler_order(l, Fraction(0), n_max)
        for m in range(n_max + 1):
            euler_mix[m] = euler_mix[m] + weight * numbers.values[m]
    cells = _convolution_cells(fam.values, euler_mix, memo.chain_factors(ks, n_max), r, n_max)
    return VerifyReport("Thm3", (("ks", ks), ("n_max", n_max)), tuple(cells))


def check_prop4(ks, n_max: int, memo: FamilyMemo | None = None) -> VerifyReport:
    """Addition rule g_n(x+y) = sum_l C(n,l) g_l(x) (y)_{n-l,lambda}."""
    ks = _norm_ks(ks)
    memo = memo or FamilyMemo()
    fam_xy = memo.multi_poly_genocchi(ks, "x+y", n_max)
    fam_x = memo.multi_poly_genocchi(ks, "x", n_max)
    fall_y = memo.falling_factorials("y", n_max)
    cells = _convolution_cells(fam_xy.values, fam_x.values, fall_y, 0, n_max)
    return VerifyReport("Prop4", (("ks", ks), ("n_max", n_max)), tuple(cells))


def check_eq15(ks, n_max: int, memo: FamilyMemo | None = None) -> VerifyReport:
    """Expansion g_n(x) = sum_l C(n,l) g_l (x)_{n-l,lambda} over the numbers."""
    ks = _norm_ks(ks)
    memo = memo or FamilyMemo()
    fam_x = memo.multi_poly_genocchi(ks, "x", n_max)
    numbers = memo.multi_poly_genocchi(ks, Fraction(0), n_max)
    fall_x = memo.falling_factorials("x", n_max)
    cells = _convolution_cells(fam_x.values, numbers.values, fall_x, 0, n_max)
    return VerifyReport("Eq15", (("ks", ks), ("n_max", n_max)), tuple(cells))


def check_vanishing(ks, n_max: int, memo: FamilyMemo | None = None) -> VerifyReport:
    """g_n vanishes identically for n below the number of indices."""
    ks = _norm_ks(ks)
    memo = memo or FamilyMemo()
    fam = memo.multi_poly_genocchi(ks, "x", n_max)
    lhs = fam.values[: len(ks)]
    cells = _rows((), lhs, [ZERO] * len(lhs))
    return VerifyReport("Vanishing", (("ks", ks), ("n_max", n_max)), tuple(cells))


def check_eq19(n_max: int, r_max: int = 3, memo: FamilyMemo | None = None) -> VerifyReport:
    """Order-r Euler against order-r Genocchi: r! C(n+r,n) E^(r)_n = G^(r)_{n+r}."""
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
    memo = memo or FamilyMemo()
    reports = []

    exp_m1 = [ZERO] + [MultiPoly.const(Fraction(1, math.factorial(n))) for n in range(1, n_max + 1)]
    cells = _rows((("case", "Ei_1 = exp - 1"),), polyexp_modified(1, n_max).coeffs, exp_m1)
    cells += _rows(
        (("case", "Ei_{1,lambda} = e_lambda - 1"),),
        deg_polyexp(1, n_max).coeffs,
        (deg_exp(1, n_max) - 1).coeffs,
    )
    reports.append(VerifyReport("Eq05", (("n_max", n_max),), tuple(cells)))

    log_series = deg_log(n_max)
    t_coeffs = TruncatedSeries.t(n_max).coeffs
    cells = _rows(
        (("case", "e_lambda(log_lambda(1+t)) = 1+t"),),
        deg_exp(1, n_max).compose(log_series).coeffs,
        (TruncatedSeries.t(n_max) + 1).coeffs,
    )
    cells += _rows(
        (("case", "Ei_{1,lambda}(log_lambda(1+t)) = t"),),
        deg_polyexp(1, n_max).compose(log_series).coeffs,
        t_coeffs,
    )
    cells += _rows(
        (("case", "log_lambda(e_lambda(t)) = t"),),
        log_series.compose(deg_exp(1, n_max) - 1).coeffs,
        t_coeffs,
    )
    reports.append(VerifyReport("InverseLogExp", (("n_max", n_max),), tuple(cells)))

    cells = []
    table = memo.stirling(n_max)
    for n in range(n_max + 1):
        classical = classical_falling_factorial(n)
        for k in range(n + 1):
            lhs = table.value(n, k).substitute("lambda", 0)
            cells.append(
                _cell((("case", "stirling1 classical"), ("n", n), ("k", k)), lhs, classical.coeff_x(k))
            )
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
    for k in (-1, 0, 1, 2):
        cells += _rows(
            (("case", "polyexp classical"), ("k", k)),
            _at_lambda0(deg_polyexp(k, n_max).coeffs),
            polyexp_modified(k, n_max).coeffs,
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

# the largest r of Eq19 in the full sweep
EQ19_R_MAX = 3

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
    unknown identity raises ``ValueError``.
    """
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
        # memo invert e_lambda(t)+1 once and cut every later request down from it.
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
