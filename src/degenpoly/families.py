"""Degenerate Genocchi-type polynomial families from generating functions.

Every family's exponential generating function is a kernel series times
``e_lambda^arg(t)``.  Each constructor builds its kernel as an exact
truncated series, and one shared assembly multiplies it by
``e_lambda^arg(t)`` and reads off the values ``n! * c_n``:

* ``genocchi_deg``: degenerate Genocchi, ``2t / (e_lambda(t) + 1) * e_lambda^x(t)``,
  built as the order-1 family of ``genocchi_deg_order``
* ``genocchi_deg_order``: order-r version with ``(2t / (e_lambda(t) + 1))^r``
* ``euler_deg_order``: degenerate Euler of order r, ``(2 / (e_lambda(t) + 1))^r``
* ``poly_genocchi_deg``: degenerate poly-Genocchi,
  ``2 Ei_{k,lambda}(log_lambda(1+t)) / (e_lambda(t) + 1) * e_lambda^x(t)``
* ``multi_poly_genocchi_deg``: degenerate multi-poly-Genocchi,
  ``2^r Ei_{(k_1..k_r),lambda}(log_lambda(1+t)) / (e_lambda(t) + 1)^r * e_lambda^x(t)``

Every kernel carries the factor ``K = 2 / (e_lambda(t) + 1)``.  It solves
its Riccati equation ``(1 + lambda t) K' = K^2 / 2 - K``, one symmetric
square coefficient per step, and reads no ``deg_exp``, so Thm3, which sets
it against ``e_lambda^r(t)``, compares two separate routes.  Its powers
``K^r`` are series squares, which take each cross product once.

The argument may be the symbol ``"x"``, the sum ``"x+y"``, or an exact
rational (0 gives the number family).  ``multi_poly_genocchi_deg`` with a
single index k equals ``poly_genocchi_deg(k, ...)``, and with k = 1 both
collapse to ``genocchi_deg``.  Each builder reads its inputs through the
readers in :mod:`degenpoly.degen` before it builds a kernel.  Every builder
takes the keyword ``lam``: the symbol ``LAM`` by default, or a constant
polynomial to build the family at that value of lambda directly.

A :class:`SubSeriesStore` is active while it builds an entry, as when a
memo builds a family.  Symbolic builds running then take
``2 / (e_lambda(t) + 1)``, its powers, the powers of ``log_lambda(1+t)``,
each k-list's multi-poly-Genocchi kernel and ``e_lambda^arg(t)`` for each
argument from that store, each built once at the largest order asked for
and served as a prefix of its coefficients; outside a store's build, and
at any other ``lam``, every build makes its own.  Each family still
multiplies its own kernel by ``e_lambda^arg(t)``, except at argument 0:
``e_lambda^0(t) = 1``, so the number families are the kernel's own values
``n! c_n``, at every ``lam``.
Only the multi-poly builder reads the kernel entries: ``poly_genocchi_deg``
and the order-r Genocchi builder build their own kernels, so the verifier
can check the single-index reductions against them.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Sequence

from .degen import Argument, deg_exp, deg_log, deg_multi_polyexp, deg_polyexp, index_tuple
from .degen import read_argument, read_count, read_lam
from .poly import LAM, ONE, MultiPoly, sum_of_products
from .series import TruncatedSeries, square_terms

@dataclass(frozen=True)
class PolyFamily:
    """A polynomial family evaluated to order ``len(values) - 1``.

    ``values[n]`` is the n-th member as an exact polynomial in lambda (and
    x, y when the argument is symbolic).
    """

    values: tuple[MultiPoly, ...]


class SubSeriesStore:
    """Sequences indexed by order, each built once per key at the largest order asked for so far.

    A request at or below that order is served as a prefix of the stored
    sequence, since the low coefficients of a truncated series do not
    depend on where it is cut; a larger order builds the sequence again.
    Callers store plain sequences (coefficients, family values, the
    Stirling rows): a shared sub-series is served as coefficients, which
    its builder wraps in a :class:`~degenpoly.series.TruncatedSeries`, and
    family values and the Stirling rows are served as stored.  The store
    is active while ``build`` runs, so the family builders it calls share
    their sub-series through it.  One store belongs to one
    :class:`~degenpoly.verify.FamilyMemo`, which keeps its families, chain
    sums and those sub-series in it.
    """

    def __init__(self) -> None:
        self._entries: dict[Hashable, tuple[int, Sequence]] = {}

    def get(self, key: Hashable, order: int, build: Callable[[int], Sequence]) -> Sequence:
        """Entries ``0..order`` under ``key``, from ``build(order)`` if those stored end lower."""
        read_count(order, "order")
        entry = self._entries.get(key)
        if entry is None or entry[0] < order:
            token = _STORE.set(self)
            try:
                entry = (order, build(order))
            finally:
                _STORE.reset(token)
            self._entries[key] = entry
        return entry[1][: order + 1]


# The store that is building an entry, if any.  Builders called outside
# a store's build see None and build every sub-series themselves.
_STORE: ContextVar[SubSeriesStore | None] = ContextVar("degenpoly_sub_series", default=None)


def _active_store(lam: MultiPoly) -> SubSeriesStore | None:
    """The store a build at ``lam`` shares through, if any.

    A store's keys carry no lambda, so only symbolic builds use it.
    """
    return _STORE.get() if lam == LAM else None


def _shared_series(
    key: Hashable, order: int, build: Callable[[int], TruncatedSeries], *, lam: MultiPoly
) -> TruncatedSeries:
    """``build(order)``, or the series on the active store's copy of its coefficients."""
    store = _active_store(lam)
    if store is None:
        return build(order)
    return TruncatedSeries(order, store.get(key, order, lambda n: build(n).coeffs))


def _two_over_exp_plus_one(order: int, *, lam: MultiPoly) -> TruncatedSeries:
    """``K = 2 / (e_lambda(t) + 1)``, the factor every kernel is built from.

    ``e_lambda(t)' = e_lambda(t) / (1 + lambda t)`` makes K solve the Riccati
    equation ``(1 + lambda t) K' = K^2 / 2 - K``, so from ``K_0 = 1``
    ``2(n+1) K_{n+1} = [t^n] K^2 - 2(1 + n lambda) K_n``: each step is one
    sum of the square's symmetric triples and that one more term.
    """
    k = [ONE]
    for n in range(order):
        terms = square_terms(k, n)
        terms.append((-2, lam * n + 1, k[n]))
        k.append(sum_of_products(terms) * Fraction(1, 2 * (n + 1)))
    return TruncatedSeries(order, k)


def _two_over_exp_plus_one_power(r: int, order: int, *, lam: MultiPoly) -> TruncatedSeries:
    """``(2 / (e_lambda(t) + 1))^r``, shared by the Euler and multi-poly kernels."""
    base = _shared_series("2/(e+1)", order, lambda n: _two_over_exp_plus_one(n, lam=lam), lam=lam)
    return _shared_series(("2/(e+1)", r), order, lambda _: base**r, lam=lam)


def _compose_with_log(outer: TruncatedSeries, *, lam: MultiPoly) -> TruncatedSeries:
    """``outer(log_lambda(1+t))``; inside a memo, the log and its powers come from its store."""
    order = outer.order
    log = _shared_series("log", order, lambda n: deg_log(n, lam=lam), lam=lam)
    store = _active_store(lam)
    # powers built at a larger order serve too: compose reads them only up to t^order
    powers = None if store is None else store.get("log powers", order, lambda _: log.powers(order))
    return outer.compose(log, powers)


def _family(
    kernel: TruncatedSeries, argument: Argument, n_max: int, *, lam: MultiPoly
) -> PolyFamily:
    """The family whose egf is ``kernel * e_lambda^argument(t)``.

    ``e_lambda^0(t) = 1``, so at argument 0 the values are the kernel's own.
    The builders read ``argument`` and ``n_max`` before they build the kernel.
    """
    if argument == 0:
        gen = kernel
    else:
        exp = _shared_series(
            ("e^arg", argument), n_max, lambda n: deg_exp(argument, n, lam=lam), lam=lam
        )
        gen = kernel * exp
    return PolyFamily(tuple(gen.egf_coeff(n) for n in range(n_max + 1)))


def genocchi_deg(argument: Argument, n_max: int, *, lam: MultiPoly = LAM) -> PolyFamily:
    """Degenerate Genocchi polynomials ``G_{n,lambda}(argument)``, the order-1 family."""
    return genocchi_deg_order(1, argument, n_max, lam=lam)


def genocchi_deg_order(
    r: int, argument: Argument, n_max: int, *, lam: MultiPoly = LAM
) -> PolyFamily:
    """Degenerate Genocchi polynomials of order r."""
    read_count(r, "r", least=1)
    argument = read_argument(argument)
    read_count(n_max)
    read_lam(lam)
    # (2t/(e+1))^r, not t^r times the Euler kernel: Eq19 checks one against the other
    kernel = (TruncatedSeries.t(n_max) * _two_over_exp_plus_one_power(1, n_max, lam=lam)) ** r
    return _family(kernel, argument, n_max, lam=lam)


def euler_deg_order(
    r: int, argument: Argument, n_max: int, *, lam: MultiPoly = LAM
) -> PolyFamily:
    """Degenerate Euler polynomials of order r."""
    read_count(r, "r", least=1)
    argument = read_argument(argument)
    read_count(n_max)
    read_lam(lam)
    kernel = _two_over_exp_plus_one_power(r, n_max, lam=lam)
    return _family(kernel, argument, n_max, lam=lam)


def poly_genocchi_deg(
    k: int, argument: Argument, n_max: int, *, lam: MultiPoly = LAM
) -> PolyFamily:
    """Degenerate poly-Genocchi polynomials ``g_{n,lambda}^{(k)}(argument)``."""
    index_tuple((k,))
    argument = read_argument(argument)
    read_count(n_max)
    read_lam(lam)
    num = _compose_with_log(deg_polyexp(k, n_max, lam=lam), lam=lam)
    kernel = num * _two_over_exp_plus_one_power(1, n_max, lam=lam)
    return _family(kernel, argument, n_max, lam=lam)


def multi_poly_genocchi_deg(
    ks: Sequence[int], argument: Argument, n_max: int, *, lam: MultiPoly = LAM
) -> PolyFamily:
    """Degenerate multi-poly-Genocchi polynomials for index list ``ks``."""
    ks = index_tuple(ks)
    argument = read_argument(argument)
    read_count(n_max)
    read_lam(lam)

    # the kernel does not depend on the argument: a memo builds it once per k-list
    def build(order: int) -> TruncatedSeries:
        num = _compose_with_log(deg_multi_polyexp(ks, order, lam=lam), lam=lam)
        return num * _two_over_exp_plus_one_power(len(ks), order, lam=lam)

    kernel = _shared_series(("multi kernel", ks), n_max, build, lam=lam)
    return _family(kernel, argument, n_max, lam=lam)
