"""Degenerate Genocchi-type polynomial families from generating functions.

Every family's exponential generating function is a kernel series times
``e_lambda^arg(t)``.  Each constructor builds its kernel as an exact
truncated series, and one shared assembly multiplies it by
``e_lambda^arg(t)`` and reads off the values ``n! * c_n``:

* ``genocchi_deg``: degenerate Genocchi, ``2t / (e_lambda(t) + 1) * e_lambda^x(t)``
* ``genocchi_deg_order``: order-r version with ``(2t / (e_lambda(t) + 1))^r``
* ``euler_deg_order``: degenerate Euler of order r, ``(2 / (e_lambda(t) + 1))^r``
* ``poly_genocchi_deg``: degenerate poly-Genocchi,
  ``2 Ei_{k,lambda}(log_lambda(1+t)) / (e_lambda(t) + 1) * e_lambda^x(t)``
* ``multi_poly_genocchi_deg``: degenerate multi-poly-Genocchi,
  ``2^r Ei_{(k_1..k_r),lambda}(log_lambda(1+t)) / (e_lambda(t) + 1)^r * e_lambda^x(t)``

The argument may be the symbol ``"x"``, the sum ``"x+y"``, or an exact
rational (0 gives the number family).  ``multi_poly_genocchi_deg`` with a
single index k equals ``poly_genocchi_deg(k, ...)``, and with k = 1 both
collapse to ``genocchi_deg``.  Every builder takes the keyword ``lam``: the
symbol ``LAM`` by default, or a constant polynomial to build the family at
that value of lambda directly.

A :class:`SubSeriesStore` is active while it builds an entry, as when a
memo builds a family.  Symbolic builds running then take
``2 / (e_lambda(t) + 1)``, its powers, the powers of ``log_lambda(1+t)``,
each k-list's multi-poly-Genocchi kernel and ``e_lambda^arg(t)`` for each
argument from that store, each built once at the largest order asked for;
outside a store's build, and at any other ``lam``, every build makes its
own.  Each family still multiplies its own kernel by
``e_lambda^arg(t)``, except at argument 0: ``e_lambda^0(t) = 1``, so the
number families are the kernel's own values ``n! c_n``, at every ``lam``.
Only the multi-poly builder reads the kernel entries: ``poly_genocchi_deg``
and ``genocchi_deg`` build their own kernels, so the verifier can check the
single-index reductions against them.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Hashable, Sequence, TypeVar, Union

from .degen import deg_exp, deg_log, deg_multi_polyexp, deg_polyexp
from .poly import LAM, MultiPoly
from .series import TruncatedSeries

Argument = Union[str, int, Fraction]
T = TypeVar("T")


def _norm_argument(argument: Argument) -> Union[str, Fraction]:
    if isinstance(argument, str):
        if argument in ("x", "x+y"):
            return argument
        raise ValueError(f"argument must be 'x', 'x+y' or a rational, got {argument!r}")
    if not isinstance(argument, (int, Fraction)):
        raise TypeError(f"argument must be an int or a Fraction, got {type(argument).__name__}")
    return Fraction(argument)


@dataclass(frozen=True)
class PolyFamily:
    """A polynomial family evaluated to order ``len(values) - 1``.

    ``values[n]`` is the n-th member as an exact polynomial in lambda (and
    x, y when the argument is symbolic).
    """

    values: tuple[MultiPoly, ...]


class SubSeriesStore:
    """Values built once per key, at the largest order asked for so far.

    A request at or below that order is served by cutting the stored value
    down, since the low coefficients of a truncated series do not depend on
    where it is cut; a larger order builds the value again.  The store is
    active while ``build`` runs, so the family builders it calls share
    their sub-series through it.  One store belongs to one
    :class:`~degenpoly.verify.FamilyMemo`, which keeps its families, chain
    sums and those sub-series in it.
    """

    def __init__(self) -> None:
        self._entries: dict[Hashable, tuple[int, Any]] = {}

    def get(
        self,
        key: Hashable,
        order: int,
        build: Callable[[int], T],
        cut: Callable[[T, int], T],
    ) -> T:
        """The value under ``key`` at ``order``: ``build(order)``, or ``cut(stored, order)``."""
        entry = self._entries.get(key)
        if entry is None or entry[0] < order:
            token = _STORE.set(self)
            try:
                entry = (order, build(order))
            finally:
                _STORE.reset(token)
            self._entries[key] = entry
        built_order, value = entry
        return value if built_order == order else cut(value, order)


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
):
    """``build(order)``, or the active store's copy of it."""
    store = _active_store(lam)
    if store is None:
        return build(order)
    return store.get(key, order, build, TruncatedSeries.truncate)


def _truncate_powers(powers: tuple[TruncatedSeries, ...], order: int):
    return tuple(power.truncate(order) for power in powers[:order])


def _two_over_exp_plus_one(order: int, *, lam: MultiPoly) -> TruncatedSeries:
    """``2 / (e_lambda(t) + 1)``, the factor every kernel is built from."""
    return (deg_exp(1, order, lam=lam) + 1).invert() * 2


def _two_over_exp_plus_one_power(r: int, order: int, *, lam: MultiPoly) -> TruncatedSeries:
    """``(2 / (e_lambda(t) + 1))^r``, shared by the Euler and multi-poly kernels."""
    base = _shared_series("2/(e+1)", order, lambda n: _two_over_exp_plus_one(n, lam=lam), lam=lam)
    return _shared_series(("2/(e+1)", r), order, lambda _: base**r, lam=lam)


def _compose_with_log(outer: TruncatedSeries, *, lam: MultiPoly) -> TruncatedSeries:
    """``outer(log_lambda(1+t))``; inside a memo, the log and its powers come from its store."""
    order = outer.order
    store = _active_store(lam)
    if store is None:
        return outer.compose(deg_log(order, lam=lam))
    log = store.get("log", order, deg_log, TruncatedSeries.truncate)
    powers = store.get("log powers", order, lambda _: log.powers(order), _truncate_powers)
    return outer.compose(log, powers)


def _family(
    kernel: TruncatedSeries, argument: Argument, n_max: int, *, lam: MultiPoly
) -> PolyFamily:
    """The family whose egf is ``kernel * e_lambda^argument(t)``.

    ``e_lambda^0(t) = 1``, so at argument 0 the values are the kernel's own.
    """
    argument = _norm_argument(argument)
    if argument == 0:
        gen = kernel
    else:
        exp = _shared_series(
            ("e^arg", argument), n_max, lambda n: deg_exp(argument, n, lam=lam), lam=lam
        )
        gen = kernel * exp
    return PolyFamily(tuple(gen.egf_coeff(n) for n in range(n_max + 1)))


def genocchi_deg(argument: Argument, n_max: int, *, lam: MultiPoly = LAM) -> PolyFamily:
    """Degenerate Genocchi polynomials ``G_{n,lambda}(argument)``."""
    kernel = TruncatedSeries.t(n_max) * _two_over_exp_plus_one_power(1, n_max, lam=lam)
    return _family(kernel, argument, n_max, lam=lam)


def genocchi_deg_order(
    r: int, argument: Argument, n_max: int, *, lam: MultiPoly = LAM
) -> PolyFamily:
    """Degenerate Genocchi polynomials of order r."""
    if r < 1:
        raise ValueError("order r must be at least 1")
    # (2t/(e+1))^r, not t^r times the Euler kernel: Eq19 checks one against the other
    kernel = (TruncatedSeries.t(n_max) * _two_over_exp_plus_one_power(1, n_max, lam=lam)) ** r
    return _family(kernel, argument, n_max, lam=lam)


def euler_deg_order(
    r: int, argument: Argument, n_max: int, *, lam: MultiPoly = LAM
) -> PolyFamily:
    """Degenerate Euler polynomials of order r."""
    if r < 1:
        raise ValueError("order r must be at least 1")
    kernel = _two_over_exp_plus_one_power(r, n_max, lam=lam)
    return _family(kernel, argument, n_max, lam=lam)


def poly_genocchi_deg(
    k: int, argument: Argument, n_max: int, *, lam: MultiPoly = LAM
) -> PolyFamily:
    """Degenerate poly-Genocchi polynomials ``g_{n,lambda}^{(k)}(argument)``."""
    num = _compose_with_log(deg_polyexp(k, n_max, lam=lam), lam=lam)
    kernel = num * _two_over_exp_plus_one_power(1, n_max, lam=lam)
    return _family(kernel, argument, n_max, lam=lam)


def multi_poly_genocchi_deg(
    ks: Sequence[int], argument: Argument, n_max: int, *, lam: MultiPoly = LAM
) -> PolyFamily:
    """Degenerate multi-poly-Genocchi polynomials for index list ``ks``."""
    ks = tuple(int(k) for k in ks)

    # the kernel does not depend on the argument: a memo builds it once per k-list
    def build(order: int) -> TruncatedSeries:
        num = _compose_with_log(deg_multi_polyexp(ks, order, lam=lam), lam=lam)
        return num * _two_over_exp_plus_one_power(len(ks), order, lam=lam)

    kernel = _shared_series(("multi kernel", ks), n_max, build, lam=lam)
    return _family(kernel, argument, n_max, lam=lam)
