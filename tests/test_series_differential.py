"""Differential tests: series composition against the Horner oracle, squares
and powers against plain products.

``TruncatedSeries.compose`` sums ``f_j g^j`` over the powers of the inner
series; ``tests/horner_compose.py`` keeps the earlier Horner loop.  Both run
on the same series, with coefficients in lambda, x and y over mixed
denominators, and must give equal series, whether ``compose`` builds the
powers itself or is handed them.  A series times itself takes each cross
product once; it must equal the general product with an equal series that
is another object, and the Cauchy sum over ``tests/fraction_poly.py``.
``powers`` squares for its even powers and must equal running products.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

import fraction_poly as ref
from horner_compose import compose as horner_compose
from degenpoly.poly import ZERO, MultiPoly
from degenpoly.series import TruncatedSeries

EXPS = st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1))
FRACS = st.fractions(min_value=-12, max_value=12, max_denominator=12)
COEFFS = st.dictionaries(EXPS, FRACS, max_size=3).map(MultiPoly)
# about one coefficient in three is zero
SPARSE = st.one_of(st.just(ZERO), COEFFS, COEFFS)
ORDERS = st.integers(0, 10)


@st.composite
def series(draw, order: int, valuation: int = 0, coeffs=SPARSE) -> TruncatedSeries:
    """A series of the given order whose coefficients below ``valuation`` are zero."""
    low = min(valuation, order + 1)
    rest = draw(st.lists(coeffs, min_size=order + 1 - low, max_size=order + 1 - low))
    return TruncatedSeries(order, [ZERO] * low + rest)


@st.composite
def outer_inner(draw, valuations=st.just(1)):
    order = draw(ORDERS)
    return draw(series(order)), draw(series(order, draw(valuations)))


@given(outer_inner())
def test_compose_matches_horner(pair):
    outer, inner = pair
    assert outer.compose(inner) == horner_compose(outer, inner)


@given(outer_inner(valuations=st.integers(2, 4)))
def test_compose_sparse_inner_of_high_valuation(pair):
    outer, inner = pair
    assert outer.compose(inner) == horner_compose(outer, inner)


@given(outer_inner(valuations=st.integers(1, 3)), st.integers(0, 3))
def test_compose_with_given_powers_matches_horner(pair, extra):
    # powers past the last nonzero outer coefficient are never read
    outer, inner = pair
    powers = inner.powers(outer.order + extra)
    assert len(powers) == outer.order + extra
    assert outer.compose(inner, powers) == horner_compose(outer, inner)


@given(ORDERS.flatmap(series))
def test_compose_with_zero_inner_is_the_constant_term(outer):
    zero = TruncatedSeries.constant(0, outer.order)
    composed = outer.compose(zero)
    assert composed == horner_compose(outer, zero)
    assert composed == TruncatedSeries.constant(outer.coeffs[0], outer.order)
    assert zero.compose(outer - outer.coeffs[0]) == zero


@given(ORDERS.flatmap(series))
def test_square_matches_the_general_product_and_the_fraction_oracle(s):
    square = s * s
    assert square == s * TruncatedSeries(s.order, list(s.coeffs))
    a = [ref.MultiPoly(c.terms) for c in s.coeffs]
    for m, coeff in enumerate(square.coeffs):
        expected = ref.MultiPoly()
        for i in range(m + 1):
            expected = expected + a[i] * a[m - i]
        assert coeff.terms == expected.terms, m


@given(st.tuples(ORDERS, st.integers(0, 2)).flatmap(lambda args: series(*args)), st.integers(0, 9))
def test_powers_match_running_products(s, count):
    powers = s.powers(count)
    assert len(powers) == count
    running = s
    for j, power in enumerate(powers, 1):
        assert power == running, j
        running = running * s


def test_compose_errors():
    t = TruncatedSeries.t(3)
    with pytest.raises(ValueError):
        t.compose(t + 1)  # nonzero constant term
    with pytest.raises(ValueError):
        t.compose(TruncatedSeries.t(4))  # order mismatch
    with pytest.raises(TypeError):
        t.compose(t.coeffs[1])  # not a series
