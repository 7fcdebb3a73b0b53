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
Products start at their operands' valuations: they must still equal the
Cauchy sum over every index pair, and make no kernel call and build no
triple for a coefficient or factor known to be zero by its place.
"""

import contextlib

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

import fraction_poly as ref
from horner_compose import compose as horner_compose
from degenpoly import series as series_mod
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


VALUATIONS = st.integers(0, 12)  # past the order too: an all-zero series


@st.composite
def operand_pair(draw):
    """Two series of one order, each zero below its own drawn valuation."""
    order = draw(ORDERS)
    return draw(series(order, draw(VALUATIONS))), draw(series(order, draw(VALUATIONS)))


def first_nonzero(s):
    return next((i for i, c in enumerate(s.coeffs) if c), s.order + 1)


def cauchy(a, b):
    """``[t^m] a b`` for m up to the order, over every index pair, in the Fraction oracle."""
    a = [ref.MultiPoly(c.terms) for c in a.coeffs]
    b = [ref.MultiPoly(c.terms) for c in b.coeffs]
    out = []
    for m in range(len(a)):
        coeff = ref.MultiPoly()
        for i in range(m + 1):
            coeff = coeff + a[i] * b[m - i]
        out.append(coeff)
    return out


def assert_matches(product, expected):
    assert [c.terms for c in product.coeffs] == [c.terms for c in expected]


SERIES = st.tuples(ORDERS, VALUATIONS).flatmap(lambda args: series(*args))


@given(SERIES)
def test_square_matches_the_general_product_and_the_fraction_oracle(s):
    square = s * s
    assert square == s * TruncatedSeries(s.order, list(s.coeffs))
    assert_matches(square, cauchy(s, s))


@given(st.tuples(ORDERS, st.integers(0, 2)).flatmap(lambda args: series(*args)), st.integers(0, 9))
def test_powers_match_running_products(s, count):
    powers = s.powers(count)
    assert len(powers) == count
    running = s
    for j, power in enumerate(powers, 1):
        assert power == running, j
        running = running * s


@given(operand_pair())
def test_products_from_the_valuations_match_the_cauchy_sum(pair):
    a, b = pair
    assert_matches(a * b, cauchy(a, b))
    assert_matches(b * a, cauchy(b, a))


@given(SERIES, st.integers(0, 6))
def test_powers_from_the_valuations_match_the_cauchy_sum(s, count):
    expected = [ref.MultiPoly(c.terms) for c in s.coeffs]
    for power in s.powers(count):
        assert_matches(power, expected)
        expected = cauchy(TruncatedSeries(s.order, [MultiPoly(c.terms) for c in expected]), s)


@contextlib.contextmanager
def kernel_calls():
    """A list that gets the triples of every ``sum_of_products`` call in ``series``."""
    calls = []
    original = series_mod.sum_of_products

    def spy(terms):
        terms = list(terms)
        calls.append(terms)
        return original(terms)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series_mod, "sum_of_products", spy)
        yield calls


@given(operand_pair())
def test_no_kernel_call_or_triple_below_the_valuations(pair):
    a, b = pair
    va, vb = first_nonzero(a), first_nonzero(b)
    with kernel_calls() as calls:
        a * b
        # one call per coefficient from t^(va+vb) up, over the pairs i >= va, m - i >= vb
        assert [len(triples) for triples in calls] == [
            m - va - vb + 1 for m in range(va + vb, a.order + 1)
        ]
        calls.clear()
        a * a
        assert [len(triples) for triples in calls] == [
            m // 2 - va + 1 for m in range(2 * va, a.order + 1)
        ]


@given(outer_inner(valuations=st.integers(1, 4)))
def test_compose_makes_no_kernel_call_below_the_valuations(pair):
    outer, inner = pair
    powers = inner.powers(outer.order)
    v = first_nonzero(inner)
    w = first_nonzero(outer - outer.coeffs[0])
    top = max((j for j in range(1, outer.order + 1) if outer.coeffs[j]), default=0)
    with kernel_calls() as calls:
        composed = outer.compose(inner, powers)
    assert composed == horner_compose(outer, inner)
    # f_j g^j reaches t^m only for w <= j <= m / v
    assert [len(triples) for triples in calls] == [
        min(m // v, top) - w + 1 for m in range(w * v, outer.order + 1)
    ]


def test_compose_errors():
    t = TruncatedSeries.t(3)
    with pytest.raises(ValueError):
        t.compose(t + 1)  # nonzero constant term
    with pytest.raises(ValueError):
        t.compose(TruncatedSeries.t(4))  # order mismatch
    with pytest.raises(TypeError):
        t.compose(t.coeffs[1])  # not a series
