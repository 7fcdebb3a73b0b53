"""Differential tests: the fraction-free MultiPoly against the Fraction oracle.

Every operation is run on both cores from the same term map, and the results
must have equal ``terms`` while the fraction-free one stays canonical
(``den > 0``, ``gcd(den, *num) == 1``, no zero numerators, zero as
``({}, 1)``).  The fused kernel :func:`sum_of_products` is checked against
the oracle's own ``sum c * p * q``, one ``*`` and ``+`` per addend.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

import fraction_poly as ref
from degenpoly.poly import (
    LAM,
    MAX_EXPONENT,
    X,
    MultiPoly,
    monomial_text,
    parse_poly,
    render_poly,
    sum_of_products,
    term_texts,
)

EXPS = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))
# mixed denominators, negative values and zero
COEFFS = st.fractions(min_value=-30, max_value=30, max_denominator=12)
TERMS = st.dictionaries(EXPS, COEFFS, max_size=6)
SCALARS = st.one_of(st.integers(-9, 9), COEFFS)
SYMBOLS = st.sampled_from(("lambda", "x", "y"))


def both(terms):
    return MultiPoly(terms), ref.MultiPoly(terms)


def assert_same(new, old):
    assert isinstance(new.den, int) and new.den > 0
    assert all(isinstance(v, int) and v for v in new.num.values())
    if new.num:
        assert math.gcd(new.den, *new.num.values()) == 1
    else:
        assert new.den == 1
    assert new.terms == old.terms
    assert all(isinstance(c, Fraction) for c in new.terms.values())


@given(TERMS)
def test_construction_and_neg(t):
    p, r = both(t)
    assert_same(p, r)
    assert_same(-p, -r)
    # the integer-only term texts against the oracle's reduced Fraction terms
    assert term_texts(p) == [(monomial_text(e), str(c)) for e, c in r.sorted_terms()]


@given(TERMS, TERMS)
def test_ring_operations(t1, t2):
    (p, r), (q, s) = both(t1), both(t2)
    assert_same(p + q, r + s)
    assert_same(p - q, r - s)
    assert_same(p * q, r * s)
    assert (p == q) == (r == s)


@given(TERMS, st.integers(0, 3))
def test_pow(t, n):
    p, r = both(t)
    assert_same(p**n, r**n)


@given(TERMS, SCALARS)
def test_scalar_mixing(t, c):
    p, r = both(t)
    assert_same(p * c, r * c)
    assert_same(c * p, c * r)
    assert_same(p + c, r + c)
    assert_same(c + p, c + r)
    assert_same(p - c, r - c)
    assert_same(c - p, c - r)
    assert (p == c) == (r == c)


@given(TERMS)
def test_scalar_zero(t):
    p, r = both(t)
    for zero in (0, Fraction(0)):
        z = p * zero
        assert_same(z, r * zero)
        assert (z.num, z.den) == ({}, 1)


@given(TERMS, SYMBOLS, st.one_of(st.just(0), SCALARS))
def test_substitute(t, symbol, value):
    p, r = both(t)
    assert_same(p.substitute(symbol, value), r.substitute(symbol, value))


@given(TERMS, st.integers(0, 3), SYMBOLS)
def test_coeff_x_and_degree(t, power, symbol):
    p, r = both(t)
    assert_same(p.coeff_x(power), r.coeff_x(power))
    assert p.degree(symbol) == r.degree(symbol)


@given(TERMS, COEFFS, COEFFS, COEFFS)
def test_evaluate(t, lam, x, y):
    p, r = both(t)
    assert p.evaluate(lam, x, y) == r.evaluate(lam, x, y)


@given(st.dictionaries(st.just((0, 0, 0)), COEFFS, max_size=1), TERMS)
def test_constant_value(c, t):
    p, r = both(c)
    assert p.is_constant() and r.is_constant()
    assert p.constant_value() == r.constant_value()
    q, s = both(t)
    assert q.is_constant() == s.is_constant()
    if not q.is_constant():
        with pytest.raises(ValueError):
            q.constant_value()


@given(TERMS)
def test_render_bytes_and_parse_round_trip(t):
    p, r = both(t)
    text = render_poly(p)
    assert text == ref.render_poly(r)
    assert parse_poly(text) == p
    assert_same(parse_poly(text), ref.parse_poly(text))


@given(TERMS, TERMS)
def test_cancellation_to_zero(t1, t2):
    (p, r), (q, s) = both(t1), both(t2)
    for z, oz in ((p - p, r - r), (p + (-p), r + (-r)), (p * q - q * p, r * s - s * r)):
        assert_same(z, oz)
        assert (z.num, z.den) == ({}, 1)
    # partial cancellation: the shared terms of p + q and q drop out
    assert_same((p + q) - q, (r + s) - s)
    assert (p + q) - q == p


WEIGHTS = st.integers(-6, 6)
TRIPLES = st.lists(st.tuples(WEIGHTS, TERMS, TERMS), max_size=5)
# each polynomial over its own prime denominator, so the products' are coprime
PRIME_TERMS = st.builds(
    lambda d, nums: {exps: Fraction(v, d) for exps, v in nums.items()},
    st.sampled_from((2, 3, 5, 7, 11, 13)),
    st.dictionaries(EXPS, st.integers(-20, 20), max_size=4),
)


def fused_both(triples):
    """The kernel on ``triples`` of term maps, and the oracle's sum of products."""
    new = sum_of_products((c, MultiPoly(t1), MultiPoly(t2)) for c, t1, t2 in triples)
    old = ref.MultiPoly()
    for c, t1, t2 in triples:
        old = old + c * ref.MultiPoly(t1) * ref.MultiPoly(t2)
    return new, old


def test_sum_of_products_of_nothing_is_zero():
    z = sum_of_products([])
    assert (z.num, z.den) == ({}, 1)


@given(TRIPLES)
def test_sum_of_products(triples):
    assert_same(*fused_both(triples))


@given(st.lists(st.tuples(WEIGHTS, PRIME_TERMS, PRIME_TERMS), min_size=1, max_size=4))
def test_sum_of_products_coprime_denominators(triples):
    assert_same(*fused_both(triples))


@given(WEIGHTS, TERMS, TERMS)
def test_sum_of_products_single_term(c, t1, t2):
    p, q = MultiPoly(t1), MultiPoly(t2)
    new, old = fused_both([(c, t1, t2)])
    assert_same(new, old)
    assert new == c * p * q


@given(st.integers(1, 6), TERMS, TERMS, TRIPLES)
def test_sum_of_products_negative_weights(c, t1, t2, rest):
    new, old = fused_both([(-c, t1, t2)] + rest)
    assert_same(new, old)
    assert new == fused_both(rest)[0] - c * MultiPoly(t1) * MultiPoly(t2)


@given(WEIGHTS, TERMS, TERMS, TRIPLES)
def test_sum_of_products_zero_weights_and_factors(c, t1, t2, rest):
    padded = [(0, t1, t2), (c, {}, t2)] + rest + [(c, t1, {}), (0, {}, {})]
    new, old = fused_both(padded)
    assert_same(new, old)
    assert new == fused_both(rest)[0]


@given(WEIGHTS, TERMS, TERMS)
def test_sum_of_products_cancels_to_zero(c, t1, t2):
    p, q = MultiPoly(t1), MultiPoly(t2)
    for triples in (
        [(c, p, q), (-c, p, q)],
        [(c, p, q), (c, -p, q)],
        [(c, p, q), (-c, q, p)],
        [(2 * c, p, q), (-c, p, q), (-c, q, p)],
    ):
        z = sum_of_products(triples)
        assert (z.num, z.den) == ({}, 1)


class _CountingItems(dict):
    """A numerator map that counts how often its terms are read."""

    reads = 0

    def items(self):
        type(self).reads += 1
        return super().items()


@given(TERMS, TERMS)
def test_sum_of_products_reads_no_zero_term(t1, t2):
    # a zero term changes no coefficient, so only its cost can show: the
    # kernel must not read the terms of a factor it multiplies by zero
    p, q = MultiPoly(t1), MultiPoly(t2)
    spy = MultiPoly({(1, 0, 0): 1, (0, 1, 0): Fraction(1, 2)})
    spy.num = _CountingItems(spy.num)
    _CountingItems.reads = 0
    out = sum_of_products([(0, spy, q), (1, spy, MultiPoly()), (1, MultiPoly(), spy), (1, p, q)])
    assert _CountingItems.reads == 0
    assert out == p * q


# Exponents anywhere up to the bound of the packed keys, with weight on the
# small end, the middle (where two exponents sum to about the bound) and the
# top, so the field boundaries and the guard bits are crossed.
BIG_EXPONENT = st.one_of(
    st.integers(0, 3),
    st.integers(MAX_EXPONENT // 2 - 2, MAX_EXPONENT // 2 + 2),
    st.integers(MAX_EXPONENT - 3, MAX_EXPONENT),
    st.integers(0, MAX_EXPONENT),
)
BIG_TERMS = st.dictionaries(st.tuples(BIG_EXPONENT, BIG_EXPONENT, BIG_EXPONENT), COEFFS, max_size=5)


def _passes_the_bound(t1, t2):
    """True if some nonzero term pair of the two maps has an exponent sum past the bound."""
    return any(
        e1[i] + e2[i] > MAX_EXPONENT
        for e1, c1 in t1.items()
        for e2, c2 in t2.items()
        if c1 and c2
        for i in range(3)
    )


@given(BIG_TERMS)
def test_big_exponents_terms_round_trip(t):
    p, r = both(t)
    assert_same(p, r)
    assert p.terms == {e: Fraction(c) for e, c in t.items() if c}
    assert MultiPoly(p.terms) == p
    assert term_texts(p) == [(monomial_text(e), str(c)) for e, c in r.sorted_terms()]


@given(BIG_TERMS, BIG_TERMS)
def test_big_exponents_ring_operations(t1, t2):
    (p, r), (q, s) = both(t1), both(t2)
    assert_same(p + q, r + s)
    assert_same(p - q, r - s)
    if _passes_the_bound(t1, t2):
        with pytest.raises(OverflowError):
            p * q
        with pytest.raises(OverflowError):
            sum_of_products([(1, p, q)])
    else:
        assert_same(p * q, r * s)


@given(BIG_TERMS, st.integers(0, MAX_EXPONENT + 2), SYMBOLS)
def test_big_exponents_coeff_x_and_degree(t, power, symbol):
    p, r = both(t)
    assert_same(p.coeff_x(power), r.coeff_x(power))
    assert p.degree(symbol) == r.degree(symbol)


# integer values only: a rational p/q at exponent 2^19 scales by q^(2^19),
# and the oracle's reduction of such numbers is too slow for a property test
@given(BIG_TERMS, SYMBOLS, st.sampled_from((0, 1, -1, 2, -3)))
def test_big_exponents_substitute(t, symbol, value):
    p, r = both(t)
    assert_same(p.substitute(symbol, value), r.substitute(symbol, value))


@given(BIG_TERMS)
def test_term_texts_order_is_the_exponent_tuple_order(t):
    p = MultiPoly(t)
    expected = [monomial_text(e) for e in sorted(p.terms, reverse=True)]
    assert [mono for mono, _ in term_texts(p)] == expected


def test_products_at_the_bound():
    def lam(e):
        return MultiPoly({(e, 0, 0): 1})

    assert lam(2**18) * lam(2**18 - 1) == lam(2**19 - 1)
    assert LAM * lam(2**19 - 2) == lam(2**19 - 1)
    with pytest.raises(OverflowError):
        lam(2**18) * lam(2**18)
    # a carry out of the y or x field would land in the next field up
    top_y = MultiPoly({(0, 0, MAX_EXPONENT): 1})
    top_x = MultiPoly({(0, MAX_EXPONENT, 0): 1})
    for p in (top_y, top_x, top_y * top_x):
        with pytest.raises(OverflowError):
            sum_of_products([(1, p, p)])
    # an overflowing pair raises even where its coefficient cancels
    with pytest.raises(OverflowError):
        sum_of_products([(1, top_x, top_x), (-1, top_x, top_x)])


def test_exponents_at_and_past_the_bound():
    top = MultiPoly({(0, MAX_EXPONENT, 0): 1})
    assert top.degree("x") == 2**19 - 1
    assert top == parse_poly(f"x^{2**19 - 1}")
    for exps in ((0, 2**19, 0), (2**19, 0, 0), (0, 0, 2**19)):
        with pytest.raises(ValueError):
            MultiPoly({exps: 1})
    assert X * MultiPoly({(0, MAX_EXPONENT - 1, 0): 1}) == top
