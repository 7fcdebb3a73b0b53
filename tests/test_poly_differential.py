"""Differential tests: the fraction-free MultiPoly against the Fraction oracle.

Every operation is run on both cores from the same term map, and the results
must have equal ``terms`` while the fraction-free one stays canonical
(``den > 0``, ``gcd(den, *num) == 1``, no zero numerators, zero as
``({}, 1)``).
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

import fraction_poly as ref
from degenpoly.poly import MultiPoly, parse_poly, render_poly

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
    assert p.sorted_terms() == r.sorted_terms()


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
