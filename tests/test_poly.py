"""Polynomial arithmetic, canonical rendering, and the parser."""

import math
import random
from fractions import Fraction

import pytest

from degenpoly.poly import (
    LAM,
    ONE,
    X,
    Y,
    ZERO,
    MultiPoly,
    monomial_text,
    parse_poly,
    render_poly,
)


def rand_poly(rng: random.Random, max_terms: int = 5) -> MultiPoly:
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = (rng.randrange(3), rng.randrange(3), rng.randrange(2))
        terms[exps] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
    return MultiPoly(terms)


def test_canonicalization_drops_zeros():
    p = MultiPoly({(1, 0, 0): Fraction(0), (0, 1, 0): 2})
    assert p.terms == {(0, 1, 0): Fraction(2)}
    assert not MultiPoly({(2, 1, 0): 0})
    assert MultiPoly() == ZERO


def test_constants_and_symbols():
    assert MultiPoly.const(Fraction(3, 2)).constant_value() == Fraction(3, 2)
    assert MultiPoly.const(0) == ZERO
    assert MultiPoly.sym("x") == X
    with pytest.raises(ValueError):
        MultiPoly.sym("z")


def test_scalar_mixing():
    assert X + 1 - 1 == X
    assert 2 * X == X + X
    assert 1 - X == -(X - 1)
    assert (X + 1) * Fraction(1, 2) == MultiPoly({(0, 1, 0): Fraction(1, 2), (0, 0, 0): Fraction(1, 2)})
    assert X == MultiPoly.sym("x")
    assert MultiPoly.const(5) == 5
    assert not (X == 5)


@pytest.mark.parametrize("k", [0, 1, -1, -7, 3, 4, -6, 12, True, False])
def test_int_scalar_product_is_canonical(k):
    # den 12: 3, 4, -6 and 12 share a factor with it, so the product must reduce
    p = MultiPoly({(1, 0, 0): Fraction(1, 6), (0, 1, 0): Fraction(-5, 4), (0, 0, 0): Fraction(2, 3)})
    expected = MultiPoly({exps: c * int(k) for exps, c in p.terms.items()})
    for product in (p * k, k * p):
        assert (product.num, product.den) == (expected.num, expected.den)
        assert product.den > 0
        assert math.gcd(product.den, *product.num.values()) == 1
        assert all(type(v) is int and v for v in product.num.values())
    assert (ZERO * k).num == {} and (ZERO * k).den == 1


def test_ring_axioms_random():
    rng = random.Random(20240815)
    for _ in range(60):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == ZERO
        assert a * ONE == a
        assert a * ZERO == ZERO


def test_pow():
    assert (X + 1) ** 0 == ONE
    assert (X + 1) ** 2 == X * X + 2 * X + 1
    with pytest.raises(ValueError):
        (X + 1) ** -1


def test_substitute_and_evaluate():
    p = LAM * X**2 - Y + Fraction(1, 3)
    assert p.substitute("lambda", 2) == 2 * X**2 - Y + Fraction(1, 3)
    assert p.substitute("x", 0) == -Y + Fraction(1, 3)
    q = p.substitute("lambda", Fraction(1, 2))
    assert q.degree("lambda") == 0
    assert p.evaluate(2, 3, 1) == Fraction(2 * 9 - 1) + Fraction(1, 3)
    with pytest.raises(ValueError):
        p.substitute("t", 1)


def test_substitute_merges_terms():
    # lambda*x and x collide once lambda is set to 1
    p = LAM * X + X
    assert p.substitute("lambda", 1) == 2 * X
    assert (LAM * X - X).substitute("lambda", 1) == ZERO


def test_coeff_x_and_degree():
    p = LAM * X**2 + 3 * X**2 - Y * X + 7
    assert p.coeff_x(2) == LAM + 3
    assert p.coeff_x(1) == -Y
    assert p.coeff_x(0) == MultiPoly.const(7)
    assert p.coeff_x(5) == ZERO
    assert p.degree("x") == 2
    assert p.degree("lambda") == 1
    assert ZERO.degree("y") == 0


def test_constant_value_rejects_nonconstant():
    with pytest.raises(ValueError):
        X.constant_value()
    assert ZERO.constant_value() == 0
    assert ZERO.is_constant() and not X.is_constant()


def test_render_examples():
    assert render_poly(ZERO) == "0"
    assert render_poly(MultiPoly({(1, 0, 0): Fraction(3, 2), (0, 2, 0): 1})) == "3/2*lambda + x^2"
    assert render_poly(MultiPoly({(2, 0, 0): 1, (1, 0, 0): -3, (0, 0, 0): 2})) == "lambda^2 - 3*lambda + 2"
    assert render_poly(-X * Y + Fraction(1, 3)) == "-x*y + 1/3"
    assert render_poly(LAM * X**2 * Y) == "lambda*x^2*y"
    assert render_poly(MultiPoly.const(Fraction(-7, 4))) == "-7/4"


def test_render_order_is_descending_lex():
    # lambda outweighs x, x outweighs y; higher exponents come first
    p = LAM + X**2 + Y + LAM * Y + 1
    assert render_poly(p) == "lambda*y + lambda + x^2 + y + 1"


def test_monomial_text():
    assert monomial_text((0, 0, 0)) == "1"
    assert monomial_text((2, 1, 0)) == "lambda^2*x"
    assert monomial_text((0, 0, 3)) == "y^3"


def test_parse_round_trip_random():
    rng = random.Random(91)
    for _ in range(120):
        p = rand_poly(rng)
        text = render_poly(p)
        assert parse_poly(text) == p, text


def test_parse_plain_forms():
    assert parse_poly("0") == ZERO
    assert parse_poly("-x") == -X
    assert parse_poly("2*x*x") == 2 * X**2
    assert parse_poly("x + x") == 2 * X
    assert parse_poly("x - x") == ZERO
    assert parse_poly("3/2") == MultiPoly.const(Fraction(3, 2))
    assert parse_poly("lambda^2*x*y") == LAM**2 * X * Y


@pytest.mark.parametrize("bad", ["", "x +", "* x", "x ^", "1/$", "x^y", "3//2", "x y", "1/0"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_poly(bad)


@pytest.mark.parametrize(
    "exps",
    [(-1, 0, 0), (1, 2), (True, 0, 0), (0, 0, 1.0), (0, 2**19, 0), (1, 2, 3, 4), "abc"],
)
def test_malformed_exponents_are_rejected_at_construction(exps):
    # each used to build: (-1, 0, 0) rendered as "1" yet was not ONE, (1, 2)
    # failed only in a later product, and (True, 0, 0) kept a bool key
    with pytest.raises(ValueError):
        MultiPoly({exps: 1})
    with pytest.raises(ValueError):
        MultiPoly({exps: 0})


def test_parse_rejects_an_exponent_past_the_bound():
    assert parse_poly(f"x^{2**19 - 1}").degree("x") == 2**19 - 1
    with pytest.raises(ValueError):
        parse_poly(f"x^{2**19}")
    with pytest.raises(ValueError):
        parse_poly(f"x^{2**18}*x^{2**18}")


@pytest.mark.parametrize("bad", [0.1, 1.0, "1/2", None, 1j])
def test_non_rational_scalars_raise_type_error(bad):
    # "no floating point appears anywhere": const(0.1) used to give
    # 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        MultiPoly.const(bad)
    with pytest.raises(TypeError):
        MultiPoly({(0, 1, 0): bad})
    with pytest.raises(TypeError):
        X.substitute("x", bad)
    with pytest.raises(TypeError):
        X.evaluate(bad, 1)
    with pytest.raises(TypeError):
        X.evaluate(1, bad)
    with pytest.raises(TypeError):
        X + bad
    with pytest.raises(TypeError):
        X * bad
