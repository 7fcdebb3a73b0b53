"""Polynomial arithmetic and canonical rendering, read back by the oracle's parser."""

import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fraction_poly as ref
from degenpoly.poly import (
    LAM,
    MAX_EXPONENT,
    ONE,
    X,
    Y,
    ZERO,
    MultiPoly,
    monomial_text,
    render_poly,
)


def rand_poly(rng: random.Random, max_terms: int = 5) -> MultiPoly:
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = (rng.randrange(3), rng.randrange(3), rng.randrange(2))
        terms[exps] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
    return MultiPoly(terms)


def read_poly(text: str) -> MultiPoly:
    """Polynomial text read back by the oracle's parser, the one reader of the output."""
    return MultiPoly(ref.parse_poly(text).terms)


def test_canonicalization_drops_zeros():
    p = MultiPoly({(1, 0, 0): Fraction(0), (0, 1, 0): 2})
    assert p.terms == {(0, 1, 0): Fraction(2)}
    assert not MultiPoly({(2, 1, 0): 0})
    assert MultiPoly() == ZERO


def test_constants_and_symbols():
    assert MultiPoly.const(Fraction(3, 2)).terms == {(0, 0, 0): Fraction(3, 2)}
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


def test_pow_matches_repeated_products():
    p = LAM * X - Fraction(2, 3) * Y + 1
    product = ONE
    for n in range(10):
        assert p**n == product, n
        product = product * p


def test_pow_at_the_exponent_bound():
    assert X**MAX_EXPONENT == MultiPoly({(0, MAX_EXPONENT, 0): 1})
    with pytest.raises(OverflowError):
        X ** (MAX_EXPONENT + 1)


def test_polynomial_pow_squares_and_never_multiplies_by_one(monkeypatch):
    products = []
    mul = MultiPoly.__mul__
    monkeypatch.setattr(MultiPoly, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    # one squaring per bit above the lowest, one product per further set bit
    for n, count in ((1, 0), (2, 1), (3, 2), (4, 2), (8, 3), (200_000, 22)):
        products.clear()
        assert (X**n).degree("x") == n
        assert len(products) == count, n


def test_substitute_and_evaluate():
    p = LAM * X**2 - Y + Fraction(1, 3)
    assert p.substitute("lambda", 2) == 2 * X**2 - Y + Fraction(1, 3)
    assert p.substitute("x", 0) == -Y + Fraction(1, 3)
    q = p.substitute("lambda", Fraction(1, 2))
    assert q.degree("lambda") == 0
    point = p.substitute("lambda", 2).substitute("x", 3).substitute("y", 1)
    expected = ref.MultiPoly(p.terms).evaluate(2, 3, 1)
    assert point == expected == Fraction(2 * 9 - 1) + Fraction(1, 3)
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
        assert read_poly(text) == p, text


def test_parse_plain_forms():
    # the round trips rest on the oracle reader: it reads the plain forms
    assert read_poly("0") == ZERO
    assert read_poly("-x") == -X
    assert read_poly("2*x*x") == 2 * X**2
    assert read_poly("x + x") == 2 * X
    assert read_poly("x - x") == ZERO
    assert read_poly("3/2") == MultiPoly.const(Fraction(3, 2))
    assert read_poly("lambda^2*x*y") == LAM**2 * X * Y


def test_text_round_trip_past_the_int_str_digit_limit():
    # CPython caps int/str conversion at 4300 digits by default, and exact
    # coefficients can pass it: the text form must render all the same
    limit = sys.get_int_max_str_digits()
    tiny = MultiPoly.const(Fraction(1, 10**5000))
    wide = MultiPoly({(1, 2, 0): Fraction(-(3**10000), 7), (0, 0, 1): 5})
    # integer coefficients only (a common denominator of 1), 4772 digits
    whole = MultiPoly({(0, 2, 0): -(3**10000), (0, 0, 0): 5})
    texts = [str(tiny), str(wide), str(whole)]
    assert texts[0] == "1/1" + "0" * 5000
    assert texts[2].startswith("-") and texts[2].endswith("*x^2 + 5")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)  # the oracle's int() reads the long integers
    try:
        assert [read_poly(text) for text in texts] == [tiny, wide, whole]
    finally:
        sys.set_int_max_str_digits(limit)


# the last five hold non-ASCII digits, which int() reads but the grammar does not
@pytest.mark.parametrize(
    "bad",
    ["", "x +", "* x", "x ^", "1/$", "x^y", "3//2", "x y", "1/0"]
    + ["\u0663", "x^\u0662", "\u0661/2", "1/\u0662", "\uff13*x"],
)
def test_parse_rejects_garbage(bad):
    # the oracle reader is strict, so a round trip cannot pass on a misread;
    # it has no zero-denominator check of its own and lets Fraction raise
    with pytest.raises((ValueError, ZeroDivisionError)):
        ref.parse_poly(bad)


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
        X + bad
    with pytest.raises(TypeError):
        X * bad


# the packed key layout's names and field shifts; only poly.py may know them
LAYOUT = re.compile(r"\b(_pack|_unpack|_rank|_FIELD|_SHIFT|_GUARD)\b|<< ?[24]0\b|>> ?40\b")
SRC_FILES = sorted((Path(__file__).resolve().parent.parent / "src" / "degenpoly").glob("*.py"))


def test_only_poly_knows_the_key_layout():
    texts = {path.name: path.read_text(encoding="utf-8") for path in SRC_FILES}
    offenders = [
        (name, m.group())
        for name, text in texts.items()
        if name != "poly.py"
        for m in LAYOUT.finditer(text)
    ]
    assert offenders == []
    # the scan reached the layout it guards
    found = {m.group() for m in LAYOUT.finditer(texts["poly.py"])}
    assert found >= {"_pack", "_unpack", "_rank", "_FIELD", "_SHIFT", "_GUARD"}
    assert found >= {"<< 20", "<< 40", ">> 40"}
