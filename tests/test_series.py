"""Truncated series arithmetic: products, inversion, composition, egf view."""

import math
import random
from fractions import Fraction

import pytest

from degenpoly import series
from degenpoly.poly import LAM, ONE, X, ZERO, MultiPoly
from degenpoly.series import TruncatedSeries


def rand_series(rng: random.Random, order: int, unit: bool = False) -> TruncatedSeries:
    coeffs = []
    for n in range(order + 1):
        c = MultiPoly.const(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))
        if rng.random() < 0.3:
            c = c + LAM * rng.randrange(-2, 3)
        coeffs.append(c)
    if unit:
        coeffs[0] = MultiPoly.const(Fraction(rng.randrange(1, 5)))
    return TruncatedSeries(order, coeffs)


def test_constructor_validation():
    with pytest.raises(ValueError):
        TruncatedSeries(2, [1, 2])
    with pytest.raises(ValueError):
        TruncatedSeries(-1, [])
    s = TruncatedSeries(1, [1, Fraction(1, 2)])
    assert s.coeffs[1] == MultiPoly.const(Fraction(1, 2))


@pytest.mark.parametrize("order", [True, False, 1.0], ids=repr)
def test_order_that_is_not_an_int_raises_type_error(order):
    # True and 1.0 would otherwise build a two-coefficient series of that order
    with pytest.raises(TypeError, match="^series order must be an int"):
        TruncatedSeries(order, [1, 2])


def test_order_mismatch_raises():
    a = TruncatedSeries.constant(1, 3)
    b = TruncatedSeries.constant(1, 4)
    for op in (lambda: a * b, lambda: a.compose(b)):
        with pytest.raises(ValueError):
            op()


def test_t_and_constant():
    t = TruncatedSeries.t(3)
    assert t.coeffs == (ZERO, ONE, ZERO, ZERO)
    assert TruncatedSeries.t(0).coeffs == (ZERO,)
    assert TruncatedSeries.constant(X, 2).coeffs == (X, ZERO, ZERO)


def test_mul_small_case():
    # (1 + t)^2 = 1 + 2t + t^2
    one_plus_t = TruncatedSeries.t(2) + 1
    sq = one_plus_t * one_plus_t
    assert sq.coeffs == (ONE, MultiPoly.const(2), ONE)
    # truncation drops t^3: (1 + t) * (t + t^2) at order 2
    s = (TruncatedSeries.t(2) + 1) * TruncatedSeries(2, [0, 1, 1])
    assert s.coeffs == (ZERO, ONE, MultiPoly.const(2))


def test_scalar_add_and_subtract():
    s = TruncatedSeries(2, [0, 2, 0]) + 1
    assert s.coeffs == (ONE, MultiPoly.const(2), ZERO)
    s3 = s - 1
    assert s3.coeffs == (ZERO, MultiPoly.const(2), ZERO)


@pytest.mark.parametrize(
    "form, coeffs",
    [
        ("s + s", None),
        ("s - s", None),
        ("-s", None),
        ("s * 2", None),
        ("2 * s", None),
        ("s * LAM", None),
        ("1 + s", None),
        ("s + 1", (2, 2, 3)),
        ("s - 1", (0, 2, 3)),
        ("s + LAM", (1 + LAM, 2, 3)),
        ("s * s", (1, 4, 10)),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_only_scalar_sums_and_series_products_remain(form, coeffs):
    # no family adds two series, negates one or scales one by a scalar
    env = {"s": TruncatedSeries(2, [1, 2, 3]), "LAM": LAM}
    if coeffs is None:
        with pytest.raises(TypeError):
            eval(form, env)
    else:
        assert eval(form, env) == TruncatedSeries(2, coeffs)


def test_invert_geometric_oracle():
    # 1/(1 - t) = sum t^n, frozen expectation
    n = 8
    geom = TruncatedSeries(n, [1, -1] + [0] * (n - 1)).invert()
    assert geom.coeffs == tuple([ONE] * (n + 1))


def test_invert_is_right_inverse_random():
    rng = random.Random(7)
    for _ in range(25):
        order = rng.randrange(1, 7)
        f = rand_series(rng, order, unit=True)
        g = f.invert()
        assert f * g == TruncatedSeries.constant(1, order)


def test_invert_requires_rational_unit():
    with pytest.raises(ValueError):
        TruncatedSeries.t(3).invert()
    with pytest.raises(ValueError):
        TruncatedSeries(2, [X, 0, 0]).invert()


def brute_compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    # direct sum of c_n * inner^n over coefficient lists, the slow reference
    order = outer.order
    acc = [ZERO] * (order + 1)
    power = TruncatedSeries.constant(1, order)
    for c in outer.coeffs:
        acc = [a + c * p for a, p in zip(acc, power.coeffs)]
        power = power * inner
    return TruncatedSeries(order, acc)


def test_compose_against_brute_force():
    rng = random.Random(13)
    for _ in range(25):
        order = rng.randrange(1, 7)
        outer = rand_series(rng, order)
        inner = rand_series(rng, order)
        inner = inner - inner.coeffs[0]
        assert outer.compose(inner) == brute_compose(outer, inner)


@pytest.mark.parametrize("valuation", [1, 4])
def test_compose_takes_powers_built_at_a_larger_order(valuation):
    # compose reads the given powers only up to t^order, so the powers of
    # the same inner series built at order + 3 give the same result
    rng = random.Random(17 + valuation)
    order = 9
    coeffs = rand_series(rng, order + 3).coeffs
    big = TruncatedSeries(order + 3, [ZERO] * valuation + list(coeffs[valuation:]))
    inner = TruncatedSeries(order, big.coeffs[: order + 1])
    outer = rand_series(rng, order)
    assert outer.compose(inner, big.powers(order)) == outer.compose(inner)


def test_compose_requires_zero_constant_term():
    with pytest.raises(ValueError):
        TruncatedSeries.t(2).compose(TruncatedSeries.constant(1, 2))
    with pytest.raises(TypeError):
        TruncatedSeries.t(2).compose(3)


def test_pow():
    t = TruncatedSeries.t(4) + 1
    assert t**0 == TruncatedSeries.constant(1, 4)
    assert t**1 == t
    assert t**3 == t * t * t
    with pytest.raises(ValueError):
        t**-2


def test_pow_by_squaring_matches_repeated_products():
    s = rand_series(random.Random(5), 5)
    assert s**0 == TruncatedSeries.constant(1, 5)
    for r in range(1, 10):
        assert s**r == s.powers(r)[-1]


def test_pow_never_multiplies_by_one(monkeypatch):
    products = []
    mul = TruncatedSeries.__mul__
    monkeypatch.setattr(TruncatedSeries, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    s = TruncatedSeries.t(3) + 1
    for r, count in ((1, 0), (2, 1), (3, 2), (4, 2), (8, 3)):
        products.clear()
        s**r
        assert len(products) == count, r


def test_square_takes_each_cross_product_once(monkeypatch):
    triples = []
    original = series.sum_of_products

    def spy(terms):
        terms = list(terms)
        triples.append(len(terms))
        return original(terms)

    monkeypatch.setattr(series, "sum_of_products", spy)
    s = rand_series(random.Random(11), 9)
    s * s
    assert triples == [m // 2 + 1 for m in range(10)]
    triples.clear()
    s * TruncatedSeries(s.order, list(s.coeffs))  # another object: the general product
    assert triples == [m + 1 for m in range(10)]


def test_pow_of_a_huge_exponent():
    # (1 + t)^r: about two products per bit of r, not one per unit
    r = 10**9
    power = (TruncatedSeries.t(4) + 1) ** r
    assert power == TruncatedSeries(4, [math.comb(r, m) for m in range(5)])


@pytest.mark.parametrize(
    "bad, error",
    [(True, TypeError), (1.0, TypeError), (-1, ValueError)],
    ids=["bool", "float", "neg"],
)
@pytest.mark.parametrize(
    "use",
    [
        lambda s, n: s.egf_coeff(n),
        lambda s, n: s.powers(n),
        lambda s, n: s**n,
    ],
    ids=["egf_coeff", "powers", "pow"],
)
def test_series_counts_reject_a_bool_a_float_and_a_negative(use, bad, error):
    # egf_coeff(True) used to return c_1, powers(-1) () and s ** True s;
    # the constructor's order is tested on its own above
    with pytest.raises(error):
        use(TruncatedSeries(1, [1, 2]), bad)


def test_egf_coeff():
    s = TruncatedSeries(3, [1, 1, Fraction(1, 2), Fraction(1, 6)])
    for n in range(4):
        assert s.egf_coeff(n) == ONE  # e^t has all egf coefficients 1
    with pytest.raises(ValueError):
        s.egf_coeff(4)
    with pytest.raises(ValueError):
        s.egf_coeff(-1)
    assert TruncatedSeries(2, [0, 0, X]).egf_coeff(2) == 2 * X


def test_factorial_scaling_consistency():
    # ordinary coefficient c_n recovered from egf_coeff / n!
    rng = random.Random(3)
    s = rand_series(rng, 6)
    for n in range(7):
        assert s.egf_coeff(n) == s.coeffs[n] * math.factorial(n)
