"""Composition and the families checked against sympy, from the paper's definitions.

``Ei_{k,lambda}(log_lambda(1+t))`` is expanded in sympy from scratch:
``log_lambda(1+t) = ((1+t)^lambda - 1)/lambda`` has the coefficients
``(lambda-1)_{n-1} / n!`` (falling factorial), ``Ei_{k,lambda}`` has
``(1)_{n,lambda} / ((n-1)! n^k)``, and the powers of the logarithm are
``sympy.Poly`` products truncated at ``t^N``.  The families are checked
without a series inversion: each egf times ``(e_lambda(t) + 1)^r`` must be
the paper's numerator times ``e_lambda^x(t)``, with ``Ei_{(k_1..k_r),lambda}``
summed over explicit chains ``0 < n_1 < ... < n_r``.  None of it goes
through ``degenpoly``'s series or polynomial arithmetic.

The degenerate Stirling numbers of the first kind are read off in sympy
from their definition ``(x)_n = sum_k S_{1,lambda}(n, k) (x)_{k,lambda}``.

The ``MultiPoly`` core itself (``*``, ``+`` and ``sum_of_products``) is
checked against ``sympy.Poly`` over ``QQ[lambda, x, y]`` on a fixed set of
trivariate polynomials.
"""

import functools
import itertools
import math
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from degenpoly import families
from degenpoly.degen import deg_log, deg_polyexp, stirling1_deg_recurrence
from degenpoly.poly import MultiPoly, sum_of_products
from degenpoly.verify import FamilyMemo, default_k_lists

N = 8
LAM, T, X, Y = sympy.symbols("lambda t x y")


def truncated(p, order=N):
    """``p`` without its terms above ``t^order``."""
    return p.rem(sympy.Poly(T ** (order + 1), T))


def deg_log_poly(order=N):
    coeffs = [sympy.ff(LAM - 1, n - 1) / sympy.factorial(n) for n in range(1, order + 1)]
    return sympy.Poly(sum(c * T**n for n, c in enumerate(coeffs, 1)), T)


def deg_exp_poly(w, order):
    """``e_lambda^w(t) = (1 + lambda t)^(w/lambda)``: ``(w)_{n,lambda} / n!`` at ``t^n``."""
    terms = (
        sympy.prod([w - i * LAM for i in range(n)]) / sympy.factorial(n) * T**n
        for n in range(order + 1)
    )
    return sympy.Poly(sum(terms), T)


def of_log(coeffs, order=N):
    """``sum_{n>=1} coeffs[n] log_lambda(1+t)^n`` up to ``t^order``."""
    log = deg_log_poly(order)
    power = sympy.Poly(1, T, domain=log.domain)
    total = sympy.Poly(0, T, domain=log.domain)
    for n in range(1, order + 1):
        power = truncated(power * log, order)
        total += power * coeffs[n]
    return total


def polyexp_term(n, k):
    """``(1)_{n,lambda} / ((n-1)! n^k)``."""
    rising = sympy.prod([1 - i * LAM for i in range(n)])  # (1)_{n,lambda}
    return rising / (sympy.factorial(n - 1) * sympy.Integer(n) ** k)


def polyexp_of_log(k: int):
    """``Ei_{k,lambda}(log_lambda(1+t))`` up to ``t^N``."""
    return of_log([0] + [polyexp_term(n, k) for n in range(1, N + 1)])


def multi_polyexp_coeffs(ks, order):
    """``Ei_{(k_1..k_r),lambda}`` coefficients, one chain ``0 < n_1 < ... < n_r`` at a time."""
    coeffs = [sympy.Integer(0)] * (order + 1)
    for chain in itertools.combinations(range(1, order + 1), len(ks)):
        coeffs[chain[-1]] += sympy.prod([polyexp_term(n, k) for n, k in zip(chain, ks)])
    return coeffs


def to_sympy(p):
    return sum(
        (
            sympy.Rational(q.numerator, q.denominator) * LAM**a * X**b * Y**c
            for (a, b, c), q in p.terms.items()
        ),
        sympy.Integer(0),
    )


def to_qq_poly(p):
    """``p`` as a ``sympy.Poly`` over ``QQ[lambda, x, y]``, term by term."""
    terms = {exps: sympy.Rational(q.numerator, q.denominator) for exps, q in p.terms.items()}
    return sympy.Poly.from_dict(terms, LAM, X, Y, domain="QQ")


# zero, a constant, mixed and coprime denominators, negative and cancelling terms
P_LAM, P_X, P_Y = (MultiPoly.sym(name) for name in ("lambda", "x", "y"))
CORE_POLYS = [
    MultiPoly(),
    MultiPoly.const(Fraction(-7, 4)),
    P_LAM**2 - 3 * P_LAM + 2,
    Fraction(3, 2) * P_LAM * P_X - Fraction(1, 3) * P_Y**2 + Fraction(5, 7),
    -(P_LAM**3) * P_X * P_Y + Fraction(2, 5) * P_X**2 - Fraction(11, 6) * P_Y + Fraction(1, 4),
    P_X**3 - 3 * P_X**2 * P_Y + 3 * P_X * P_Y**2 - P_Y**3,
    Fraction(1, 2) * (P_LAM + P_X - P_Y - 1),
]
CORE_PAIRS = list(itertools.product(range(len(CORE_POLYS)), repeat=2))


@pytest.mark.parametrize("i, j", CORE_PAIRS)
def test_multipoly_ring_operations_match_sympy(i, j):
    p, q = CORE_POLYS[i], CORE_POLYS[j]
    assert to_qq_poly(p * q) == to_qq_poly(p) * to_qq_poly(q)
    assert to_qq_poly(p + q) == to_qq_poly(p) + to_qq_poly(q)
    assert to_qq_poly(p - q) == to_qq_poly(p) - to_qq_poly(q)


BIG_SCALES = [0, 1, -1, -3, 4, 42, 5040, -(2**61 - 1) * 12, 3**200, -(7**90)]


@pytest.mark.parametrize("c", BIG_SCALES, ids=[f"c{i}" for i in range(len(BIG_SCALES))])
@pytest.mark.parametrize("i", range(len(CORE_POLYS)))
def test_integer_scale_matches_sympy(i, c):
    p = CORE_POLYS[i]
    expected = to_qq_poly(p) * c
    assert to_qq_poly(p * c) == expected
    assert to_qq_poly(c * p) == expected


@pytest.mark.parametrize("weights", [(1, 1, 1), (3, -2, 5), (0, -1, 12), (-4, 0, 0)])
def test_sum_of_products_matches_sympy(weights):
    n = len(CORE_POLYS)
    triples = [
        (c, CORE_POLYS[(k + 2 * i) % n], CORE_POLYS[(3 * k + i + 1) % n])
        for k in range(n)
        for i, c in enumerate(weights)
    ]
    expected = sympy.Poly(0, LAM, X, Y, domain="QQ")
    for c, p, q in triples:
        expected += to_qq_poly(p) * to_qq_poly(q) * c
    assert to_qq_poly(sum_of_products(triples)) == expected


def test_log_coefficients_match_the_definition():
    # t^n in ((1+t)^lambda - 1)/lambda is binomial(lambda, n)/lambda for n >= 1
    log = deg_log_poly()
    for n in range(1, N + 1):
        from_binomial = sympy.expand_func(sympy.binomial(LAM, n)) / LAM
        assert sympy.cancel(from_binomial - log.coeff_monomial(T**n)) == 0, n


@pytest.mark.parametrize("k", [-1, 0, 2])
def test_polyexp_of_log_matches_sympy(k):
    expected = polyexp_of_log(k)
    composed = deg_polyexp(k, N).compose(deg_log(N))
    for m, coeff in enumerate(composed.coeffs):
        assert sympy.expand(to_sympy(coeff) - expected.coeff_monomial(T**m)) == 0, m


FAMILY_N = 6


@functools.cache
def multi_numerator(ks):
    """``2^r Ei_{(k_1..k_r),lambda}(log_lambda(1+t))`` up to ``t^FAMILY_N``."""
    return of_log(multi_polyexp_coeffs(ks, FAMILY_N), FAMILY_N) * 2 ** len(ks)


# (builder, its leading parameters, r, the paper's numerator over (e_lambda(t) + 1)^r)
FAMILY_CASES = [
    ("genocchi_deg", (), 1, lambda: 2 * T),
    ("genocchi_deg_order", (1,), 1, lambda: 2 * T),
    ("genocchi_deg_order", (2,), 2, lambda: (2 * T) ** 2),
    ("euler_deg_order", (1,), 1, lambda: 2),
    ("euler_deg_order", (2,), 2, lambda: 4),
    ("poly_genocchi_deg", (2,), 1, lambda: multi_numerator((2,))),
    ("multi_poly_genocchi_deg", ((1, 2),), 2, lambda: multi_numerator((1, 2))),
    ("multi_poly_genocchi_deg", ((-1, 1, 2),), 3, lambda: multi_numerator((-1, 1, 2))),
]
# and the multi-poly-Genocchi family of every other k-list the sweep checks
FAMILY_CASES += [
    ("multi_poly_genocchi_deg", (ks,), len(ks), functools.partial(multi_numerator, ks))
    for ks in default_k_lists()
    if ks not in ((1, 2), (-1, 1, 2))
]


@pytest.mark.parametrize(
    "builder, params, r, numerator",
    FAMILY_CASES,
    ids=[f"{builder}{params}".replace(" ", "") for builder, params, _, _ in FAMILY_CASES],
)
def test_family_egf_matches_the_paper_generating_function(builder, params, r, numerator):
    fam = getattr(families, builder)(*params, "x", FAMILY_N)
    egf = sympy.Poly(
        sum(to_sympy(v) * T**n / sympy.factorial(n) for n, v in enumerate(fam.values)), T
    )
    lhs = truncated(egf * (deg_exp_poly(1, FAMILY_N) + 1) ** r, FAMILY_N)
    rhs = truncated(sympy.Poly(numerator(), T) * deg_exp_poly(X, FAMILY_N), FAMILY_N)
    for m in range(FAMILY_N + 1):
        diff = lhs.coeff_monomial(T**m) - rhs.coeff_monomial(T**m)
        assert sympy.expand(diff) == 0, m


@pytest.mark.parametrize("ks", default_k_lists(), ids=lambda ks: str(ks).replace(" ", ""))
def test_chain_factors_are_the_composed_multi_polyexponential(ks):
    # A_m = m! [t^m] Ei_{ks,lambda}(log_lambda(1+t)), the numerator without its 2^r
    factors = FamilyMemo().chain_factors(ks, FAMILY_N)
    assert len(factors) == FAMILY_N + 1
    composed = multi_numerator(ks)
    for m, factor in enumerate(factors):
        expected = composed.coeff_monomial(T**m) * math.factorial(m) / 2 ** len(ks)
        assert sympy.expand(to_sympy(factor) - expected) == 0, m


def stirling1_by_basis_change(n):
    """``S_{1,lambda}(n, k)`` for k = 0..n, the coordinates of ``(x)_n`` over ``(x)_{k,lambda}``.

    ``(x)_n = x (x-1) ... (x-n+1)`` is expanded, and its top power of x
    peeled off with one ``(x)_{k,lambda} = prod_{i<k} (x - i lambda)`` at a
    time, from k = n down: the basis is monic of degree k.
    """
    rest = sympy.expand(sympy.prod([X - i for i in range(n)]))
    coords = [sympy.Integer(0)] * (n + 1)
    for k in range(n, -1, -1):
        coords[k] = rest.coeff(X, k)
        rest = sympy.expand(rest - coords[k] * sympy.prod([X - i * LAM for i in range(k)]))
    assert rest == 0
    return coords


def test_stirling_triangle_matches_the_basis_change():
    # only the recurrence's triangle comes from degenpoly
    table = stirling1_deg_recurrence(N)
    for n in range(N + 1):
        for k, expected in enumerate(stirling1_by_basis_change(n)):
            assert sympy.expand(to_sympy(table[n][k]) - expected) == 0, (n, k)


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(-2)])
def test_two_over_exp_plus_one_matches_the_sympy_series(q):
    # 2 / (e_lambda(t) + 1) at lambda = q, with e_lambda(t) = (1 + q t)^(1/q)
    # expanded by sympy, against the factor built from its Riccati recurrence
    order = 10
    q_sym = sympy.Rational(q.numerator, q.denominator)
    expr = 2 / ((1 + q_sym * T) ** (1 / q_sym) + 1)
    expected = sympy.series(expr, T, 0, order + 1).removeO()
    factor = families._two_over_exp_plus_one(order, lam=MultiPoly.const(q))
    for m, coeff in enumerate(factor.coeffs):
        assert to_sympy(coeff) == expected.coeff(T, m), m
