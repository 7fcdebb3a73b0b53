"""Composition checked against sympy, from the paper's definitions.

``Ei_{k,lambda}(log_lambda(1+t))`` is expanded in sympy from scratch:
``log_lambda(1+t) = ((1+t)^lambda - 1)/lambda`` has the coefficients
``(lambda-1)_{n-1} / n!`` (falling factorial), ``Ei_{k,lambda}`` has
``(1)_{n,lambda} / ((n-1)! n^k)``, and the powers of the logarithm are
``sympy.Poly`` products truncated at ``t^N``.  None of it goes through
``degenpoly``'s series or polynomial arithmetic.
"""

import pytest

sympy = pytest.importorskip("sympy")

from degenpoly.degen import deg_log, deg_polyexp

N = 8
LAM, T = sympy.symbols("lambda t")


def truncated(p):
    """``p`` without its terms above ``t^N``."""
    return p.rem(sympy.Poly(T ** (N + 1), T))


def deg_log_poly():
    coeffs = [sympy.ff(LAM - 1, n - 1) / sympy.factorial(n) for n in range(1, N + 1)]
    return sympy.Poly(sum(c * T**n for n, c in enumerate(coeffs, 1)), T)


def polyexp_of_log(k: int):
    """``Ei_{k,lambda}(log_lambda(1+t))`` up to ``t^N``."""
    log = deg_log_poly()
    power = sympy.Poly(1, T, domain=log.domain)
    total = sympy.Poly(0, T, domain=log.domain)
    for n in range(1, N + 1):
        power = truncated(power * log)
        rising = sympy.prod([1 - i * LAM for i in range(n)])  # (1)_{n,lambda}
        total += power * (rising / (sympy.factorial(n - 1) * sympy.Integer(n) ** k))
    return total


def to_sympy(p):
    assert all(b == 0 and c == 0 for _, b, c in p.terms)
    return sum(
        (sympy.Rational(q.numerator, q.denominator) * LAM**a for (a, _, _), q in p.terms.items()),
        sympy.Integer(0),
    )


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
