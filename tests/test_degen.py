"""Degenerate base functions: falling factorials, exp/log, Stirling, polyexp.

The Stirling triangle is gated by a triple oracle (recurrence, series,
change of basis) and the multiple polyexponential DP by exhaustive chain
enumeration, per the acceptance contract.
"""

import math
from fractions import Fraction

import pytest

from degenpoly import poly
from degenpoly.degen import (
    classical_falling_factorial,
    deg_exp,
    deg_falling_factorials,
    deg_log,
    deg_multi_polyexp,
    deg_polyexp,
    polyexp_modified,
    stirling1_deg_recurrence,
)
from degenpoly.poly import LAM, ONE, X, Y, ZERO, MultiPoly
from degenpoly.series import TruncatedSeries
from chain_enumeration import brute_multi_polyexp
from falling_basis import falling_basis_coeffs
from stirling_series import stirling1_deg_series


def test_deg_falling_factorial_hand_values():
    assert deg_falling_factorials("x", 0)[0] == ONE
    assert deg_falling_factorials("x", 1)[1] == X
    assert deg_falling_factorials("x", 2)[2] == X**2 - LAM * X
    assert deg_falling_factorials(1, 2)[2] == ONE - LAM
    assert deg_falling_factorials(1, 3)[3] == (1 - LAM) * (1 - 2 * LAM)
    assert deg_falling_factorials(Fraction(1, 2), 1)[1] == MultiPoly.const(Fraction(1, 2))
    assert deg_falling_factorials("y", 2)[2] == Y**2 - LAM * Y
    with pytest.raises(ValueError):
        deg_falling_factorials("x", -1)
    # a float base is not a rational scalar
    with pytest.raises(TypeError):
        deg_falling_factorials(0.5, 2)
    with pytest.raises(ValueError):
        deg_falling_factorials("z", 1)


def test_deg_falling_factorials_list_every_order():
    bases = (("x", X), ("y", Y), ("x+y", X + Y), (1, ONE), (Fraction(-2, 3), Fraction(-2, 3)))
    for base, b in bases:
        expected = []
        for m in range(7):
            prod = ONE
            for i in range(m):
                prod = prod * (b - i * LAM)
            expected.append(prod)
        assert deg_falling_factorials(base, 6) == expected
    assert deg_falling_factorials("x", 0) == [ONE]
    with pytest.raises(ValueError):
        deg_falling_factorials("x", -1)


def test_classical_falling_factorial():
    assert classical_falling_factorial(0) == ONE
    assert classical_falling_factorial(3) == X * (X - 1) * (X - 2)
    # degenerate version at lambda = 1 collapses to the classical one
    at_one = deg_falling_factorials("x", 4)[4].substitute("lambda", 1)
    assert at_one == classical_falling_factorial(4)


def test_deg_exp_egf_coefficients_are_falling_factorials():
    for weight in ("x", "y", 1, Fraction(2, 3)):
        series = deg_exp(weight, 6)
        falling = deg_falling_factorials(weight, 6)
        for n in range(7):
            assert series.egf_coeff(n) == falling[n]


def test_deg_exp_sum_weight_matches_product():
    # e_lambda^(x+y) = e_lambda^x * e_lambda^y, gating the "x+y" weight
    n = 8
    assert deg_exp("x+y", n) == deg_exp("x", n) * deg_exp("y", n)


def test_deg_exp_classical_limit():
    series = deg_exp(1, 6)
    for n in range(7):
        assert series.coeffs[n].substitute("lambda", 0) == MultiPoly.const(
            Fraction(1, math.factorial(n))
        )


def test_deg_log_hand_coefficients():
    series = deg_log(3)
    assert series.coeffs[0] == ZERO
    assert series.coeffs[1] == ONE
    assert series.coeffs[2] == (LAM - 1) * Fraction(1, 2)
    assert series.coeffs[3] == (LAM - 1) * (LAM - 2) * Fraction(1, 6)


def test_deg_log_classical_limit():
    # log(1+t) = sum (-1)^(n+1) t^n / n
    series = deg_log(8)
    for n in range(1, 9):
        expected = Fraction((-1) ** (n + 1), n)
        assert series.coeffs[n].substitute("lambda", 0) == MultiPoly.const(expected)


@pytest.mark.parametrize("order", [8, 16, 32])
def test_inverse_pair_exact(order):
    log_series = deg_log(order)
    assert deg_exp(1, order).compose(log_series) == TruncatedSeries.t(order) + 1
    assert deg_polyexp(1, order).compose(log_series) == TruncatedSeries.t(order)


def test_stirling_recurrence_hand_values():
    table = stirling1_deg_recurrence(3)
    assert [len(row) for row in table] == [1, 2, 3, 4]  # row n holds k = 0..n
    assert table[0][0] == ONE
    assert table[1][0] == ZERO
    assert table[2][1] == LAM - 1
    assert table[3][2] == 3 * LAM - 3
    assert table[3][1] == LAM**2 - 3 * LAM + 2
    assert table[3][3] == ONE
    with pytest.raises(ValueError):
        stirling1_deg_recurrence(-1)


def test_stirling_table_rows_must_be_triangular():
    # the triangle is its rows: row n holds k = 0..n, S(n, n) = 1, and a
    # shorter triangle is a prefix of a longer one, for symbolic and numeric lambda
    for lam in (LAM, MultiPoly.const(Fraction(1, 3))):
        full = stirling1_deg_recurrence(7, lam=lam)
        assert isinstance(full, tuple) and all(isinstance(row, tuple) for row in full)
        assert [len(row) for row in full] == list(range(1, 9))
        assert all(row[-1] == ONE for row in full)
        for n_max in range(8):
            assert stirling1_deg_recurrence(n_max, lam=lam) == full[: n_max + 1]


def test_stirling_triple_oracle_to_12():
    n_max = 12
    table = stirling1_deg_recurrence(n_max)
    for n in range(n_max + 1):
        # independent route: expand (x)_n over the monic basis (x)_{m,lambda}
        by_basis = falling_basis_coeffs(classical_falling_factorial(n), n)
        for k in range(n + 1):
            recurrence = table[n][k]
            assert recurrence == stirling1_deg_series(n, k, n_max), (n, k)
            assert recurrence == by_basis[k], (n, k)


def test_stirling_classical_limit():
    # lambda = 0 gives signed Stirling numbers of the first kind: the
    # coefficients of the ordinary falling factorial
    n_max = 8
    table = stirling1_deg_recurrence(n_max)
    for n in range(n_max + 1):
        fall = classical_falling_factorial(n)
        for k in range(n + 1):
            assert table[n][k].substitute("lambda", 0) == fall.coeff_x(k)


def test_stirling_series_route_validation():
    with pytest.raises(ValueError):
        stirling1_deg_series(3, 4, 8)
    with pytest.raises(ValueError):
        stirling1_deg_series(9, 2, 8)


def test_polyexp_modified_hand_values():
    # Ei_1(t) = e^t - 1
    series = polyexp_modified(1, 6)
    assert series.coeffs[0] == ZERO
    for n in range(1, 7):
        assert series.coeffs[n] == MultiPoly.const(Fraction(1, math.factorial(n)))
    # Ei_0(t) = t * e^t
    series0 = polyexp_modified(0, 5)
    for n in range(1, 6):
        assert series0.coeffs[n] == MultiPoly.const(Fraction(1, math.factorial(n - 1)))
    # k = 2 at n = 3: 1/(2! * 9)
    assert polyexp_modified(2, 3).coeffs[3] == MultiPoly.const(Fraction(1, 18))


def test_deg_polyexp_hand_values():
    series = deg_polyexp(2, 3)
    assert series.coeffs[0] == ZERO
    assert series.coeffs[1] == ONE
    assert series.coeffs[2] == (1 - LAM) * Fraction(1, 4)
    assert series.coeffs[3] == (1 - LAM) * (1 - 2 * LAM) * Fraction(1, 18)


def test_deg_polyexp_k1_is_deg_exp_minus_one():
    n = 8
    assert deg_polyexp(1, n) == deg_exp(1, n) - 1


def test_deg_polyexp_classical_limit():
    for k in (-2, -1, 0, 1, 2):
        deg = deg_polyexp(k, 6)
        classical = polyexp_modified(k, 6)
        for n in range(7):
            assert deg.coeffs[n].substitute("lambda", 0) == classical.coeffs[n]


@pytest.mark.parametrize(
    "ks",
    [(1,), (-2,), (0,), (1, 2), (2, -1), (-1, -2), (1, 1, 1), (2, 0, -1), (-2, 1, 2)],
)
def test_deg_multi_polyexp_dp_vs_brute_force(ks):
    order = 10
    assert deg_multi_polyexp(ks, order) == brute_multi_polyexp(ks, order)


def test_deg_multi_polyexp_single_index_reduces():
    for k in (-1, 0, 2):
        assert deg_multi_polyexp((k,), 8) == deg_polyexp(k, 8)


def test_deg_multi_polyexp_hand_coefficient():
    # r = 2, ks = (1, 2): t^2 coefficient comes from the single chain (1, 2)
    series = deg_multi_polyexp((1, 2), 4)
    assert series.coeffs[0] == ZERO
    assert series.coeffs[1] == ZERO  # no chain of length 2 ends at 1
    assert series.coeffs[2] == (1 - LAM) * Fraction(1, 4)


def test_deg_multi_polyexp_validation():
    with pytest.raises(ValueError):
        deg_multi_polyexp((), 5)
    with pytest.raises(ValueError):
        deg_multi_polyexp((1,), -1)


@pytest.mark.parametrize("lam", [LAM, MultiPoly.const(Fraction(1, 2))], ids=str)
def test_builders_make_no_kernel_call_without_a_live_triple(lam, monkeypatch):
    # a product with a zero factor is ZERO before the kernel: at lambda = 1/2
    # (1)_{n,lambda} vanishes from n = 3 on, and each DP level after the
    # first starts with a zero running sum
    calls, empty = [0], []
    kernel = poly.sum_of_products

    def spy(terms):
        terms = list(terms)
        calls[0] += 1
        if not any(c and p.num and q.num for c, p, q in terms):
            empty.append(terms)
        return kernel(terms)

    monkeypatch.setattr(poly, "sum_of_products", spy)
    ones = deg_falling_factorials(1, 12, lam=lam)
    deg_falling_factorials("x", 12, lam=lam)
    for k in (-1, 0, 2):
        deg_polyexp(k, 12, lam=lam)
    for ks in ((1,), (1, 2), (2, -1, 1)):
        deg_multi_polyexp(ks, 12, lam=lam)
    assert (ones[3] == ZERO) == (lam != LAM)
    assert calls[0] and not empty
