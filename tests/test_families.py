"""Family constructors: frozen low-order values, reductions, basis coefficients.

The lambda = 0 Genocchi numbers are checked against the classical
G_0..G_8, written out as integers.
"""

import dataclasses
import math
from fractions import Fraction

import pytest

from degenpoly import degen, families, poly, series
from degenpoly.families import (
    PolyFamily,
    euler_deg_order,
    genocchi_deg,
    genocchi_deg_order,
    multi_poly_genocchi_deg,
    poly_genocchi_deg,
)
from degenpoly.degen import deg_exp, deg_falling_factorials
from degenpoly.poly import LAM, ONE, X, ZERO, MultiPoly
from falling_basis import falling_basis_coeffs


# the classical Genocchi numbers G_0..G_8, the egf coefficients of 2t / (e^t + 1)
CLASSICAL_GENOCCHI = [0, 1, -1, 0, 1, 0, -3, 0, 17]


def test_oracle_matches_frozen_classical_genocchi():
    # (e^t + 1) * sum G_n t^n / n! = 2t: the literal satisfies the defining
    # product, which fixes each G_n in turn from G_0 = 0
    for n in range(len(CLASSICAL_GENOCCHI)):
        product = sum(math.comb(n, i) * CLASSICAL_GENOCCHI[i] for i in range(n + 1))
        assert product + CLASSICAL_GENOCCHI[n] == (2 if n == 1 else 0)


def test_genocchi_numbers_frozen_symbolic():
    fam = genocchi_deg(0, 4)
    assert fam.values[0] == ZERO
    assert fam.values[1] == ONE
    assert fam.values[2] == MultiPoly.const(-1)
    assert fam.values[3] == LAM * Fraction(3, 2)
    assert fam.values[4] == 1 - 4 * LAM**2


def test_genocchi_classical_limit_vs_oracle():
    fam = genocchi_deg(0, 8)
    for n, expected in enumerate(CLASSICAL_GENOCCHI):
        assert fam.values[n].substitute("lambda", 0) == MultiPoly.const(expected)


def test_genocchi_polynomial_argument_forms():
    n_max = 5
    sym = genocchi_deg("x", n_max)
    half = genocchi_deg(Fraction(1, 2), n_max)
    for n in range(n_max + 1):
        assert sym.values[n].substitute("x", Fraction(1, 2)) == half.values[n]
    with pytest.raises(ValueError):
        genocchi_deg("t", 3)
    # a float argument is not a rational: 0.1 used to become 3602879701896397/2^55
    with pytest.raises(TypeError):
        genocchi_deg(0.1, 3)


def test_euler_order_hand_values():
    fam = euler_deg_order(1, "x", 2)
    assert fam.values[0] == ONE
    assert fam.values[1] == X - Fraction(1, 2)
    assert fam.values[2] == X**2 - LAM * X - X + LAM * Fraction(1, 2)
    with pytest.raises(ValueError):
        euler_deg_order(0, "x", 4)


def test_euler_order_is_genocchi_order_without_t_power():
    # (2t/(e+1))^r = t^r * (2/(e+1))^r shifts indices by r
    r, n_max = 2, 6
    euler = euler_deg_order(r, "x", n_max)
    gen = genocchi_deg_order(r, "x", n_max + r)
    for n in range(n_max + 1):
        scale = math.factorial(r) * math.comb(n + r, n)
        assert euler.values[n] * scale == gen.values[n + r]


def test_poly_genocchi_k1_reduces_to_genocchi():
    a = poly_genocchi_deg(1, "x", 6)
    b = genocchi_deg("x", 6)
    assert a.values == b.values


def test_poly_genocchi_hand_value():
    # k = 2 number at n = 2: (lambda - 3) / 2
    fam = poly_genocchi_deg(2, 0, 2)
    assert fam.values[2] == (LAM - 3) * Fraction(1, 2)


def test_multi_poly_genocchi_single_index_reduces():
    for k in (-1, 0, 1, 2):
        multi = multi_poly_genocchi_deg((k,), "x", 5)
        poly = poly_genocchi_deg(k, "x", 5)
        assert multi.values == poly.values
    assert multi_poly_genocchi_deg((1,), "x", 5).values == genocchi_deg("x", 5).values


def test_multi_poly_genocchi_vanishing_below_r():
    fam = multi_poly_genocchi_deg((1, 2, 1), "x", 6)
    assert fam.values[0] == ZERO
    assert fam.values[1] == ZERO
    assert fam.values[2] == ZERO
    assert fam.values[3] != ZERO


def test_multi_poly_genocchi_argument_x_plus_y():
    fam = multi_poly_genocchi_deg((1, 2), "x+y", 5)
    sym = multi_poly_genocchi_deg((1, 2), "x", 5)
    for n in range(6):
        assert fam.values[n].substitute("y", 0) == sym.values[n]
    with pytest.raises(ValueError):
        multi_poly_genocchi_deg((), "x", 5)


def test_falling_basis_coeffs_reconstruct():
    fam = genocchi_deg("x", 6)
    basis = deg_falling_factorials("x", 6)
    for n in range(7):
        rebuilt = ZERO
        for m, c in enumerate(falling_basis_coeffs(fam.values[n], n)):
            rebuilt = rebuilt + c * basis[m]
        assert rebuilt == fam.values[n]


def test_falling_basis_coeffs_match_number_expansion():
    # Eq15, g_n(x) = sum_l C(n,l) g_l (x)_{n-l,lambda}, read off by elimination
    # rather than by convolution: the basis coefficient at m is C(n,m) * g_{n-m}
    for ks in ((2,), (1, 2)):
        fam = multi_poly_genocchi_deg(ks, "x", 6)
        numbers = multi_poly_genocchi_deg(ks, 0, 6)
        for n in range(7):
            coeffs = falling_basis_coeffs(fam.values[n], n)
            for m in range(n + 1):
                assert coeffs[m] == math.comb(n, m) * numbers.values[n - m], (ks, n, m)


def test_family_metadata():
    # a family holds its values and nothing else; the ids live in cli.FAMILIES
    assert [field.name for field in dataclasses.fields(PolyFamily)] == ["values"]
    fam = multi_poly_genocchi_deg((1, -2), Fraction(1, 3), 4)
    assert len(fam.values) == 5
    assert len(euler_deg_order(2, "x", 3).values) == 4
    assert len(genocchi_deg_order(2, "x", 3).values) == 4
    assert len(poly_genocchi_deg(1, "x", 3).values) == 4


@pytest.mark.parametrize("lam", [LAM, MultiPoly.const(Fraction(1, 2)), MultiPoly.const(-2)])
def test_number_families_are_the_kernel_times_e_lambda_to_the_0(lam, monkeypatch):
    # at argument 0 the builders read the kernel's own values, since e_lambda^0(t) = 1
    seen = []
    original = families._family

    def recording(kernel, argument, n_max, *, lam):
        family = original(kernel, argument, n_max, lam=lam)
        seen.append((kernel, family))
        return family

    monkeypatch.setattr(families, "_family", recording)
    n = 6
    genocchi_deg(0, n, lam=lam)
    genocchi_deg_order(2, 0, n, lam=lam)
    euler_deg_order(3, Fraction(0), n, lam=lam)
    poly_genocchi_deg(-1, 0, n, lam=lam)
    multi_poly_genocchi_deg((1, 2), 0, n, lam=lam)
    assert len(seen) == 5
    for kernel, family in seen:
        product = kernel * deg_exp(0, n, lam=lam)
        assert family.values == tuple(product.egf_coeff(m) for m in range(n + 1))


def _route_by_inversion(order, lam):
    inverse = (deg_exp(1, order, lam=lam) + 1).invert()
    return series.TruncatedSeries(order, [c * 2 for c in inverse.coeffs])


@pytest.mark.parametrize(
    "lam", [LAM, ZERO, MultiPoly.const(Fraction(1, 2)), MultiPoly.const(-2)], ids=str
)
def test_riccati_factor_matches_the_inversion_of_e_lambda_plus_one(lam):
    for order in range(25):
        assert families._two_over_exp_plus_one(order, lam=lam) == _route_by_inversion(order, lam)


def test_riccati_factor_makes_fewer_term_pair_products_than_the_inversion(monkeypatch):
    # every polynomial product in either route is one sum_of_products call
    pairs = [0]

    def counting(original):
        def spy(terms):
            terms = list(terms)
            pairs[0] += sum(len(p.num) * len(q.num) for c, p, q in terms if c)
            return original(terms)

        return spy

    for module in (poly, series, degen, families):
        monkeypatch.setattr(module, "sum_of_products", counting(module.sum_of_products))

    def count(build):
        pairs[0] = 0
        build()
        return pairs[0]

    riccati = count(lambda: families._two_over_exp_plus_one(24, lam=LAM))
    inversion = count(lambda: _route_by_inversion(24, LAM))
    assert 0 < riccati < inversion, f"Riccati {riccati} term pairs, inversion {inversion}"
