"""Family constructors: frozen low-order values, reductions, basis coefficients.

Classical Genocchi numbers are frozen from an independent plain-Fraction
series-division oracle (2t divided by e^t + 1) computed here in the test.
"""

import dataclasses
import math
from fractions import Fraction

import pytest

from degenpoly import families
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


def classical_genocchi_oracle(n_max: int) -> list[Fraction]:
    # divide 2t by e^t + 1 over plain rationals, then rescale to egf values
    denom = [Fraction(2)] + [Fraction(1, math.factorial(n)) for n in range(1, n_max + 1)]
    quot: list[Fraction] = []
    for n in range(n_max + 1):
        target = Fraction(2) if n == 1 else Fraction(0)
        acc = target - sum(denom[i] * quot[n - i] for i in range(1, n + 1))
        quot.append(acc / denom[0])
    return [quot[n] * math.factorial(n) for n in range(n_max + 1)]


def test_oracle_matches_frozen_classical_genocchi():
    assert classical_genocchi_oracle(8)[1:] == [
        Fraction(1),
        Fraction(-1),
        Fraction(0),
        Fraction(1),
        Fraction(0),
        Fraction(-3),
        Fraction(0),
        Fraction(17),
    ]


def test_genocchi_numbers_frozen_symbolic():
    fam = genocchi_deg(0, 4)
    assert fam.values[0] == ZERO
    assert fam.values[1] == ONE
    assert fam.values[2] == MultiPoly.const(-1)
    assert fam.values[3] == LAM * Fraction(3, 2)
    assert fam.values[4] == 1 - 4 * LAM**2


def test_genocchi_classical_limit_vs_oracle():
    n_max = 8
    fam = genocchi_deg(0, n_max)
    oracle = classical_genocchi_oracle(n_max)
    for n in range(n_max + 1):
        assert fam.values[n].substitute("lambda", 0) == MultiPoly.const(oracle[n])


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


def test_genocchi_order_one_reduces():
    a = genocchi_deg_order(1, "x", 6)
    b = genocchi_deg("x", 6)
    assert a.values == b.values
    with pytest.raises(ValueError):
        genocchi_deg_order(0, "x", 4)


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
