"""Family constructors: frozen low-order values, reductions, basis coefficients.

Classical Genocchi numbers are frozen from an independent plain-Fraction
series-division oracle (2t divided by e^t + 1) computed here in the test.
"""

import dataclasses
import inspect
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


def test_genocchi_order_rejects_order_zero():
    with pytest.raises(ValueError):
        genocchi_deg_order(0, "x", 4)


# each builder takes its inputs as keywords, valid by default; a case replaces one
BUILDERS = {
    "genocchi": lambda argument="x", n_max=14: genocchi_deg(argument, n_max),
    "genocchi_order": lambda argument="x", n_max=14, r=2: genocchi_deg_order(r, argument, n_max),
    "euler_order": lambda argument="x", n_max=14, r=2: euler_deg_order(r, argument, n_max),
    "poly": lambda argument="x", n_max=14, k=2: poly_genocchi_deg(k, argument, n_max),
    "multi": lambda argument="x", n_max=14: multi_poly_genocchi_deg((-1, 1, 2), argument, n_max),
}
BAD_INPUTS = [
    ("argument", "z", ValueError),
    ("argument", True, TypeError),
    ("n_max", True, TypeError),
    ("r", True, TypeError),
    ("r", 2.0, TypeError),
    ("k", True, TypeError),
    ("k", 2.0, TypeError),
]


def _bad_input_cases():
    """(builder, {input: bad value}, error) for each input a builder takes."""
    for name, build in sorted(BUILDERS.items()):
        for slot, value, error in BAD_INPUTS:
            if slot in inspect.signature(build).parameters:
                label = value if slot == "argument" else f"{slot}={value}"
                case_id = f"{name}-{label}-{error.__name__}"
                yield pytest.param(name, {slot: value}, error, id=case_id)


@pytest.mark.parametrize("builder, inputs, error", _bad_input_cases())
def test_bad_argument_raises_before_the_kernel_is_built(builder, inputs, error, monkeypatch):
    # a bool is never read as 0 or 1, and a float k or r fails before any
    # kernel work, not deep in the arithmetic
    calls = []
    for name in ("deg_multi_polyexp", "deg_polyexp", "_two_over_exp_plus_one"):
        original = getattr(families, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(families, name, spy)
    with pytest.raises(error):
        BUILDERS[builder](**inputs)
    assert calls == []


LAM_BUILDERS = {
    "deg_falling_factorials": lambda lam: degen.deg_falling_factorials("x", 4, lam=lam),
    "deg_exp": lambda lam: degen.deg_exp("x", 4, lam=lam),
    "deg_log": lambda lam: degen.deg_log(4, lam=lam),
    "stirling1_deg_recurrence": lambda lam: degen.stirling1_deg_recurrence(4, lam=lam),
    "deg_polyexp": lambda lam: degen.deg_polyexp(2, 4, lam=lam),
    "deg_multi_polyexp": lambda lam: degen.deg_multi_polyexp((1, 2), 4, lam=lam),
    "genocchi_deg": lambda lam: genocchi_deg("x", 4, lam=lam),
    "genocchi_deg_order": lambda lam: genocchi_deg_order(2, "x", 4, lam=lam),
    "euler_deg_order": lambda lam: euler_deg_order(2, "x", 4, lam=lam),
    "poly_genocchi_deg": lambda lam: poly_genocchi_deg(2, "x", 4, lam=lam),
    "multi_poly_genocchi_deg": lambda lam: multi_poly_genocchi_deg((1, 2), "x", 4, lam=lam),
}
BAD_LAMS = {
    "2": (2, TypeError),
    "1/2": (Fraction(1, 2), TypeError),
    "x": (X, ValueError),
    "lambda+1": (LAM + 1, ValueError),
}


@pytest.mark.parametrize("lam, error", BAD_LAMS.values(), ids=list(BAD_LAMS))
@pytest.mark.parametrize("build", LAM_BUILDERS.values(), ids=list(LAM_BUILDERS))
def test_lam_is_the_symbol_or_a_constant(build, lam, error):
    # x would stand in for lambda, and a bare number is not a polynomial
    with pytest.raises(error, match="^lam must be LAM or a constant MultiPoly"):
        build(lam)
    build(LAM)
    build(MultiPoly.const(Fraction(1, 2)))


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
