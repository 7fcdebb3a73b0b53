"""Route independence: each named fault must fail the full sweep.

The memo's store shares sub-series between family builds and checkers, so a
fault in a shared piece reaches every family built from it.  Each fault
below is patched into the function the store or the builder calls, so it
reaches the cached value, and ``run_identity("all", N)`` on a fresh memo
must still fail.  ``CAUGHT_BY`` records which reports catch each fault; a
change that makes both sides of an identity share the faulty piece shows
up as a shrunken set.
"""

import math
from fractions import Fraction

import pytest

from degenpoly import families, verify
from degenpoly.degen import deg_falling_factorials
from degenpoly.poly import LAM, ZERO
from degenpoly.series import TruncatedSeries
from degenpoly.verify import FamilyMemo, run_identity

N = 5


def _bump(series: TruncatedSeries) -> TruncatedSeries:
    """``series + lambda^2 t^3``: zero at lambda = 0, so the classical checks miss it."""
    coeffs = list(series.coeffs)
    coeffs[3] = coeffs[3] + LAM**2
    return TruncatedSeries(series.order, coeffs)


def _multi_polyexp_non_strict(ks, order, *, lam=LAM):
    """``deg_multi_polyexp`` whose chain steps allow ``n_{i+1} = n_i``."""
    ones = deg_falling_factorials(1, order, lam=lam)
    level = None
    for k in ks:
        nxt = [ZERO] * (order + 1)
        running = ZERO
        for n in range(1, order + 1):
            if level is not None:
                running = running + level[n]  # the clean step adds level[n - 1]
            base = ones[n] * (Fraction(1, math.factorial(n - 1)) * Fraction(n) ** (-k))
            nxt[n] = base if level is None else base * running
        level = nxt
    return TruncatedSeries(order, level)


def _faults():
    """name -> (module, attribute, faulty replacement built from the original)."""
    inverse = families._two_over_exp_plus_one
    exp = families.deg_exp
    log = families.deg_log
    products = verify._chain_products

    def without_last_chain(r, n_max):
        out = products(r, n_max)
        out[-1] = out[-1][:-1]
        return out

    def exp_bumped_at_x(weight, order, **lam):
        return _bump(exp(weight, order, **lam)) if weight == "x" else exp(weight, order, **lam)

    def exp_bumped_at_r(weight, order, **lam):
        # not at 1: the inversion of e_lambda(t)+1 reads that weight too
        return _bump(exp(weight, order, **lam)) if weight in (2, 3) else exp(weight, order, **lam)

    return {
        "inverse": (
            families,
            "_two_over_exp_plus_one",
            lambda order, **lam: _bump(inverse(order, **lam)),
        ),
        "deg_exp_at_x": (families, "deg_exp", exp_bumped_at_x),
        "deg_exp_at_r": (families, "deg_exp", exp_bumped_at_r),
        "deg_log": (families, "deg_log", lambda order, **lam: _bump(log(order, **lam))),
        "multi_chain_step": (families, "deg_multi_polyexp", _multi_polyexp_non_strict),
        "chain_enumeration": (verify, "_chain_products", without_last_chain),
    }


# The inverse sits on both sides of every identity but Thm3, which mixes
# Euler orders 0..r; deg_exp at "x" cancels wherever both sides are built
# at "x"; deg_exp at r = 2, 3 feeds only the families at argument r, which
# Thm3 alone reads; the log and the multi DP feed only the composed
# numerator, which the Stirling-recurrence chain sums and the plain Genocchi
# family do not use.
CAUGHT_BY = {
    "inverse": {"Thm3"},
    "deg_exp_at_x": {"Prop4", "Eq15"},
    "deg_exp_at_r": {"Thm3"},
    "deg_log": {"Thm1", "Cor2", "Thm3", "ReductionR1K1"},
    "multi_chain_step": {"Thm1", "Cor2", "Thm3", "Vanishing"},
    "chain_enumeration": {"Thm1", "Cor2", "Thm3"},
}


def test_matrix_names_every_fault():
    assert set(_faults()) == set(CAUGHT_BY)


@pytest.mark.parametrize("fault", sorted(CAUGHT_BY))
def test_fault_fails_the_sweep(fault, monkeypatch):
    module, attribute, faulty = _faults()[fault]
    monkeypatch.setattr(module, attribute, faulty)
    reports = run_identity("all", N, memo=FamilyMemo())
    caught = {report.identity_id for report in reports if not report.passed}
    assert caught == CAUGHT_BY[fault]


def test_sweep_passes_without_faults():
    assert all(report.passed for report in run_identity("all", N, memo=FamilyMemo()))
