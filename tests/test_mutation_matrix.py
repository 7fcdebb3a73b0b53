"""Route independence: each named fault must fail the full sweep.

The memo's store shares sub-series between family builds and checkers, so a
fault in a shared piece reaches every family built from it.  Each fault
below is patched into the function the store or the builder calls, so it
reaches the cached value, and ``run_identity("all", N)`` on a fresh memo
must still fail.  ``CAUGHT_BY`` records which reports catch each fault; a
change that makes both sides of an identity share the faulty piece shows
up as a shrunken set.  ``FAULTS_BY_STORE_KIND`` records which faults change
each kind of entry the store holds, so every shared piece has a fault.  Known
blind spots: the ``inverse`` and ``deg_exp_at_r`` faults are caught by Thm3
alone.
"""

import math
from fractions import Fraction

import pytest

from degenpoly import degen, families, verify
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


def _falling_bumped(falling, bases=None):
    """``falling`` with ``lambda^2`` added to ``(w)_{3,lambda}`` for each base ``w`` in ``bases``."""

    def bumped(base, n_max, **lam):
        out = falling(base, n_max, **lam)
        if n_max >= 3 and (bases is None or base in bases):
            out[3] = out[3] + LAM**2
        return out

    return bumped


def _faults():
    """name -> (module, attribute, faulty replacement built from the original)."""
    inverse = families._two_over_exp_plus_one
    inverse_power = families._two_over_exp_plus_one_power
    exp = families.deg_exp
    log = families.deg_log
    products = verify._chain_products
    stirling = verify.stirling1_deg_recurrence

    def stirling_bumped_at_4_2(n_max, **lam):
        table = stirling(n_max, **lam)
        if n_max < 4:
            return table
        rows = [list(row) for row in table]
        rows[4][2] = rows[4][2] + LAM**2
        return tuple(map(tuple, rows))

    def inverse_squared_bumped(r, order, **lam):
        power = inverse_power(r, order, **lam)
        return _bump(power) if r == 2 else power

    def without_last_chain(r, n_max):
        out = products(r, n_max)
        out[-1] = out[-1][:-1]
        return out

    def exp_bumped_at_x(weight, order, **lam):
        return _bump(exp(weight, order, **lam)) if weight == "x" else exp(weight, order, **lam)

    def exp_bumped_at_r(weight, order, **lam):
        # weights 2 and 3 only, which reach just the families at argument r
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
        "stirling_4_2": (verify, "stirling1_deg_recurrence", stirling_bumped_at_4_2),
        "falling_in_verify": (
            verify,
            "deg_falling_factorials",
            _falling_bumped(verify.deg_falling_factorials),
        ),
        "falling_one_in_multi_polyexp": (
            degen,
            "deg_falling_factorials",
            _falling_bumped(degen.deg_falling_factorials, bases=(1,)),
        ),
        "inverse_squared": (families, "_two_over_exp_plus_one_power", inverse_squared_bumped),
    }


# The inverse sits on both sides of every identity but Thm3, which mixes
# Euler orders 0..r; deg_exp at "x" cancels wherever both sides are built
# at "x"; deg_exp at r = 2, 3 feeds only the families at argument r, which
# Thm3 alone reads; the log and the multi DP feed only the composed
# numerator, which the Stirling-recurrence chain sums and the plain Genocchi
# family do not use.  S_{1,lambda}(4,2) feeds only the chain factors; the
# verifier's (w)_{3,lambda} feeds the chain products (w = 1) and the bases
# of Prop4 (y) and Eq15 (x); the multi DP's own (1)_{3,lambda} feeds only the
# composed numerator, which Vanishing does not see below n = r; the stored
# (2/(e+1))^2 is on both sides of Thm1 and Thm3 and cancels there.  Cor2
# reads Thm1's stored right sides only when its rescaled G^(r) list equals
# the Euler list they were built from; under inverse_squared the lists
# differ, so Cor2 convolves its own right side and fails.
CAUGHT_BY = {
    "inverse": {"Thm3"},
    "deg_exp_at_x": {"Prop4", "Eq15"},
    "deg_exp_at_r": {"Thm3"},
    "deg_log": {"Thm1", "Cor2", "Thm3", "ReductionR1K1"},
    "multi_chain_step": {"Thm1", "Cor2", "Thm3", "Vanishing"},
    "chain_enumeration": {"Thm1", "Cor2", "Thm3"},
    "stirling_4_2": {"Thm1", "Cor2", "Thm3"},
    "falling_in_verify": {"Thm1", "Cor2", "Thm3", "Prop4", "Eq15"},
    "falling_one_in_multi_polyexp": {"Thm1", "Cor2", "Thm3", "ReductionR1K1"},
    "inverse_squared": {"Cor2", "Eq19"},
}


# Each kind of entry the memo's store holds after a sweep, and the faults
# that change a value stored under it.  A plain key is its own kind; a tuple
# key's kind is its head, a family builder by name.
FAULTS_BY_STORE_KIND = {
    "2/(e+1)": {"inverse"},
    ("2/(e+1)",): {"inverse"},
    "log": {"deg_log"},
    "log powers": {"deg_log"},
    ("multi kernel",): {
        "deg_log",
        "falling_one_in_multi_polyexp",
        "inverse",
        "inverse_squared",
        "multi_chain_step",
    },
    ("e^arg",): {"deg_exp_at_r", "deg_exp_at_x"},
    ("chain products",): {"chain_enumeration", "falling_in_verify"},
    ("chain factors",): {"chain_enumeration", "falling_in_verify", "stirling_4_2"},
    ("chain convolutions",): {
        "chain_enumeration",
        "deg_exp_at_x",
        "falling_in_verify",
        "inverse",
        "inverse_squared",
        "stirling_4_2",
    },
    ("falling",): {"falling_in_verify"},
    ("poly_genocchi_deg",): {"deg_exp_at_x", "deg_log", "inverse"},
    ("multi_poly_genocchi_deg",): {
        "deg_exp_at_r",
        "deg_exp_at_x",
        "deg_log",
        "falling_one_in_multi_polyexp",
        "inverse",
        "inverse_squared",
        "multi_chain_step",
    },
    ("genocchi_deg_order",): {"deg_exp_at_x", "inverse"},
    ("euler_deg_order",): {"deg_exp_at_x", "inverse", "inverse_squared"},
    ("stirling1_deg_recurrence",): {"stirling_4_2"},
}


def _swept_store(renamed=None):
    """``{(kind, key): value}`` of a fresh memo's store after ``run_identity("all", N)``.

    A builder in a key is replaced by its name; ``renamed`` maps a patched
    builder to the name of the builder it replaces.
    """
    memo = FamilyMemo()
    run_identity("all", N, memo=memo)
    out = {}
    for key, (_, value) in memo._store._entries.items():
        if not isinstance(key, str):
            head = key[0] if isinstance(key[0], str) else (renamed or {}).get(key[0], key[0].__name__)
            key = (head, *key[1:])
        out[key if isinstance(key, str) else key[:1], key] = value
    return out


@pytest.fixture(scope="module")
def clean_store():
    return _swept_store()


def test_matrix_names_every_fault():
    assert set(_faults()) == set(CAUGHT_BY)


def test_every_store_kind_has_a_fault(clean_store):
    assert {kind for kind, _ in clean_store} == set(FAULTS_BY_STORE_KIND)
    for faults in FAULTS_BY_STORE_KIND.values():
        assert faults and faults <= set(CAUGHT_BY)


@pytest.mark.parametrize("fault", sorted(CAUGHT_BY))
def test_fault_changes_the_store_kinds_listed(fault, clean_store, monkeypatch):
    module, attribute, faulty = _faults()[fault]
    original = getattr(module, attribute)
    monkeypatch.setattr(module, attribute, faulty)
    patched = _swept_store({faulty: original.__name__})
    changed = {kind for (kind, key), value in patched.items() if clean_store.get((kind, key)) != value}
    assert changed == {kind for kind, faults in FAULTS_BY_STORE_KIND.items() if fault in faults}


@pytest.mark.parametrize("fault", sorted(CAUGHT_BY))
def test_fault_fails_the_sweep(fault, monkeypatch):
    module, attribute, faulty = _faults()[fault]
    monkeypatch.setattr(module, attribute, faulty)
    reports = run_identity("all", N, memo=FamilyMemo())
    caught = {report.identity_id for report in reports if not report.passed}
    assert caught == CAUGHT_BY[fault]


def test_sweep_passes_without_faults():
    assert all(report.passed for report in run_identity("all", N, memo=FamilyMemo()))
