"""The memo's store of shared sub-series: what it shares, and with whom not.

A :class:`FamilyMemo` builds each shared piece once, at the largest order
asked so far, and serves lower orders by truncation.  The store belongs to
that memo only and is active only while the memo's own builder calls run:
a second memo, or a builder called outside any memo, builds everything
again.
"""

import pytest

from degenpoly import families, verify
from degenpoly.degen import stirling1_deg_recurrence
from degenpoly.families import SubSeriesStore
from degenpoly.series import TruncatedSeries
from degenpoly.verify import FamilyMemo, default_k_lists, run_identity


def _count_calls(monkeypatch, owner, name) -> list:
    """Record the arguments of every call of ``owner.name`` from now on."""
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_store_builds_at_the_largest_order_and_cuts_below_it():
    store = SubSeriesStore()
    built = []

    def build(n):
        built.append(n)
        return list(range(n + 1))

    def head(seq, n):
        return seq[: n + 1]

    assert store.get("k", 5, build, head) == [0, 1, 2, 3, 4, 5]
    assert store.get("k", 3, build, head) == [0, 1, 2, 3]
    assert store.get("k", 7, build, head) == list(range(8))
    assert store.get("k", 5, build, head) == list(range(6))
    assert built == [5, 7]


def test_two_memos_share_no_sub_series(monkeypatch):
    inversions = _count_calls(monkeypatch, TruncatedSeries, "invert")
    first, second = FamilyMemo(), FamilyMemo()
    first.multi_poly_genocchi((1, 2), "x", 6)
    first.euler_order(2, "x", 6)
    first.poly_genocchi(2, "x", 6)
    assert len(inversions) == 1
    second.multi_poly_genocchi((1, 2), "x", 6)
    assert len(inversions) == 2
    a, b = first._store._entries, second._store._entries
    shared_keys = a.keys() & b.keys()
    assert shared_keys
    assert all(a[key][1] is not b[key][1] for key in shared_keys)


def test_builder_outside_a_memo_builds_its_own_sub_series(monkeypatch):
    # the compute path: no memo, so nothing cached by an earlier memo run
    memo = FamilyMemo()
    run_identity("all", 4, memo=memo)
    inversions = _count_calls(monkeypatch, TruncatedSeries, "invert")
    logs = _count_calls(monkeypatch, families, "deg_log")
    families.multi_poly_genocchi_deg((1, 2), "x", 4)
    families.multi_poly_genocchi_deg((1, 2), "x", 4)
    assert len(inversions) == 2
    assert len(logs) == 2
    assert families._STORE.get() is None


def test_full_sweep_builds_each_shared_piece_once(monkeypatch):
    factors = _count_calls(monkeypatch, verify, "_chain_factors")
    products = _count_calls(monkeypatch, verify, "_chain_products")
    inversions = _count_calls(monkeypatch, TruncatedSeries, "invert")
    logs = _count_calls(monkeypatch, families, "deg_log")
    reports = run_identity("all", 8)
    assert all(report.passed for report in reports)
    assert len(factors) == len(default_k_lists()) == 29
    assert sorted(r for r, _ in products) == [1, 2, 3]
    # e_lambda(t)+1 at orders 8 and 9..11, the last for the order-r Genocchi
    # builds of Cor2/Eq19; every other build is served by truncation
    assert len(inversions) == 4
    assert logs == [(8,)]


def test_builder_that_raises_leaves_no_store_active():
    memo = FamilyMemo()
    with pytest.raises(ValueError):
        memo.multi_poly_genocchi((), "x", 4)
    assert families._STORE.get() is None
    assert memo.multi_poly_genocchi((1,), "x", 4).values


def test_truncated_sub_series_build_the_same_families():
    # the store is filled at order 11 first, then serves order 8 by truncation
    memo = FamilyMemo()
    memo.genocchi_order(3, "x", 11)
    memo.poly_genocchi(2, "x", 11)
    assert memo.multi_poly_genocchi((1, 2), "x", 8) == families.multi_poly_genocchi_deg(
        (1, 2), "x", 8
    )
    assert memo.euler_order(2, 0, 8) == families.euler_deg_order(2, 0, 8)
    assert memo.poly_genocchi(-1, "x", 8) == families.poly_genocchi_deg(-1, "x", 8)


def test_chain_factors_are_served_by_truncation():
    ks = (1, -1, 2)
    memo = FamilyMemo()
    high = memo.chain_factors(ks, 9)
    low = memo.chain_factors(ks, 6)
    fresh = verify._chain_factors(ks, stirling1_deg_recurrence(6), verify._chain_products(3, 6))
    assert low == fresh == high[:7]
    assert verify._chain_products(3, 9)[:7] == verify._chain_products(3, 6)
