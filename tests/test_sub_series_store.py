"""The memo's store of shared sub-series: what it shares, and with whom not.

A :class:`FamilyMemo` builds each shared piece once, at the largest order
asked so far, and serves lower orders by truncation.  The store belongs to
that memo only and is active only while the memo's own builder calls run:
a second memo, or a builder called outside any memo, builds everything
again.
"""

from collections import Counter
from fractions import Fraction

import pytest

from degenpoly import families, verify
from degenpoly.degen import StirlingTable, stirling1_deg_recurrence
from degenpoly.families import PolyFamily, SubSeriesStore
from degenpoly.poly import MultiPoly
from degenpoly.series import TruncatedSeries
from degenpoly.verify import FamilyMemo, default_k_lists, run_identity


def _count_calls(monkeypatch, owner, name) -> list:
    """Record the arguments of every call of ``owner.name`` from now on."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

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


def test_a_store_is_active_only_while_it_builds():
    outer, inner = SubSeriesStore(), SubSeriesStore()
    seen = []

    def build_inner(n):
        seen.append(("inner", families._STORE.get()))
        return n

    def build_outer(n):
        seen.append(("outer", families._STORE.get()))
        inner.get("k", n, build_inner, min)
        seen.append(("outer again", families._STORE.get()))
        return n

    assert outer.get("k", 3, build_outer, min) == 3
    assert seen == [("outer", outer), ("inner", inner), ("outer again", outer)]
    assert families._STORE.get() is None

    def fail(n):
        assert families._STORE.get() is outer
        raise RuntimeError("build failed")

    with pytest.raises(RuntimeError):
        outer.get("other", 2, fail, min)
    assert families._STORE.get() is None


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
    kernels = _count_calls(monkeypatch, families, "deg_multi_polyexp")
    exps = _count_calls(monkeypatch, families, "deg_exp")
    families.multi_poly_genocchi_deg((1, 2), "x", 4)
    families.multi_poly_genocchi_deg((1, 2), "x", 4)
    assert len(inversions) == 2
    assert len(logs) == 2
    assert len(kernels) == 2
    assert [call for call in exps if call[0] == "x"] == [("x", 4), ("x", 4)]
    assert families._STORE.get() is None


def test_full_sweep_builds_each_shared_piece_once(monkeypatch):
    factors = _count_calls(monkeypatch, verify, "_chain_factors")
    products = _count_calls(monkeypatch, verify, "_chain_products")
    inversions = _count_calls(monkeypatch, TruncatedSeries, "invert")
    logs = _count_calls(monkeypatch, families, "deg_log")
    kernels = _count_calls(monkeypatch, families, "deg_multi_polyexp")
    exps = _count_calls(monkeypatch, families, "deg_exp")
    falling = _count_calls(monkeypatch, verify, "deg_falling_factorials")
    reports = run_identity("all", 8)
    assert all(report.passed for report in reports)
    assert len(factors) == len(default_k_lists()) == 29
    # one multi-poly kernel per k-list, shared by the x, x+y, 0 and r families
    assert sorted(ks for ks, _ in kernels) == sorted(default_k_lists())
    assert len(kernels) == 29
    assert sorted(r for r, _ in products) == [1, 2, 3]
    # e_lambda(t)+1 once, at order 11 for the order-3 Genocchi build of
    # Cor2/Eq19 that the sweep asks for first; every other build is served
    # by truncation
    assert len(inversions) == 1
    assert logs == [(8,)]
    # e_lambda^arg(t) once per argument: 1 at order 11 inside that inversion,
    # x at 11 for the same build, x+y for Prop4 and r = 1, 2, 3 for Thm3;
    # the number families at argument 0 multiply by no e_lambda^0(t) = 1
    assert len(exps) == 6
    assert set(exps) == {(1, 11), ("x", 11), ("x+y", 8), (1, 8), (2, 8), (3, 8)}
    assert all(weight != 0 for weight, _ in exps)
    # (x)_{m,lambda} and (y)_{m,lambda} once per sweep, for Eq15 and Prop4;
    # base 1 once per r for the chain products
    assert Counter(falling) == {(1, 8): 3, ("x", 8): 1, ("y", 8): 1}


def test_full_sweep_builds_no_order_beyond_what_it_reads(monkeypatch):
    # a k-list longer than n_max gives a vacuous Cor2 that reads no order-r
    # Genocchi family, so the sweep must not build one for it
    builds = _count_calls(monkeypatch, families, "genocchi_deg_order")
    run_identity("all", 3, k_lists=[(1, 2), (1, 2, 3, 4, 5)])
    assert max(r for r, _, _ in builds) == verify.EQ19_R_MAX
    assert builds[0] == (verify.EQ19_R_MAX, "x", 3 + verify.EQ19_R_MAX)


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


@pytest.mark.parametrize("ks", [(2,), (1, -1), (2, 1, 1)])
def test_truncated_kernel_builds_the_same_families(ks, monkeypatch):
    # the kernel is built at order 12 for the x family, then cut to order 8
    # for every other argument
    memo = FamilyMemo()
    kernels = _count_calls(monkeypatch, families, "deg_multi_polyexp")
    polyexps = _count_calls(monkeypatch, families, "deg_polyexp")
    memo.multi_poly_genocchi(ks, "x", 12)
    for arg in ("x+y", Fraction(0), Fraction(len(ks))):
        assert memo.multi_poly_genocchi(ks, arg, 8) == families.multi_poly_genocchi_deg(ks, arg, 8)
    assert kernels[0] == (ks, 12)
    assert len(kernels) == 4  # the three fresh builds outside the memo
    # ReductionR1K1 checks poly_genocchi(k) against multi((k,)), so the
    # poly-Genocchi build must make its own kernel, not read the multi one
    memo.poly_genocchi(ks[0], "x", 8)
    assert polyexps == [(ks[0], 8)]
    assert len(kernels) == 4


def test_chain_factors_are_served_by_truncation():
    ks = (1, -1, 2)
    memo = FamilyMemo()
    high = memo.chain_factors(ks, 9)
    low = memo.chain_factors(ks, 6)
    fresh = verify._chain_factors(ks, stirling1_deg_recurrence(6), verify._chain_products(3, 6))
    assert low == fresh == high[:7]
    assert verify._chain_products(3, 9)[:7] == verify._chain_products(3, 6)


def test_numeric_lambda_build_leaves_the_store_alone():
    # a store's keys carry no lambda: a build at a given lambda must neither
    # read the symbolic entries (order 6, below them) nor replace them (order 12)
    memo = FamilyMemo()
    memo.multi_poly_genocchi((1, 2), "x", 9)
    memo.euler_order(2, "x", 9)
    before = dict(memo._store._entries)
    assert ("multi kernel", (1, 2)) in before
    half = Fraction(1, 2)
    built = {}
    token = families._STORE.set(memo._store)
    try:
        for n in (6, 12):
            built[n] = families.multi_poly_genocchi_deg((1, 2), "x", n, lam=MultiPoly.const(half))
            families.euler_deg_order(2, "x", n, lam=MultiPoly.const(half))
        families.multi_poly_genocchi_deg((2, 1), "x", 6, lam=MultiPoly.const(half))
    finally:
        families._STORE.reset(token)
    for n, at_half in built.items():
        symbolic = families.multi_poly_genocchi_deg((1, 2), "x", n).values
        assert at_half.values == tuple(v.substitute("lambda", half) for v in symbolic)
    after = memo._store._entries
    assert ("multi kernel", (2, 1)) not in after
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_memo_builds_everything_symbolically():
    memo = FamilyMemo()
    run_identity("all", 4, memo=memo)
    entries = [value for _, value in memo._store._entries.values()]
    tables = [e for e in entries if isinstance(e, (PolyFamily, StirlingTable))]
    assert len(tables) > 20
    for table in tables:
        values = table.values if isinstance(table, PolyFamily) else sum(table.entries, ())
        assert any(value.degree("lambda") for value in values), table
    for series in (e for e in entries if isinstance(e, TruncatedSeries)):
        assert any(coeff.degree("lambda") for coeff in series.coeffs)


def test_lambda_zero_checks_substitute_symbolic_builds(monkeypatch):
    # LambdaZeroClassical stays a route of its own: build at symbolic lambda,
    # then set lambda = 0, never build at lambda = 0 directly
    seen = []
    original = verify._at_lambda0

    def spy(values):
        values = list(values)
        seen.append(values)
        return original(values)

    monkeypatch.setattr(verify, "_at_lambda0", spy)
    (report,) = [r for r in verify.check_basics(5) if r.identity_id == "LambdaZeroClassical"]
    assert report.passed
    assert len(seen) == 6
    assert all(any(value.degree("lambda") for value in values) for values in seen)
