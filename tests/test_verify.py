"""Identity checkers: pass on clean families, fail loudly on corrupted ones."""

import itertools
import json
from fractions import Fraction
from functools import partial

import pytest

import fraction_poly as ref
from chain_enumeration import chain_products
from fraction_chain_factors import chain_factors as fraction_chain_factors
from degenpoly import cli, degen, families, verify
from degenpoly.degen import deg_multi_polyexp, stirling1_deg_recurrence
from degenpoly.poly import ZERO, MultiPoly
from degenpoly.series import TruncatedSeries
from degenpoly.verify import (
    FamilyMemo,
    _binomial_convolutions,
    _chain_factors,
    _chain_products,
    _classical_genocchi_numbers,
    check_basics,
    check_corollary2,
    check_eq15,
    check_eq19,
    check_prop4,
    check_reduction,
    check_theorem1,
    check_theorem3,
    check_vanishing,
    default_k_lists,
    run_identity,
)

K_LISTS = [(1,), (-2,), (1, 2), (0, -1), (1, 1, 1), (-1, 1, 2)]


@pytest.fixture(scope="module")
def memo():
    return FamilyMemo()


@pytest.mark.parametrize("ks", K_LISTS)
def test_theorem1_passes(ks, memo):
    report = check_theorem1(ks, 8, memo)
    assert report.identity_id == "Thm1"
    assert report.passed
    # cells cover n = r..n_max (vanishing violations would add extras)
    assert len(report.cells) == 8 - len(ks) + 1
    assert report.cells[0].params == (("n", len(ks)),)


@pytest.mark.parametrize("ks", K_LISTS)
def test_corollary2_passes(ks, memo):
    report = check_corollary2(ks, 8, memo)
    assert report.identity_id == "Cor2"
    assert report.passed
    assert len(report.cells) == 8 - len(ks) + 1


@pytest.mark.parametrize("ks", K_LISTS)
def test_theorem3_passes(ks, memo):
    report = check_theorem3(ks, 8, memo)
    assert report.identity_id == "Thm3"
    assert report.passed


@pytest.mark.parametrize("ks", K_LISTS)
def test_prop4_passes(ks, memo):
    report = check_prop4(ks, 8, memo)
    assert report.passed
    assert len(report.cells) == 9


@pytest.mark.parametrize("ks", K_LISTS)
def test_eq15_passes(ks, memo):
    assert check_eq15(ks, 8, memo).passed


@pytest.mark.parametrize("ks", K_LISTS)
def test_vanishing_passes(ks, memo):
    report = check_vanishing(ks, 8, memo)
    assert report.passed
    assert len(report.cells) == len(ks)


def test_eq19_passes(memo):
    assert check_eq19(8, 3, memo).passed


def test_reduction_passes(memo):
    assert check_reduction(8, memo).passed


def test_basics_pass(memo):
    reports = check_basics(8, memo)
    assert [r.identity_id for r in reports] == ["Eq05", "InverseLogExp", "LambdaZeroClassical"]
    assert all(r.passed for r in reports)


def test_edge_small_n_max():
    # identities stay well defined when n_max < r
    memo = FamilyMemo()
    assert check_prop4((1,), 0, memo).passed
    assert len(check_prop4((1,), 0, memo).cells) == 1
    assert check_theorem1((1, 2), 1, memo).passed  # vanishing clause only
    assert check_corollary2((1, 2), 1, memo).cells == ()
    assert check_theorem3((1, 2), 1, memo).cells == ()
    assert len(check_vanishing((1, 2, 1), 1, memo).cells) == 2


def test_checkers_validate_ks():
    with pytest.raises(ValueError):
        check_theorem1((), 5)


def test_corrupt_memo_fails_dependent_identities():
    memo = FamilyMemo(corrupt=True)
    assert not check_theorem1((1,), 5, memo).passed
    assert not check_corollary2((1, 2), 5, memo).passed
    assert not check_eq15((1,), 5, memo).passed
    assert not check_prop4((2,), 5, memo).passed
    # the corrupted slot is the top value, so the vanishing cells stay clean
    assert check_vanishing((1, 2), 5, memo).passed


def test_corrupt_failure_carries_both_sides():
    memo = FamilyMemo(corrupt=True)
    report = check_eq15((1,), 4, memo)
    bad = [cell for cell in report.cells if not cell.passed]
    assert len(bad) == 1
    cell = bad[0]
    assert cell.params == (("n", 4),)
    assert cell.lhs is not None and cell.rhs is not None
    assert cell.lhs != cell.rhs
    d = cli._report_json(report)["cells"][report.cells.index(cell)]
    assert d["passed"] is False and "lhs" in d and "rhs" in d


def test_failed_cell_sides_read_back_as_the_compared_values():
    # a failed cell's text is all its reader gets: read back by the oracle's
    # parser, lhs is the corrupted g_4 and rhs the g_4 of a clean memo
    corrupt = FamilyMemo(corrupt=True)
    report = check_theorem1((1, 2), 4, corrupt)
    [cell] = [cell for cell in report.cells if not cell.passed]
    assert cell.params == (("n", 4),)
    lhs, rhs = (MultiPoly(ref.parse_poly(text).terms) for text in (cell.lhs, cell.rhs))
    assert lhs == corrupt.multi_poly_genocchi((1, 2), "x", 4).values[4]
    assert rhs == FamilyMemo().multi_poly_genocchi((1, 2), "x", 4).values[4]


def test_passing_cell_omits_sides():
    report = check_vanishing((1,), 3)
    cell = report.cells[0]
    assert cell.passed and cell.lhs is None and cell.rhs is None
    assert "lhs" not in cli._report_json(report)["cells"][0]


def test_report_to_dict_shape():
    report = check_theorem1((1, 2), 4, FamilyMemo())
    d = json.loads(cli._render_json(cli._report_json(report)))
    assert d["identity_id"] == "Thm1"
    assert d["params"] == {"ks": [1, 2], "n_max": 4}
    assert d["passed"] is True
    assert len(d["cells"]) == len(report.cells)
    assert d["cells"][0]["params"] == {"n": 2}


def test_memo_caches_and_is_shared(monkeypatch):
    built = _count_multi_builds(monkeypatch)
    tables = []
    original = verify.stirling1_deg_recurrence

    def counting(n_max):
        tables.append(n_max)
        return original(n_max)

    monkeypatch.setattr(verify, "stirling1_deg_recurrence", counting)
    memo = FamilyMemo()
    a = memo.multi_poly_genocchi((1, 2), "x", 6)
    b = memo.multi_poly_genocchi([1, 2], "x", 6)
    assert a == b
    assert len(built) == 1
    assert memo.stirling(6) == memo.stirling(6)
    assert tables == [6]


def test_classical_genocchi_oracle_frozen():
    assert _classical_genocchi_numbers(8) == [
        Fraction(0),
        Fraction(1),
        Fraction(-1),
        Fraction(0),
        Fraction(1),
        Fraction(0),
        Fraction(-3),
        Fraction(0),
        Fraction(17),
    ]


def test_default_k_lists_shape():
    lists = default_k_lists()
    assert len(lists) == 29
    assert len(set(lists)) == 29
    assert all(1 <= len(ks) <= 3 for ks in lists)
    assert all(-2 <= k <= 2 for ks in lists for k in ks)
    # exhaustive grids for r = 1 and r = 2
    assert {ks for ks in lists if len(ks) == 1} == {(k,) for k in range(-2, 3)}
    assert {ks for ks in lists if len(ks) == 2} == {
        (a, b) for a in range(-1, 3) for b in range(-1, 3)
    }
    assert sum(1 for ks in lists if len(ks) == 3) == 8


def test_run_identity_single():
    reports = run_identity("thm1", 6, [(1,), (2, 1)])
    assert [r.identity_id for r in reports] == ["Thm1", "Thm1"]
    assert all(r.passed for r in reports)


def test_run_identity_all_composition():
    reports = run_identity("all", 4, [(1,), (1, 2)])
    ids = [r.identity_id for r in reports]
    # six per-ks identities over two k-lists, then the fixed reports
    assert ids[:12] == (
        ["Thm1"] * 2 + ["Cor2"] * 2 + ["Thm3"] * 2 + ["Prop4"] * 2 + ["Eq15"] * 2 + ["Vanishing"] * 2
    )
    assert ids[12:] == ["Eq19", "ReductionR1K1", "Eq05", "InverseLogExp", "LambdaZeroClassical"]
    assert all(r.passed for r in reports)


def test_run_identity_default_sweep_skips_oversized_r():
    reports = run_identity("vanishing", 2)
    assert all(len(dict(r.params)["ks"]) <= 2 for r in reports)
    assert len(reports) == 21  # 5 singles + 16 pairs


def test_run_identity_rejects_unknown():
    with pytest.raises(ValueError):
        run_identity("nope", 4)


def test_run_identity_explicit_infeasible_list_is_honored():
    # explicit ks longer than n_max still runs; the vanishing clause holds,
    # so no cells at all are emitted and the report passes vacuously
    reports = run_identity("thm1", 1, [(1, 2, 1)])
    assert len(reports) == 1
    assert reports[0].cells == ()
    assert reports[0].passed


def test_memo_keeps_coinciding_families_apart():
    memo = FamilyMemo()
    assert memo.poly_genocchi(2, "x", 6) is not memo.multi_poly_genocchi((2,), "x", 6)


def test_sweep_serves_genocchi_from_the_order_one_entry():
    memo = FamilyMemo()
    run_identity("all", 8, memo=memo)
    heads = {key[0] for key in memo._store._entries if isinstance(key, tuple)}
    assert families.genocchi_deg_order in heads
    assert families.genocchi_deg not in heads
    assert memo.genocchi("x", 8).values == memo.genocchi_order(1, "x", 8).values


def test_corrupt_memo_fails_every_multi_vs_poly_reduction():
    # only the multi-poly-Genocchi entries are corrupted, so each ks=[k]
    # comparison must fail; a shared cache entry would make it pass
    report = check_reduction(4, FamilyMemo(corrupt=True))
    failed_ks = {
        dict(cell.params)["k"]
        for cell in report.cells
        if not cell.passed and dict(cell.params)["case"] == "ks=[k] vs poly"
    }
    assert failed_ks == {-2, -1, 0, 1, 2}


def test_binomial_convolutions_need_lists_that_reach_n_max():
    a = [MultiPoly.const(c) for c in (1, 2, 3)]
    b = [MultiPoly.const(c) for c in (5, 7)]
    # n = 1: C(1,0) a[0] b[1] + C(1,1) a[1] b[0]
    assert _binomial_convolutions(a, b, 1) == [MultiPoly.const(5), MultiPoly.const(7 + 2 * 5)]
    # b[2] is missing, not zero
    with pytest.raises(IndexError):
        _binomial_convolutions(a, b, 2)


def test_a_longer_right_side_is_not_cut(monkeypatch):
    chain_convolutions = FamilyMemo.chain_convolutions

    def one_more(self, *args):
        return [*chain_convolutions(self, *args), ZERO]

    monkeypatch.setattr(FamilyMemo, "chain_convolutions", one_more)
    # zip(strict=True) names the longer side
    with pytest.raises(ValueError, match="argument 2 is longer than argument 1"):
        check_theorem1((1, 2), 4)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_chain_factors_match_the_fraction_weight_oracle(r):
    # every list of r indices in -2..3, a superset of the sweep's lists of length r
    k_lists = list(itertools.product(range(-2, 4), repeat=r))
    assert {ks for ks in default_k_lists() if len(ks) == r} <= set(k_lists)
    # the oracle takes whole chain products from the enumeration in tests/,
    # the package its products below the top and (1)_{m,lambda} apart
    stirling = stirling1_deg_recurrence(8)
    whole = chain_products(r, 8)
    below, ones = _chain_products(r, 8), degen.deg_falling_factorials(1, 8)
    for ks in k_lists:
        expected = fraction_chain_factors(ks, stirling, whole)
        assert _chain_factors(ks, stirling, below, ones) == expected, ks


def test_chain_factors_take_an_index_list():
    memo = FamilyMemo()
    assert memo.chain_factors([1, 2], 5) == memo.chain_factors((1, 2), 5)


def test_chain_factors_reject_an_empty_index_list():
    with pytest.raises(ValueError, match="need at least one polyexponential index"):
        FamilyMemo().chain_factors((), 5)


def test_chain_factors_reject_a_bool_index():
    memo = FamilyMemo()
    memo.chain_factors((1, 2), 4)
    with pytest.raises(TypeError):
        memo.chain_factors((True, 2), 4)


def _count_multi_builds(monkeypatch) -> list:
    """Record every multi-poly-Genocchi build the memo makes from now on."""
    built = []
    original = families.multi_poly_genocchi_deg

    def counting(ks, argument, n_max):
        built.append((ks, argument, n_max))
        return original(ks, argument, n_max)

    monkeypatch.setattr(families, "multi_poly_genocchi_deg", counting)
    return built


def test_memo_serves_lower_orders_from_the_largest_build(monkeypatch):
    fresh = families.multi_poly_genocchi_deg((1, 2), "x", 4)
    built = _count_multi_builds(monkeypatch)
    memo = FamilyMemo()
    memo.multi_poly_genocchi((1, 2), "x", 6)
    low = memo.multi_poly_genocchi((1, 2), "x", 4)
    assert low == fresh
    assert len(built) == 1
    memo.multi_poly_genocchi((1, 2), "x", 7)
    assert [n for _, _, n in built] == [6, 7]
    memo.stirling(6)
    assert memo.stirling(4) == stirling1_deg_recurrence(4)


def test_full_sweep_builds_each_multi_family_once(monkeypatch):
    # Prop4 is capped at n_max 8 inside the sweep; at n_max 9 its requests
    # are served from the n_max 9 builds instead of building again
    requested = []
    original = FamilyMemo.multi_poly_genocchi

    def recording(self, ks, argument, n_max):
        requested.append((tuple(ks), str(argument), n_max))
        return original(self, ks, argument, n_max)

    monkeypatch.setattr(FamilyMemo, "multi_poly_genocchi", recording)
    built = _count_multi_builds(monkeypatch)
    reports = run_identity("all", 9)
    assert all(report.passed for report in reports)
    assert len(built) == len({(ks, arg) for ks, arg, _ in requested})
    assert len(built) < len(set(requested))


def test_corrupt_bump_lands_on_the_truncated_top():
    ks = (1, 2)
    memo = FamilyMemo(corrupt=True)
    check_theorem1(ks, 9, memo)  # builds the x family at n_max 9
    reused = check_prop4(ks, 8, memo)
    alone = check_prop4(ks, 8, FamilyMemo(corrupt=True))
    failed = [cell.params for cell in reused.cells if not cell.passed]
    assert failed == [cell.params for cell in alone.cells if not cell.passed]
    assert failed == [(("n", 8),)]


def test_full_sweep_builds_each_genocchi_order_family_once(monkeypatch):
    # Cor2 asks at n_max + r, the order Eq19 needs, so Eq19 is served by
    # truncation instead of building the family again
    built = []
    original = families.genocchi_deg_order

    def counting(r, argument, n_max):
        built.append((r, argument, n_max))
        return original(r, argument, n_max)

    monkeypatch.setattr(families, "genocchi_deg_order", counting)
    reports = run_identity("all", 8)
    assert all(report.passed for report in reports)
    at_x = [(r, argument) for r, argument, _ in built if argument == "x"]
    assert sorted(at_x) == [(1, "x"), (2, "x"), (3, "x")]


@pytest.mark.parametrize("ks", [(1.5, 2), [1.9, 2.2], ("2",), "12", (True, 1)])
@pytest.mark.parametrize(
    "build",
    [
        lambda ks: deg_multi_polyexp(ks, 3),
        lambda ks: families.multi_poly_genocchi_deg(ks, "x", 4),
        lambda ks: FamilyMemo().multi_poly_genocchi(ks, "x", 4),
        lambda ks: check_theorem1(ks, 6),
    ],
    ids=["deg_multi_polyexp", "multi_poly_genocchi_deg", "memo", "check_theorem1"],
)
def test_non_int_indices_raise_type_error(build, ks):
    # each used to be truncated by int(): (1.5, 2) built the (1, 2) family
    with pytest.raises(TypeError):
        build(ks)


@pytest.mark.parametrize("argument", [True, False])
@pytest.mark.parametrize(
    "build",
    [
        lambda argument: families.genocchi_deg(argument, 4),
        lambda argument: families.multi_poly_genocchi_deg((1, 2), argument, 4),
        lambda argument: FamilyMemo().genocchi(argument, 4),
        lambda argument: FamilyMemo().multi_poly_genocchi((1, 2), argument, 4),
        lambda k: families.poly_genocchi_deg(k, "x", 4),
        lambda r: families.genocchi_deg_order(r, "x", 4),
        lambda n_max: families.euler_deg_order(2, "x", n_max),
        lambda k: FamilyMemo().poly_genocchi(k, "x", 4),
        lambda r: FamilyMemo().genocchi_order(r, "x", 4),
        lambda n_max: FamilyMemo().euler_order(2, "x", n_max),
        lambda weight: degen.deg_exp(weight, 4),
        lambda base: degen.deg_falling_factorials(base, 4),
        lambda base: FamilyMemo().falling_factorials(base, 4),
        lambda k: degen.deg_polyexp(k, 4),
        lambda k: degen.polyexp_modified(k, 4),
        lambda n: degen.classical_falling_factorial(n),
        lambda n_max: degen.stirling1_deg_recurrence(n_max),
        lambda n_max: check_corollary2((1, 2), n_max),
        lambda n_max: check_theorem3((1, 2), n_max),
        lambda n_max: run_identity("thm1", n_max),
        lambda r_max: check_eq19(4, r_max),
        lambda order: degen.deg_exp("x", order),
        lambda order: degen.deg_log(order),
        lambda order: degen.deg_polyexp(1, order),
        lambda order: degen.polyexp_modified(1, order),
        lambda order: deg_multi_polyexp((1, 2), order),
    ],
    ids=[
        "genocchi_deg",
        "multi_poly_genocchi_deg",
        "memo.genocchi",
        "memo.multi_poly_genocchi",
        "poly_genocchi_deg.k",
        "genocchi_deg_order.r",
        "euler_deg_order.n_max",
        "memo.poly_genocchi.k",
        "memo.genocchi_order.r",
        "memo.euler_order.n_max",
        "deg_exp.weight",
        "deg_falling_factorials.base",
        "memo.falling_factorials.base",
        "deg_polyexp.k",
        "polyexp_modified.k",
        "classical_falling_factorial.n",
        "stirling1_deg_recurrence.n_max",
        "check_corollary2.n_max",
        "check_theorem3.n_max",
        "run_identity.n_max",
        "check_eq19.r_max",
        "deg_exp.order",
        "deg_log.order",
        "deg_polyexp.order",
        "polyexp_modified.order",
        "deg_multi_polyexp.order",
    ],
)
def test_bool_argument_raises_type_error(build, argument):
    # no reader takes True as 1 or False as 0: not an argument, a weight or
    # base, an index k, an order r, a series order, r_max or an n_max
    with pytest.raises(TypeError):
        build(argument)


def test_multi_polyexp_names_its_own_order():
    # the order used to be read only by deg_falling_factorials, as "n_max"
    with pytest.raises(TypeError, match="order must be an int"):
        deg_multi_polyexp((1, 2), True)
    with pytest.raises(ValueError, match="order must be nonnegative"):
        deg_multi_polyexp((1, 2), -1)


def test_eq19_with_no_order_raises_value_error():
    # r_max = 0 would check no order at all and pass as a vacuous report
    with pytest.raises(ValueError, match="r_max must be at least 1"):
        check_eq19(4, 0)


@pytest.mark.parametrize(
    "accessor, stored, bad",
    [("euler_order", 1, 1.0), ("genocchi_order", 1, True), ("poly_genocchi", 1, True)],
)
def test_memo_rejects_a_bool_or_float_input_whether_or_not_it_holds_the_int(accessor, stored, bad):
    # 1.0 == True == 1 with equal hashes, so a key holding r or k as given
    # would serve the int's entry to them once it is stored
    fresh, warm = FamilyMemo(), FamilyMemo()
    getattr(warm, accessor)(stored, "x", 4)
    for memo in (fresh, warm):
        with pytest.raises(TypeError):
            getattr(memo, accessor)(bad, "x", 4)


def test_memo_rejects_a_bool_order_after_a_build():
    # True < 6, so a store that did not read the order would serve its prefix
    memo = FamilyMemo()
    memo.euler_order(2, "x", 6)
    memo.falling_factorials("x", 6)
    memo.stirling(6)
    for call in (
        lambda: memo.euler_order(2, "x", True),
        lambda: memo.falling_factorials("x", True),
        lambda: memo.stirling(True),
    ):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("bad, error", [(-1, ValueError), (2.0, TypeError)], ids=["neg", "float"])
@pytest.mark.parametrize(
    "accessor, args",
    [
        ("genocchi_order", (1, "x")),
        ("euler_order", (1, "x")),
        ("multi_poly_genocchi", ((1, 2), "x")),
        ("stirling", ()),
        ("falling_factorials", ("x",)),
        ("chain_factors", ((1, 2),)),
        ("chain_convolutions", ((1, 2), [ZERO])),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_memo_reads_a_bad_n_max_as_n_max(accessor, args, bad, error):
    # the store used to be the only reader, and named it "order"
    with pytest.raises(error, match="^n_max must"):
        getattr(FamilyMemo(), accessor)(*args, bad)


def test_basics_build_each_base_series_once(monkeypatch):
    built, logs, powered = [], [], []
    for name in ("deg_exp", "deg_polyexp", "polyexp_modified", "deg_log"):

        def counting(*args, original=getattr(verify, name), name=name):
            built.append((name, *args))
            out = original(*args)
            if name == "deg_log":
                logs.append(out)
            return out

        monkeypatch.setattr(verify, name, counting)

    def counting_powers(self, count, original=TruncatedSeries.powers):
        powered.append(self)
        return original(self, count)

    monkeypatch.setattr(TruncatedSeries, "powers", counting_powers)
    assert all(report.passed for report in check_basics(4))
    assert len(built) == len(set(built))
    assert {("deg_exp", 1, 4), ("deg_polyexp", 1, 4), ("deg_log", 4)} <= set(built)
    assert {("polyexp_modified", k, 4) for k in (-1, 0, 1, 2)} <= set(built)
    # both compositions over log_lambda(1+t) share one list of its powers
    [log] = logs
    assert sum(series is log for series in powered) == 1


KS = (1, 2)
NEGATIVE_ORDER_CALLS = {
    "deg_falling_factorials": lambda n: degen.deg_falling_factorials("x", n),
    "deg_exp": lambda n: degen.deg_exp("x", n),
    "deg_log": degen.deg_log,
    "stirling1_deg_recurrence": degen.stirling1_deg_recurrence,
    "classical_falling_factorial": degen.classical_falling_factorial,
    "polyexp_modified": lambda n: degen.polyexp_modified(1, n),
    "deg_polyexp": lambda n: degen.deg_polyexp(1, n),
    "deg_multi_polyexp": lambda n: degen.deg_multi_polyexp(KS, n),
    "genocchi_deg": lambda n: families.genocchi_deg("x", n),
    "genocchi_deg_order": lambda n: families.genocchi_deg_order(2, "x", n),
    "euler_deg_order": lambda n: families.euler_deg_order(2, "x", n),
    "poly_genocchi_deg": lambda n: families.poly_genocchi_deg(2, "x", n),
    "multi_poly_genocchi_deg": lambda n: families.multi_poly_genocchi_deg(KS, "x", n),
    "memo.multi_poly_genocchi": lambda n: FamilyMemo().multi_poly_genocchi(KS, "x", n),
    "memo.poly_genocchi": lambda n: FamilyMemo().poly_genocchi(2, "x", n),
    "memo.genocchi": lambda n: FamilyMemo().genocchi("x", n),
    "memo.genocchi_order": lambda n: FamilyMemo().genocchi_order(2, "x", n),
    "memo.euler_order": lambda n: FamilyMemo().euler_order(2, "x", n),
    "memo.stirling": lambda n: FamilyMemo().stirling(n),
    "memo.falling_factorials": lambda n: FamilyMemo().falling_factorials("x", n),
    "memo.chain_factors": lambda n: FamilyMemo().chain_factors(KS, n),
    **{
        f"check.{name}": lambda n, check=check: check(KS, n)
        for name, check in verify.PER_KS_CHECKS.items()
    },
    "check_eq19": check_eq19,
    "check_reduction": check_reduction,
    "check_basics": check_basics,
    **{
        f"run_identity.{identity}{lists}": lambda n, i=identity, k=k_lists: run_identity(i, n, k)
        for identity in verify.IDENTITY_CHOICES
        for lists, k_lists in ((".sweep", None), (".explicit", [KS]))
    },
}


@pytest.mark.parametrize("call", NEGATIVE_ORDER_CALLS.values(), ids=list(NEGATIVE_ORDER_CALLS))
def test_negative_order_is_rejected(call):
    # a plain message, not one from deep inside a build ("cannot truncate ...")
    with pytest.raises(ValueError, match="nonnegative|n >= 0"):
        call(-1)


N_MAX_CHECKERS = {
    **{name: partial(check, KS) for name, check in verify.PER_KS_CHECKS.items()},
    "eq19": check_eq19,
    "reduction": check_reduction,
    "basics": check_basics,
}


@pytest.mark.parametrize("check", N_MAX_CHECKERS.values(), ids=list(N_MAX_CHECKERS))
def test_checkers_name_n_max(check):
    # not the "order" of the store that the first build would read it as
    with pytest.raises(ValueError, match="^n_max must be nonnegative"):
        check(-1)
    with pytest.raises(TypeError, match="^n_max must be an int"):
        check(True)
