"""Every public entry point, the inputs it reads, and one list of bad values per kind.

Each kind of input has one reader: ``read_count`` in ``poly`` reads every
count, ``index_tuple``, ``read_argument`` and ``read_lam`` in ``degen`` the
rest.  ``ENTRIES`` lists each public entry point with its input slots, and a
slot gives its kind, a valid value and, when it differs from the parameter,
the name its error message uses.  ``KINDS`` gives each kind's bad values with
the error and the message prefix each raises.  One test changes one slot at a
time and checks the error type, the message prefix and that no
``sum_of_products`` call ran before the error; memo entries run again on a
memo that already holds the entry of the int the bad value equals.  A new
public entry point is listed here, and nowhere else.
"""

import inspect
import re
import sys
from fractions import Fraction
from functools import partial

import pytest

from degenpoly import degen, families, poly, verify
from degenpoly.poly import LAM, ONE, X, MultiPoly
from degenpoly.series import TruncatedSeries
from degenpoly.verify import FamilyMemo

COUNT, R, K, KS, ARGUMENT, WEIGHT, LAMBDA = "count", "r", "k", "ks", "argument", "weight", "lam"

# per kind: the ValueError and TypeError message prefixes ({} is the slot's
# name), the bad values of the right type (a ValueError), and those of
# another type (a TypeError), each with the valid value it equals and hashes
# as (True and 1.0 as 1), or None
NOT_INT, NOT_INTS = "{} must be an int", "polyexponential indices must be ints"
NOT_NUMBER, NOT_LAM = "expected an int or a Fraction", "lam must be LAM or a constant MultiPoly"
KINDS = {
    COUNT: ("{} must be nonnegative", NOT_INT, [-1], [(True, 1), (False, 0), (1.0, 1), (2.0, 2)]),
    R: ("{} must be at least 1", NOT_INT, [0], [(True, 1), (False, None), (1.0, 1), (2.0, 2)]),
    K: (None, NOT_INTS, [], [(True, 1), (False, 0), (2.0, 2), ("2", None)]),
    KS: (
        "need at least one polyexponential index",
        NOT_INTS,
        [()],
        [((1.5, 2), None), ([1.9, 2.2], None), (("2",), None), ("12", None), ((True, 1), (1, 1))],
    ),
    ARGUMENT: (
        "expected one of ('x', 'x+y')", NOT_NUMBER, ["z"], [(True, 1), (False, 0), (0.1, None)]
    ),
    WEIGHT: (
        "expected one of ('x', 'y', 'x+y')", NOT_NUMBER, ["z"], [(True, 1), (False, 0), (0.5, None)]
    ),
    LAMBDA: (NOT_LAM, NOT_LAM, [X, LAM + 1], [(2, None), (Fraction(1, 2), None)]),
}


def _bad(kind: str):
    """``(bad value, error, message prefix, the valid value it equals or None)`` per bad value."""
    out_of_range, not_int, right_type, wrong_type = KINDS[kind]
    return [(value, ValueError, out_of_range, None) for value in right_type] + [
        (value, TypeError, not_int, twin) for value, twin in wrong_type
    ]


# valid slots; a memo entry's n_max is at least every count twin above, so
# the valid build already holds their prefixes
N, RR, KK, KKS = (COUNT, 3), (R, 2), (K, 2), (KS, (1, 2))
A, W, L = (ARGUMENT, "x"), (WEIGHT, "x"), (LAMBDA, LAM)
SERIES = TruncatedSeries(2, [1, 2, 3])
# entry id: (callable, {parameter: (kind, valid value[, name in the message])});
# a "memo." entry's callable takes the memo first
ENTRIES = {
    "deg_falling_factorials": (degen.deg_falling_factorials, {"base": W, "n_max": N, "lam": L}),
    "classical_falling_factorial": (degen.classical_falling_factorial, {"n": N}),
    "deg_exp": (degen.deg_exp, {"weight": W, "order": N, "lam": L}),
    "deg_log": (degen.deg_log, {"order": N, "lam": L}),
    "stirling1_deg_recurrence": (degen.stirling1_deg_recurrence, {"n_max": N, "lam": L}),
    "polyexp_modified": (degen.polyexp_modified, {"k": KK, "order": N}),
    "deg_polyexp": (degen.deg_polyexp, {"k": KK, "order": N, "lam": L}),
    "deg_multi_polyexp": (degen.deg_multi_polyexp, {"ks": KKS, "order": N, "lam": L}),
    "genocchi_deg": (families.genocchi_deg, {"argument": A, "n_max": N, "lam": L}),
    **{
        name: (getattr(families, name), {"r": RR, "argument": A, "n_max": N, "lam": L})
        for name in ("genocchi_deg_order", "euler_deg_order")
    },
    "poly_genocchi_deg": (
        families.poly_genocchi_deg, {"k": KK, "argument": A, "n_max": N, "lam": L}
    ),
    "multi_poly_genocchi_deg": (
        families.multi_poly_genocchi_deg, {"ks": KKS, "argument": A, "n_max": N, "lam": L}
    ),
    "TruncatedSeries": (
        lambda order: TruncatedSeries(order, [1, 2]), {"order": (COUNT, 1, "series order")}
    ),
    "TruncatedSeries.constant": (
        lambda order: TruncatedSeries.constant(1, order), {"order": (COUNT, 2, "series order")}
    ),
    "TruncatedSeries.t": (TruncatedSeries.t, {"order": (COUNT, 2, "series order")}),
    "TruncatedSeries.egf_coeff": (SERIES.egf_coeff, {"n": (COUNT, 2, "coefficient index")}),
    "TruncatedSeries.powers": (SERIES.powers, {"count": (COUNT, 2, "power count")}),
    "TruncatedSeries.__pow__": (lambda r: SERIES**r, {"r": (COUNT, 2, "series exponent")}),
    "MultiPoly.__pow__": (lambda n: X**n, {"n": (COUNT, 2, "polynomial exponent")}),
    "MultiPoly.coeff_x": (X.coeff_x, {"power": (COUNT, 1, "x exponent")}),
    "memo.multi_poly_genocchi": (
        FamilyMemo.multi_poly_genocchi, {"ks": KKS, "argument": A, "n_max": N}
    ),
    "memo.poly_genocchi": (FamilyMemo.poly_genocchi, {"k": KK, "argument": A, "n_max": N}),
    "memo.genocchi": (FamilyMemo.genocchi, {"argument": A, "n_max": N}),
    "memo.genocchi_order": (FamilyMemo.genocchi_order, {"r": RR, "argument": A, "n_max": N}),
    "memo.euler_order": (FamilyMemo.euler_order, {"r": RR, "argument": A, "n_max": N}),
    "memo.stirling": (FamilyMemo.stirling, {"n_max": N}),
    "memo.falling_factorials": (FamilyMemo.falling_factorials, {"base": W, "n_max": N}),
    "memo.chain_factors": (FamilyMemo.chain_factors, {"ks": KKS, "n_max": N}),
    "memo.chain_convolutions": (
        lambda memo, ks, n_max: memo.chain_convolutions(ks, [ONE] * 4, n_max),
        {"ks": KKS, "n_max": N},
    ),
    **{
        name: (getattr(verify, name), {"ks": KKS, "n_max": N} if per_ks else {"n_max": N})
        for name, per_ks, _ in verify.IDENTITIES.values()
    },
    # Eq19 reads its r_max too
    "check_eq19": (verify.check_eq19, {"n_max": N, "r_max": RR}),
    # k_lists holds a good list, then the slot's
    **{
        f"run_identity.{identity}": (
            lambda n_max, k_lists, identity=identity: verify.run_identity(
                identity, n_max, [(1,), k_lists]
            ),
            {"n_max": N, "k_lists": KKS},
        )
        for identity in verify.IDENTITY_CHOICES
    },
    **{
        f"run_identity.{identity}.sweep": (partial(verify.run_identity, identity), {"n_max": N})
        for identity in verify.IDENTITY_CHOICES
    },
}


def _cells():
    for entry, (_, slots) in ENTRIES.items():
        for slot, (kind, *_) in slots.items():
            for bad in _bad(kind):
                for warm in (False, True) if entry.startswith("memo.") else (False,):
                    label = f"{entry}-{slot}={bad[0]!r}" + ("-warm" if warm else "")
                    yield pytest.param(entry, slot, bad, warm, id=label)


def _call(entry: str):
    """The entry's callable, on a fresh memo for a memo entry, and its valid inputs."""
    call, slots = ENTRIES[entry]
    if entry.startswith("memo."):
        call = partial(call, FamilyMemo())
    return call, {param: valid for param, (_, valid, *_) in slots.items()}


@pytest.mark.parametrize("entry, slot, bad, warm", _cells())
def test_a_bad_input_is_rejected_before_any_work(entry, slot, bad, warm, monkeypatch):
    value, error, message, twin = bad
    call, inputs = _call(entry)
    if warm:
        # a key that held the value as given would serve the int's entry
        call(**inputs)
        if twin is not None:
            call(**inputs | {slot: twin})
    products = []
    original = poly.sum_of_products

    def spy(terms):
        products.append(terms)
        return original(terms)

    for module in [mod for name, mod in sys.modules.items() if name.startswith("degenpoly")]:
        if vars(module).get("sum_of_products") is original:
            monkeypatch.setattr(module, "sum_of_products", spy)
    _, _, *named = ENTRIES[entry][1][slot]
    with pytest.raises(error, match="^" + re.escape(message.format(*named or [slot]))):
        call(**inputs | {slot: value})
    assert products == []


# every entry once on its valid inputs, and each that reads lam once more at a constant
VALID_RUNS = [pytest.param(entry, {}, id=entry) for entry in ENTRIES] + [
    pytest.param(entry, {"lam": MultiPoly.const(Fraction(1, 2))}, id=f"{entry}-lam=1/2")
    for entry, (_, slots) in ENTRIES.items()
    if "lam" in slots
]


@pytest.mark.parametrize("entry, changed", VALID_RUNS)
def test_each_entry_runs_on_its_valid_inputs(entry, changed):
    call, inputs = _call(entry)
    call(**inputs | changed)


def test_every_public_entry_point_is_listed():
    public = {
        name
        for module in (degen, families)
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and name[0] != "_"
    } - {"index_tuple", "read_argument", "read_lam"}
    public |= {f"memo.{name}" for name, fn in vars(FamilyMemo).items() if name[0] != "_"}
    public |= {name for name in vars(verify) if name.startswith("check_")}
    public |= {f"run_identity.{identity}" for identity in verify.IDENTITY_CHOICES}
    assert public <= set(ENTRIES)
