"""Differential tests: the CLI's JSON writers against ``json.dumps(indent=2)``.

``cli._render_json`` must give the bytes of ``json.dumps(obj, indent=2) + "\\n"``
on every tree of the JSON types the CLI emits: dicts with str keys, lists,
tuples (rendered as lists), str, int, bool and None.  Any other value raises
``TypeError`` instead of rendering.  ``cli._render_table`` writes compute's
table, whose records share one head, and must give the bytes of the same
call on ``{"meta": meta, "records": [...]}`` with each record built from its
``(n, k, term_texts)`` row.  ``json.dumps`` is the oracle here and appears
nowhere in the program.
"""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given
from hypothesis import strategies as st

from degenpoly.cli import _render_json, _render_table
from degenpoly.poly import render_terms

# quotes, backslashes, control and non-ASCII characters (a lone surrogate
# too), mixed with any other code point
CHARS = st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80é \ud800\U0001f600'),
    st.characters(exclude_categories=()),
)
TEXT = st.text(CHARS, max_size=8)
INTS = st.one_of(st.integers(-9, 9), st.integers(-(2**200), 2**200))
LEAVES = st.one_of(st.none(), st.booleans(), INTS, TEXT)
# term_texts output: (monomial, coefficient) string pairs
PAIRS = st.lists(st.tuples(TEXT, TEXT), max_size=5)


def _extend(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        PAIRS,
        # pair-shaped tuples that are not all strings, and pairs next to other tuples
        st.lists(st.tuples(children, children), max_size=3),
        st.lists(st.one_of(st.tuples(TEXT, TEXT), st.tuples(TEXT), st.tuples(TEXT, TEXT, TEXT))),
    )


TREES = st.recursive(LEAVES, _extend, max_leaves=24)


def oracle(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


@given(TREES)
@example({})
@example([])
@example(())
@example({"a": {}, "b": [], "c": [[], {}, ()], "d": [{"e": []}]})
@example([("x^2", "-3/2"), ("1", "7")])
@example({"value_terms": [("lambda*x", "1")], "n": 3})
@example([("a", 1), ("b", None)])
@example([["a", "b"], ("c", "d")])
@example([("a", "b"), ("c", "d", "e")])
@example([True, 1, False, 0, -1, 2**300, -(2**300)])
@example({"t": True, "one": 1, "f": False, "zero": 0, "none": None})
@example(["é \ud800\U0001f600", '"quoted" \\ back', "\x00\x01\t\n\x1f\x7f"])
def test_render_json_matches_json_dumps(obj):
    assert _render_json(obj) == oracle(obj)


# compute rows: (n, k or None, term_texts pairs); a coefficient text is never empty
ROWS = st.lists(
    st.tuples(
        st.integers(0, 2**70),
        st.one_of(st.none(), st.integers(0, 99)),
        st.lists(st.tuples(TEXT, st.text(CHARS, min_size=1, max_size=8)), max_size=4),
    ),
    max_size=4,
)
DICTS = st.dictionaries(TEXT, TREES, max_size=4)


def table_oracle(meta: dict, family_id: str, params: dict, rows: list) -> str:
    """The table as ``json.dumps`` writes it, each record built key by key."""
    records = []
    for n, k, texts in rows:
        record = {"family_id": family_id, "params": params, "n": n}
        if k is not None:
            record["k"] = k
        record["value"] = render_terms(texts)
        record["value_terms"] = texts
        records.append(record)
    return oracle({"meta": meta, "records": records})


@given(DICTS, TEXT, DICTS, ROWS)
@example({}, "", {}, [])
@example({"n_max": 1}, "Stirling1Deg", {"r": None}, [(0, 0, [("1", "1")]), (1, 0, []), (1, 1, [])])
@example({}, "GenocchiDeg", {"ks": [1, 2]}, [(0, None, []), (3, None, [("x^2", "-3/2"), ("1", "7")])])
def test_render_table_matches_json_dumps(meta, family_id, params, rows):
    assert _render_table(meta, family_id, params, rows) == table_oracle(
        meta, family_id, params, rows
    )


def test_shared_dict_renders_at_each_of_its_indents():
    # one dict object at several places and depths: each place renders it at
    # its own indent
    params = {"r": None, "ks": [1, -2], "lambda": "sym"}
    empty: dict = {}
    records = [{"params": params, "n": n, "more": {"params": params, "e": empty}} for n in range(3)]
    obj = {"meta": params, "records": records, "again": [params, [params]], "e": empty}
    assert _render_json(obj) == oracle(obj)


@pytest.mark.parametrize(
    "obj",
    [
        Fraction(1, 2),
        [Fraction(3, 4)],
        {"c": Fraction(-1, 3)},
        [("x", Fraction(1, 2))],
        [("x", "1"), ("y", Fraction(1, 2))],
    ],
)
def test_fraction_raises_type_error_like_json_dumps(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        _render_json(obj)


# json.dumps would render these; the writer refuses floats (no value the CLI
# emits is inexact) and non-str keys rather than guess at their text
@pytest.mark.parametrize(
    "obj", [0.5, [1.0], {"x": float("nan")}, [("x", 2.5)], {1: "a"}, {None: 1}, {("a",): 1}]
)
def test_floats_and_non_str_keys_raise_type_error(obj):
    with pytest.raises(TypeError):
        _render_json(obj)
