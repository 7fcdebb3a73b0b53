"""Builds at a rational lambda against the symbolic build substituted afterwards.

Setting lambda = q maps Q[lambda, x, y] onto Q[x, y] and respects + and *.
Every build step is a ring operation, a rational scaling, a truncation, an
inversion of a series whose constant term is 2 at every lambda, or a
composition with an inner series of zero constant term, so a build with
``lam=q`` must equal the symbolic build followed by
``substitute("lambda", q)``.  That second route is how ``compute`` used to
apply ``--lambda``; it is kept here as the oracle.
"""

import itertools
import json
from fractions import Fraction

import pytest

import fraction_poly as ref
from degenpoly import cli
from degenpoly.cli import FAMILIES, main
from degenpoly.poly import MultiPoly, render_terms, term_texts

LAMBDAS = (Fraction(0), Fraction(1, 2), Fraction(-2), Fraction(3, 7))
N = 7

# the values each builder input takes; "k" is the single poly-Genocchi index
INPUTS = {
    "arg": ("x", Fraction(0), "x+y"),
    "r": (1, 3),
    "k": (-1, 2),
    "ks": ((1,), (2, -1), (0, 1, 2)),
}


def _values(built) -> list[MultiPoly]:
    return [value for _, _, value in cli._entries(built)]


@pytest.mark.parametrize("family", list(FAMILIES))
def test_build_at_lambda_equals_substituted_symbolic_build(family):
    module, builder, inputs, _ = FAMILIES[family]
    build = getattr(module, builder)
    for args in itertools.product(*(INPUTS[name] for name in inputs)):
        symbolic = _values(build(*args, N))
        assert any(value.degree("lambda") for value in symbolic)
        for q in LAMBDAS:
            expected = [value.substitute("lambda", q) for value in symbolic]
            at_q = _values(build(*args, N, lam=MultiPoly.const(q)))
            assert at_q == expected, (family, args, q)
            assert not any(value.degree("lambda") for value in at_q)


# one compute invocation per family, covering rational --arg and negative --ks
CLI_ARGS = {
    "genocchi": [],
    "genocchi-r": ["--r", "2"],
    "euler-r": ["--r", "3", "--arg", "1/3"],
    "poly-genocchi": ["--ks=-1"],
    "multi-poly-genocchi": ["--ks=2,-1", "--arg", "0"],
    "stirling1": [],
    "multi-polyexp": ["--ks=1,2"],
}


def test_cli_args_cover_every_family():
    assert set(CLI_ARGS) == set(FAMILIES)


def _compute(capsys, family: str, lam: str, fmt: str) -> str:
    argv = ["compute", "--family", family, "--n-max", "6", f"--lambda={lam}", "--format", fmt]
    assert main(argv + CLI_ARGS[family]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("family", list(FAMILIES))
def test_compute_at_lambda_renders_the_substituted_symbolic_table(family, capsys):
    symbolic = json.loads(_compute(capsys, family, "sym", "json"))
    for lam in ("0", "1/2", "-2", "3/7"):
        payload = json.loads(json.dumps(symbolic))
        payload["meta"]["lambda"] = lam
        for record in payload["records"]:
            record["params"]["lambda"] = lam
            symbolic_value = MultiPoly(ref.parse_poly(record["value"]).terms)
            value = symbolic_value.substitute("lambda", Fraction(lam))
            texts = term_texts(value)
            record["value"] = render_terms(texts)
            record["value_terms"] = [list(pair) for pair in texts]
        assert _compute(capsys, family, lam, "json") == json.dumps(payload, indent=2) + "\n"
        rows = [(r["n"], r.get("k"), r["value_terms"]) for r in payload["records"]]
        assert _compute(capsys, family, lam, "csv") == cli._render_csv(rows)
