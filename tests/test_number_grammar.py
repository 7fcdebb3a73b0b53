"""One ASCII number grammar for every CLI flag.

An integer flag is what ``int()`` reads minus PEP 515 ``_`` separators and
non-ASCII digits; a rational flag is ``[+-]?[0-9]+(/[1-9][0-9]*)?``.  The
parsers are checked against the ones they replaced (``int_cli_parsers``),
and whole argv lists run in-process through ``cli.main``.
"""

import ast
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

import int_cli_parsers as old
from degenpoly import cli

AR_ONE, AR_THREE = "\u0661", "\u0663"  # Arabic-Indic digits, which int() reads
SRC_FILES = sorted((Path(__file__).resolve().parent.parent / "src" / "degenpoly").glob("*.py"))


def outcome(parse, text):
    """``("ok", value)``, or ``("rejected", message)`` for the parser's usage error."""
    try:
        return "ok", parse(text)
    except ValueError as exc:
        return "rejected", str(exc)


# each flag's parser now, its parser before, and its usage error for a text
PARSERS = {
    "--n-max": (cli._int, int, None),
    "--ks": (
        cli._parse_ks,
        lambda text: old._parse_ks(text, old.REJECTING_PARSER),
        "--ks must be comma-separated integers, got {!r}",
    ),
    "verify --r": (
        cli._parse_r_filter,
        lambda text: old._parse_r_filter(text, old.REJECTING_PARSER),
        "--r must be an int or a range like 1-3, got {!r}",
    ),
    "--lambda": (
        lambda text: cli._parse_rational(text, "--lambda"),
        lambda text: old._parse_rational(text, "--lambda", old.REJECTING_PARSER),
        "--lambda must be an integer or p/q, got {!r}",
    ),
}


def check_against_the_old_parser(flag, text):
    new_parse, old_parse, message = PARSERS[flag]
    new, old_result = outcome(new_parse, text), outcome(old_parse, text)
    if "_" in text or AR_THREE in text:
        assert new[0] == "rejected", (flag, text, new)
    else:
        assert new[0] == old_result[0], (flag, text, new, old_result)
        if new[0] == "ok":
            assert new == old_result, (flag, text)
    if new[0] == "rejected" and message is not None:
        assert new[1] == message.format(text)


CORNERS = [
    "", " ", "3", " 3 ", "+3", "-3", " -3", "- 3", "03", "1_0", AR_THREE, "1,2", " 1, 2", "-1,+2",
    "1,", ",", "1-3", " 1 - 2 ", "3-1", "-3-5", "-3--1", "1--2", "1-", "-", "2/4", "-2/4", "1/0",
    "1/02", "+1/2", "1/-2", "1 /2", "x", "1x",
]


@pytest.mark.parametrize("flag", PARSERS)
@pytest.mark.parametrize("text", CORNERS)
def test_corner_texts_against_the_old_parsers(flag, text):
    check_against_the_old_parser(flag, text)


TEXTS = st.text(st.sampled_from("0123456789+-/,_ x" + AR_THREE), max_size=10)


@pytest.mark.parametrize("flag", PARSERS)
@settings(max_examples=600)
@given(text=TEXTS)
def test_the_grammar_is_the_old_one_minus_underscores_and_non_ascii_digits(flag, text):
    check_against_the_old_parser(flag, text)


def run_main(capsys, argv):
    """``(exit code, stdout, stderr)`` of one in-process ``cli.main`` call."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


COMPUTE = ["compute", "--family"]
JSON = ["--format", "json"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (COMPUTE + ["multi-polyexp", "--ks", "1_0"], "--ks must be comma-separated integers"),
        (COMPUTE + ["multi-polyexp", "--ks", AR_ONE + ",2"], "--ks must be comma-separated"),
        (COMPUTE + ["genocchi", "--n-max", "1_0"], "argument --n-max: invalid int value: '1_0'"),
        (COMPUTE + ["genocchi", "--n-max", AR_THREE], "argument --n-max: invalid int value"),
        (COMPUTE + ["genocchi-r", "--r", "1_0"], "argument --r: invalid int value: '1_0'"),
        (["verify", "--identity", "thm1", "--r", AR_ONE], "--r must be an int or a range"),
        (COMPUTE + ["genocchi", "--lambda", AR_THREE], "--lambda must be an integer or p/q"),
        (COMPUTE + ["genocchi", "--arg", AR_THREE], "--arg must be an integer or p/q"),
    ],
)
def test_underscores_and_non_ascii_digits_exit_2(capsys, argv, message):
    code, out, err = run_main(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: ")
    assert message in err.splitlines()[-1]


@pytest.mark.parametrize(
    "argv, plain",
    [
        (COMPUTE + ["genocchi", "--n-max", " 3 "], COMPUTE + ["genocchi", "--n-max", "3"]),
        (COMPUTE + ["genocchi", "--n-max", "+3"], COMPUTE + ["genocchi", "--n-max", "3"]),
        (
            COMPUTE + ["multi-poly-genocchi", "--ks", " 1, 2", "--n-max", "4"],
            COMPUTE + ["multi-poly-genocchi", "--ks", "1,2", "--n-max", "4"],
        ),
        (
            COMPUTE + ["multi-poly-genocchi", "--ks=-1,+2", "--n-max", "4"],
            COMPUTE + ["multi-poly-genocchi", "--ks=-1,2", "--n-max", "4"],
        ),
        (
            ["verify", "--identity", "thm1", "--r", " 1 - 2 ", "--n-max", "4"],
            ["verify", "--identity", "thm1", "--r", "1-2", "--n-max", "4"],
        ),
        (
            COMPUTE + ["genocchi", "--lambda", "2/4", "--n-max", "4", "--format", "csv"],
            COMPUTE + ["genocchi", "--lambda", "1/2", "--n-max", "4", "--format", "csv"],
        ),
        # JSON meta and params print the parsed numbers, not the flag text
        (
            ["verify", "--identity", "thm1", "--r", " 1 - 2 ", "--n-max", "4", *JSON],
            ["verify", "--identity", "thm1", "--r", "1-2", "--n-max", "4", *JSON],
        ),
        (
            ["verify", "--identity", "eq15", "--r", "+2", "--n-max", "3", *JSON],
            ["verify", "--identity", "eq15", "--r", "2", "--n-max", "3", *JSON],
        ),
        (
            ["verify", "--identity", "thm1", "--ks", " 1, +2", "--r", "2 -2", *JSON],
            ["verify", "--identity", "thm1", "--ks", "1,2", "--r", "2", *JSON],
        ),
        (
            COMPUTE + ["genocchi", "--lambda", "2/4", "--arg=-04/6", "--n-max", "4", *JSON],
            COMPUTE + ["genocchi", "--lambda", "1/2", "--arg=-2/3", "--n-max", "4", *JSON],
        ),
        (
            COMPUTE + ["euler-r", "--r", "2", "--lambda=+3", "--arg=-0", "--n-max", "3", *JSON],
            COMPUTE + ["euler-r", "--r", "2", "--lambda", "3", "--arg", "0", "--n-max", "3", *JSON],
        ),
        (
            COMPUTE + ["multi-polyexp", "--ks", "2", "--lambda=-6/3", "--n-max", "3", *JSON],
            COMPUTE + ["multi-polyexp", "--ks", "2", "--lambda=-2", "--n-max", "3", *JSON],
        ),
    ],
)
def test_accepted_spellings_print_the_plain_forms_bytes(capsys, argv, plain):
    expected = run_main(capsys, plain)
    assert expected[0] == 0 and expected[1]
    assert run_main(capsys, argv) == expected


def string_constants(path):
    nodes = ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    return [n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def test_no_source_string_uses_the_unicode_digit_class():
    # \d matches every Unicode decimal digit; the package's grammars say [0-9]
    offenders = [
        (path.name, text) for path in SRC_FILES for text in string_constants(path) if "\\d" in text
    ]
    assert offenders == []
    # the scan reached the grammars it guards
    grammars = [text for path in SRC_FILES for text in string_constants(path) if "[0-9]" in text]
    assert cli._INT_RE.pattern in grammars
    assert cli._RATIONAL_RE.pattern in grammars
