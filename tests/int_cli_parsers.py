"""The CLI's flag parsers from before it had one ASCII number grammar.

These are the bodies of ``_parse_rational``, ``_parse_ks`` and
``_parse_r_filter`` from when the CLI read integers with bare ``int()`` and
rationals with ``\\d``, kept unchanged so that ``tests/test_number_grammar.py``
can check the new parsers against them.  Both ``int()`` and ``\\d`` read
PEP 515 ``_`` separators or any Unicode decimal digit; the new grammar
rejects exactly those and keeps everything else.  Each takes the parser
only to call ``parser.error``: pass :data:`REJECTING_PARSER`.
"""

import re
from fractions import Fraction


class _RejectingParser:
    """Stands in for argparse: ``error`` raises ``ValueError``, as the new parsers do."""

    def error(self, message: str):
        raise ValueError(message)


REJECTING_PARSER = _RejectingParser()

_RATIONAL_RE = re.compile(r"[+-]?\d+(/[1-9]\d*)?$")


def _parse_rational(text: str, what: str, parser) -> Fraction:
    # integer or p/q text only; no decimal notation anywhere
    if not _RATIONAL_RE.fullmatch(text):
        parser.error(f"{what} must be an integer or p/q, got {text!r}")
    return Fraction(text)


def _parse_ks(text: str, parser) -> tuple[int, ...]:
    try:
        ks = tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        parser.error(f"--ks must be comma-separated integers, got {text!r}")
    return ks


def _parse_r_filter(text: str, parser) -> range:
    # a range, not a set: membership costs the same at any width of --r
    try:
        if "-" in text[1:]:
            split_at = text.index("-", 1)
            lo, hi = int(text[:split_at]), int(text[split_at + 1 :])
            if lo > hi:
                raise ValueError
            return range(lo, hi + 1)
        r = int(text)
        return range(r, r + 1)
    except ValueError:
        parser.error(f"--r must be an int or a range like 1-3, got {text!r}")
