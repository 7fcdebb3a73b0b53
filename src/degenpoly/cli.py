"""Command-line front end.

Two subcommands:

* ``degenpoly compute`` builds one family (or the Stirling triangle, or a
  multiple polyexponential series) and emits a coefficient table as JSON
  (``{"meta": ..., "records": [...]}``) or CSV (flat ``n,monomial,coeff``
  projection, with an extra ``k`` column for the Stirling triangle).
* ``degenpoly verify`` runs identity checkers and emits a report as text or
  JSON.

Exit codes: 0 success / all cells passed, 1 at least one cell failed,
2 usage error, or an ``--out`` file or stdout that cannot be written.
Output is deterministic: identical invocations produce byte-identical
files.  Values are exact; symbolic lambda or argument is the flag token
``sym`` / ``sym-x``, numbers are ASCII ``p/q`` or integer text, and no
floating point appears anywhere.  A rational ``--lambda`` is applied
while building: the table is computed at that lambda, never built
symbolically and substituted.

The only environment variable read is ``DEGENPOLY_OUT_DIR``, an optional
directory prefix for relative ``--out`` paths.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str

from . import __version__, degen, families
from . import verify as verify_mod
from .poly import LAM, MultiPoly, render_terms, term_texts

# --family -> (module, builder name, builder inputs before n_max, family id).
# The family ids live only here; a built family carries its values alone.
# The builder is looked up on its module at call time.  Inputs: "arg" is
# --arg, "r" is --r, "ks" is --ks and "k" is its single index.
FAMILIES = {
    "genocchi": (families, "genocchi_deg", ("arg",), "GenocchiDeg"),
    "genocchi-r": (families, "genocchi_deg_order", ("r", "arg"), "GenocchiDegOrderR"),
    "euler-r": (families, "euler_deg_order", ("r", "arg"), "EulerDegOrderR"),
    "poly-genocchi": (families, "poly_genocchi_deg", ("k", "arg"), "PolyGenocchiDeg"),
    "multi-poly-genocchi": (
        families,
        "multi_poly_genocchi_deg",
        ("ks", "arg"),
        "MultiPolyGenocchiDeg",
    ),
    "stirling1": (degen, "stirling1_deg_recurrence", (), "Stirling1Deg"),
    "multi-polyexp": (degen, "deg_multi_polyexp", ("ks",), "MultiPolyExpDeg"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and reused by every :func:`main` call.

    It reads ``FAMILIES``, ``verify.IDENTITY_CHOICES``, ``__version__`` and the
    ``cmd_*`` functions when first built; ``build_parser.cache_clear()`` makes
    the next call read them again.
    """
    parser = argparse.ArgumentParser(
        prog="degenpoly",
        description="Exact degenerate Genocchi-type families: compute tables, verify identities.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute a family and emit a coefficient table")
    pc.add_argument("--family", required=True, choices=tuple(FAMILIES))
    pc.add_argument("--n-max", dest="n_max", type=_int, default=8)
    pc.add_argument("--r", type=_int, default=None, help="order (genocchi-r, euler-r)")
    pc.add_argument("--ks", default=None, help="comma-separated integer indices, e.g. 1,2")
    pc.add_argument("--lambda", dest="lam", default="sym", help="'sym' or a rational p/q")
    pc.add_argument(
        "--arg", default="sym-x", help="'sym-x' or a rational p/q (0 gives the numbers)"
    )
    pc.add_argument("--format", choices=("json", "csv"), default="json")
    pc.add_argument("--out", default="-", help="output path, or '-' for stdout")
    pc.set_defaults(func=cmd_compute)

    pv = sub.add_parser("verify", help="verify identities and emit a report")
    pv.add_argument("--identity", required=True, choices=verify_mod.IDENTITY_CHOICES)
    pv.add_argument("--n-max", dest="n_max", type=_int, default=8)
    pv.add_argument("--r", default=None, help="restrict the sweep: an int or a range like 1-3")
    pv.add_argument(
        "--ks", default="sweep", help="comma-separated indices for one k-list, or 'sweep'"
    )
    pv.add_argument("--format", choices=("json", "text"), default="text")
    pv.add_argument("--out", default="-", help="output path, or '-' for stdout")
    # test hook: corrupts the x-argument multi-poly-Genocchi families
    pv.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    pv.set_defaults(func=cmd_verify)
    return parser


# The one number grammar: int() text minus "_" and non-ASCII digits; p/q, no decimals.
_INT_RE = re.compile(r"\s*[+-]?[0-9]+\s*")
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


def _int(text: str, message: str = "") -> int:
    if not _INT_RE.fullmatch(text):
        raise ValueError(message)
    return int(text)


_int.__name__ = "int"  # argparse names the type of --n-max, --r: "invalid int value: '1_0'"


def _parse_rational(text: str, what: str) -> Fraction:
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"{what} must be an integer or p/q, got {text!r}")
    return Fraction(text)


def _parse_ks(text: str) -> tuple[int, ...]:
    message = f"--ks must be comma-separated integers, got {text!r}"
    return tuple(_int(part, message) for part in text.split(","))


def _parse_r_filter(text: str) -> range:
    # a range, not a set: membership costs the same at any width of --r
    message = f"--r must be an int or a range like 1-3, got {text!r}"
    head, dash, tail = text[1:].partition("-")  # a sign may lead the low end
    lo = _int(text[:1] + head, message)
    hi = _int(tail, message) if dash else lo
    if lo > hi:
        raise ValueError(message)
    return range(lo, hi + 1)


def _r_filter_text(r_filter: range | None) -> str | None:
    """The plain spelling of a parsed --r, read back by :func:`_parse_r_filter`."""
    if r_filter is None:
        return None
    lo, hi = r_filter[0], r_filter[-1]
    return str(lo) if lo == hi else f"{lo}-{hi}"


def _out_path(out: str) -> str | None:
    """Resolve --out; None means stdout."""
    if out in ("-", "stdout"):
        return None
    base = os.environ.get("DEGENPOLY_OUT_DIR")
    if base and not os.path.isabs(out):
        return os.path.join(base, out)
    return out


def _write_text(text: str, out: str) -> None:
    """Write to stdout, or replace the --out file whole; exit 2 if it cannot be written."""
    path = _out_path(out)
    if path is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # the interpreter flushes stdout again at exit: let that flush reach devnull
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            print(f"degenpoly: error: cannot write to stdout: {exc.strerror}", file=sys.stderr)
            raise SystemExit(2)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        print(f"degenpoly: error: cannot write --out {path}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(2)


def _render_json(payload: dict) -> str:
    """``payload`` as the standard ``json`` module writes it with ``indent=2``, plus a newline.

    With an indent the standard library leaves its C encoder for a
    pure-Python one that makes several generator steps per value.
    Takes dicts with str keys, lists, tuples, str, int, bool and None; any
    other value raises ``TypeError``.
    """
    return _json_text(payload, "") + "\n"


def _json_text(obj, indent: str) -> str:
    """One value of :func:`_render_json`; ``indent`` is the indent of its line."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sep.join(_encode_str(key) + ": " + _json_text(v, inner) for key, v in obj.items())
        return "{\n" + inner + items + "\n" + indent + "}"
    if not isinstance(obj, (list, tuple)):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not obj:
        return "[]"
    items = sep.join(_json_text(v, inner) for v in obj)
    return "[\n" + inner + items + "\n" + indent + "]"


def _render_table(meta: dict, family_id: str, params: dict, rows: list) -> str:
    """The JSON table of ``(n, k, term_texts(value))`` rows, as :func:`_render_json` writes it.

    Each record is ``family_id``, ``params``, ``n``, ``k`` when the row has
    one, ``value`` and ``value_terms``.  Every record opens alike, so that
    head is rendered once and each record joins its own parts onto it.
    """
    head = _json_text({"family_id": family_id, "params": params}, "    ")
    head = head[: -len("\n    }")] + ',\n      "n": '  # the record stays open for n
    pair = ",\n          "  # within a [monomial, coeff] pair
    between = "\n        ],\n        [\n          "  # from one pair to the next
    records = []
    for n, k, texts in rows:
        k_text = "" if k is None else f',\n      "k": {k}'
        value = _encode_str(render_terms(texts))
        if texts:
            strings = map(_encode_str, chain.from_iterable(texts))
            body = between.join(map(pair.join, zip(strings, strings)))
            terms = "[\n        [\n          " + body + "\n        ]\n      ]"
        else:
            terms = "[]"
        records.append(
            f'{head}{n}{k_text},\n      "value": {value},\n      "value_terms": {terms}\n    }}'
        )
    table = "[\n    " + ",\n    ".join(records) + "\n  ]" if records else "[]"
    return '{\n  "meta": ' + _json_text(meta, "  ") + ',\n  "records": ' + table + "\n}\n"


def _render_csv(rows: list[tuple[int, int | None, list]]) -> str:
    """CSV of ``(n, k, term_texts(value))`` rows, with a ``k`` column when rows carry one."""
    has_k = any(k is not None for _, k, _ in rows)
    lines = ["n,k,monomial,coeff" if has_k else "n,monomial,coeff"]
    for n, k, texts in rows:
        prefix = f"{n},{k}" if has_k else str(n)
        for monomial, coeff in texts or [("1", "0")]:
            lines.append(f"{prefix},{monomial},{coeff}")
    return "\n".join(lines) + "\n"


def _entries(built):
    """(n, k, value) for a family, a series, or (with k) the Stirling triangle."""
    if isinstance(built, tuple):
        return [(n, k, value) for n, row in enumerate(built) for k, value in enumerate(row)]
    values = built.values if isinstance(built, families.PolyFamily) else built.coeffs
    return [(n, None, value) for n, value in enumerate(values)]


def cmd_compute(args) -> int:
    family = args.family
    module, builder, inputs, family_id = FAMILIES[family]
    lam_value = None if args.lam == "sym" else _parse_rational(args.lam, "--lambda")
    lam = LAM if lam_value is None else MultiPoly.const(lam_value)
    ks = _parse_ks(args.ks) if args.ks is not None else None

    takes_ks = "ks" in inputs or "k" in inputs
    if takes_ks and ks is None:
        raise ValueError(f"--family {family} requires --ks")
    if not takes_ks and ks is not None:
        raise ValueError(f"--family {family} does not take --ks")
    if "k" in inputs and len(ks) != 1:
        raise ValueError(f"--family {family} takes exactly one index in --ks")
    if "r" in inputs:
        if args.r is None or args.r < 1:
            raise ValueError(f"--family {family} requires --r >= 1")
    elif args.r is not None:
        if ks is None or args.r != len(ks):
            raise ValueError(f"--r does not apply to --family {family} (or mismatches --ks)")
    if "arg" not in inputs and args.arg != "sym-x":
        raise ValueError(f"--family {family} does not take --arg")
    argument = "x" if args.arg == "sym-x" else _parse_rational(args.arg, "--arg")
    # the parsed numbers, so every accepted spelling of one value prints alike
    lam_text = "sym" if lam_value is None else str(lam_value)
    arg_text = "sym-x" if argument == "x" else str(argument)

    meta = {
        "version": __version__,
        "command": "compute",
        "family": family,
        "n_max": args.n_max,
        "r": args.r,
        "ks": list(ks) if ks else None,
        "lambda": lam_text,
        "arg": arg_text,
        "format": args.format,
    }
    params = {
        "r": args.r if "r" in inputs else (len(ks) if "ks" in inputs else None),
        "ks": list(ks) if ks else None,
        "argument": arg_text if "arg" in inputs else None,
        "lambda": lam_text,
    }
    given = {"arg": argument, "r": args.r, "k": ks and ks[0], "ks": ks}
    built = getattr(module, builder)(*(given[name] for name in inputs), args.n_max, lam=lam)
    rows = [(n, k, term_texts(value)) for n, k, value in _entries(built)]

    if args.format == "json":
        text = _render_table(meta, family_id, params, rows)
    else:
        text = _render_csv(rows)
    _write_text(text, args.out)
    return 0


def _report_json(report: verify_mod.VerifyReport) -> dict:
    """One report as JSON prints it: ``vacuous`` only when true, sides only on a failed cell."""
    cells = []
    for cell in report.cells:
        sides = {} if cell.passed else {"lhs": cell.lhs, "rhs": cell.rhs}
        cells.append({"params": dict(cell.params), "passed": cell.passed, **sides})
    return {
        "identity_id": report.identity_id,
        "params": dict(report.params),
        "passed": report.passed,
        **({"vacuous": True} if report.vacuous else {}),
        "cells": cells,
    }


def _render_report_text(reports: list[verify_mod.VerifyReport], passed: bool) -> str:
    lines = []
    for report in reports:
        params = " ".join(f"{key}={_fmt_param(value)}" for key, value in report.params)
        failed = [cell for cell in report.cells if not cell.passed]
        status = "FAIL" if failed else "VACUOUS" if report.vacuous else "PASS"
        suffix = f" failed={len(failed)}" if failed else ""
        lines.append(f"{status} {report.identity_id} {params} cells={len(report.cells)}{suffix}")
        for cell in failed:
            cell_params = " ".join(f"{key}={_fmt_param(value)}" for key, value in cell.params)
            lines.append(f"  cell {cell_params}")
            lines.append(f"    lhs: {cell.lhs}")
            lines.append(f"    rhs: {cell.rhs}")
    total = len(reports)
    if passed:
        lines.append(f"all {total} reports passed")
    else:
        bad = sum(1 for report in reports if not report.passed)
        lines.append(f"{bad} of {total} reports FAILED")
    return "\n".join(lines) + "\n"


def _fmt_param(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def cmd_verify(args) -> int:
    _, per_ks, _ = verify_mod.IDENTITIES.get(args.identity, ("", True, None))  # all: per k-list
    if not per_ks and (args.ks != "sweep" or args.r is not None):
        raise ValueError(f"--identity {args.identity} takes no --ks or --r")
    r_filter = _parse_r_filter(args.r) if args.r is not None else None
    if args.ks == "sweep":
        k_lists = None
        if r_filter is not None:
            k_lists = [ks for ks in verify_mod.default_k_lists() if len(ks) in r_filter]
            if not k_lists:
                raise ValueError("no sweep k-lists match --r")
    else:
        k_lists = [_parse_ks(args.ks)]
        if r_filter is not None and len(k_lists[0]) not in r_filter:
            raise ValueError("--r does not match the length of --ks")

    memo = verify_mod.FamilyMemo(corrupt=args.corrupt)
    reports = verify_mod.run_identity(args.identity, args.n_max, k_lists, memo)
    if not reports:
        # the default sweep skips k-lists longer than n_max; a run that
        # checked nothing must not read as a pass
        raise ValueError(f"no sweep k-list is short enough for --n-max {args.n_max}")
    if args.ks == "sweep" and all(report.vacuous for report in reports):
        # --r keeps sweep k-lists longer than n_max, whose reports check no cell
        message = f"every report is vacuous: no sweep k-list checks a cell at --n-max {args.n_max}"
        raise ValueError(message)
    passed = all(report.passed for report in reports)

    if args.format == "json":
        meta = {
            "version": __version__,
            "command": "verify",
            "identity": args.identity,
            "n_max": args.n_max,
            "r": _r_filter_text(r_filter),
            "ks": args.ks if args.ks == "sweep" else ",".join(map(str, k_lists[0])),
            "format": args.format,
        }
        payload = {
            "meta": meta,
            "passed": passed,
            "reports": [_report_json(report) for report in reports],
        }
        text = _render_json(payload)
    else:
        text = _render_report_text(reports, passed)
    _write_text(text, args.out)
    return 0 if passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n_max < 0:  # both subcommands take --n-max
        parser.error("--n-max must be nonnegative")
    try:
        return args.func(args)
    except ValueError as exc:  # each usage error past argparse's own
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
