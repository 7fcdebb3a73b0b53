"""Command-line front end.

Two subcommands:

* ``degenpoly compute`` builds one family (or the Stirling triangle, or a
  multiple polyexponential series) and emits a coefficient table as JSON
  (``{"meta": ..., "records": [...]}``) or CSV (flat ``n,monomial,coeff``
  projection, with an extra ``k`` column for the Stirling triangle).
* ``degenpoly verify`` runs identity checkers and emits a report as text or
  JSON.

Exit codes: 0 success / all cells passed, 1 at least one cell failed,
2 usage error or an ``--out`` file that cannot be written.  Output is
deterministic: identical invocations produce byte-identical files.  Values
are exact; symbolic lambda or argument is the flag token ``sym`` /
``sym-x``, rationals are ``p/q`` or integer text, and no floating point
appears anywhere.  A rational ``--lambda`` is applied while building: the
table is computed at that lambda, never built symbolically and substituted.

The only environment variable read is ``DEGENPOLY_OUT_DIR``, an optional
directory prefix for relative ``--out`` paths.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str

from . import __version__, degen, families
from . import verify as verify_mod
from .degen import StirlingTable
from .poly import LAM, MultiPoly, render_terms, term_texts

# --family -> (module, builder name, builder inputs before n_max, family id).
# The builder is looked up on its module at call time.  Inputs: "arg" is
# --arg, "r" is --r, "ks" is --ks and "k" is its single index.
FAMILIES = {
    "genocchi": (families, "genocchi_deg", ("arg",), families.GENOCCHI),
    "genocchi-r": (families, "genocchi_deg_order", ("r", "arg"), families.GENOCCHI_ORDER),
    "euler-r": (families, "euler_deg_order", ("r", "arg"), families.EULER_ORDER),
    "poly-genocchi": (families, "poly_genocchi_deg", ("k", "arg"), families.POLY_GENOCCHI),
    "multi-poly-genocchi": (
        families,
        "multi_poly_genocchi_deg",
        ("ks", "arg"),
        families.MULTI_POLY_GENOCCHI,
    ),
    "stirling1": (degen, "stirling1_deg_recurrence", (), "Stirling1Deg"),
    "multi-polyexp": (degen, "deg_multi_polyexp", ("ks",), "MultiPolyExpDeg"),
}


def build_parser() -> argparse.ArgumentParser:
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
    pc.add_argument("--n-max", dest="n_max", type=int, default=8)
    pc.add_argument("--r", type=int, default=None, help="order (genocchi-r, euler-r)")
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
    pv.add_argument("--n-max", dest="n_max", type=int, default=8)
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


_RATIONAL_RE = re.compile(r"[+-]?\d+(/[1-9]\d*)?$")


def _parse_rational(text: str, what: str, parser: argparse.ArgumentParser) -> Fraction:
    # integer or p/q text only; no decimal notation anywhere
    if not _RATIONAL_RE.fullmatch(text):
        parser.error(f"{what} must be an integer or p/q, got {text!r}")
    return Fraction(text)


def _parse_ks(text: str, parser: argparse.ArgumentParser) -> tuple[int, ...]:
    try:
        ks = tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        parser.error(f"--ks must be comma-separated integers, got {text!r}")
    if not ks:
        parser.error("--ks must not be empty")
    return ks


def _parse_r_filter(text: str, parser: argparse.ArgumentParser) -> set[int]:
    try:
        if "-" in text[1:]:
            split_at = text.index("-", 1)
            lo, hi = int(text[:split_at]), int(text[split_at + 1 :])
            if lo > hi:
                raise ValueError
            return set(range(lo, hi + 1))
        return {int(text)}
    except ValueError:
        parser.error(f"--r must be an int or a range like 1-3, got {text!r}")


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
        sys.stdout.write(text)
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
    if set(map(type, obj)) == {tuple} and set(map(len, obj)) == {2}:
        # string pairs (term_texts output) render in one join, no call per pair
        flat = list(chain.from_iterable(obj))
        if set(map(type, flat)) == {str}:
            deeper = inner + "  "
            strings = map(_encode_str, flat)
            pairs = map((",\n" + deeper).join, zip(strings, strings))
            body = ("\n" + inner + "]" + sep + "[\n" + deeper).join(pairs)
            return "[\n" + inner + "[\n" + deeper + body + "\n" + inner + "]\n" + indent + "]"
    return "[\n" + inner + sep.join(_json_text(v, inner) for v in obj) + "\n" + indent + "]"


def _poly_record(
    family_id: str, params: dict, n: int, value: MultiPoly, k: int | None, with_value: bool
) -> dict:
    """One table row; ``with_value`` adds the rendered ``value`` that only JSON prints."""
    record: dict = {"family_id": family_id, "params": params, "n": n}
    if k is not None:
        record["k"] = k
    texts = term_texts(value)
    if with_value:
        record["value"] = render_terms(texts)
    record["value_terms"] = texts
    return record


def _render_csv(records: list[dict]) -> str:
    has_k = any("k" in record for record in records)
    lines = ["n,k,monomial,coeff" if has_k else "n,monomial,coeff"]
    for record in records:
        prefix = f"{record['n']},{record['k']}" if has_k else str(record["n"])
        terms = record["value_terms"] or [["1", "0"]]
        for monomial, coeff in terms:
            lines.append(f"{prefix},{monomial},{coeff}")
    return "\n".join(lines) + "\n"


def _entries(built, n_max: int):
    """(n, k, value) for a family, a series, or (with k) the Stirling triangle."""
    if isinstance(built, StirlingTable):
        return [(n, k, built.value(n, k)) for n in range(n_max + 1) for k in range(n + 1)]
    values = built.values if isinstance(built, families.PolyFamily) else built.coeffs
    return [(n, None, value) for n, value in enumerate(values)]


def cmd_compute(args, parser: argparse.ArgumentParser) -> int:
    if args.n_max < 0:
        parser.error("--n-max must be nonnegative")
    family = args.family
    module, builder, inputs, family_id = FAMILIES[family]
    lam = (
        LAM if args.lam == "sym" else MultiPoly.const(_parse_rational(args.lam, "--lambda", parser))
    )
    ks = _parse_ks(args.ks, parser) if args.ks is not None else None

    takes_ks = "ks" in inputs or "k" in inputs
    if takes_ks and ks is None:
        parser.error(f"--family {family} requires --ks")
    if not takes_ks and ks is not None:
        parser.error(f"--family {family} does not take --ks")
    if "k" in inputs and len(ks) != 1:
        parser.error(f"--family {family} takes exactly one index in --ks")
    if "r" in inputs:
        if args.r is None or args.r < 1:
            parser.error(f"--family {family} requires --r >= 1")
    elif args.r is not None:
        if ks is None or args.r != len(ks):
            parser.error(f"--r does not apply to --family {family} (or mismatches --ks)")
    if "arg" not in inputs and args.arg != "sym-x":
        parser.error(f"--family {family} does not take --arg")
    argument = "x" if args.arg == "sym-x" else _parse_rational(args.arg, "--arg", parser)

    meta = {
        "version": __version__,
        "command": "compute",
        "family": family,
        "n_max": args.n_max,
        "r": args.r,
        "ks": list(ks) if ks else None,
        "lambda": args.lam,
        "arg": args.arg,
        "format": args.format,
    }
    params = {
        "r": args.r if "r" in inputs else (len(ks) if "ks" in inputs else None),
        "ks": list(ks) if ks else None,
        "argument": args.arg if "arg" in inputs else None,
        "lambda": args.lam,
    }
    given = {"arg": argument, "r": args.r, "k": ks and ks[0], "ks": ks}
    try:
        built = getattr(module, builder)(*(given[name] for name in inputs), args.n_max, lam=lam)
    except ValueError as exc:
        parser.error(str(exc))
    with_value = args.format == "json"
    records = [
        _poly_record(family_id, params, n, value, k, with_value)
        for n, k, value in _entries(built, args.n_max)
    ]

    if args.format == "json":
        text = _render_json({"meta": meta, "records": records})
    else:
        text = _render_csv(records)
    _write_text(text, args.out)
    return 0


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


def cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    if args.n_max < 0:
        parser.error("--n-max must be nonnegative")
    if args.identity == "basics" and (args.ks != "sweep" or args.r is not None):
        parser.error("--identity basics takes no --ks or --r")
    r_filter = _parse_r_filter(args.r, parser) if args.r is not None else None
    if args.ks == "sweep":
        k_lists = None
        if r_filter is not None:
            k_lists = [ks for ks in verify_mod.default_k_lists() if len(ks) in r_filter]
            if not k_lists:
                parser.error("no sweep k-lists match --r")
    else:
        k_lists = [_parse_ks(args.ks, parser)]
        if r_filter is not None and len(k_lists[0]) not in r_filter:
            parser.error("--r does not match the length of --ks")

    memo = verify_mod.FamilyMemo(corrupt=args.corrupt)
    try:
        reports = verify_mod.run_identity(args.identity, args.n_max, k_lists, memo)
    except ValueError as exc:
        parser.error(str(exc))
    if not reports:
        # the default sweep skips k-lists longer than n_max; a run that
        # checked nothing must not read as a pass
        parser.error(f"no sweep k-list is short enough for --n-max {args.n_max}")
    passed = all(report.passed for report in reports)

    if args.format == "json":
        meta = {
            "version": __version__,
            "command": "verify",
            "identity": args.identity,
            "n_max": args.n_max,
            "r": args.r,
            "ks": args.ks,
            "format": args.format,
        }
        payload = {
            "meta": meta,
            "passed": passed,
            "reports": [report.to_dict() for report in reports],
        }
        text = _render_json(payload)
    else:
        text = _render_report_text(reports, passed)
    _write_text(text, args.out)
    return 0 if passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    raise SystemExit(main())
