"""Running one op in-process and judging its output.

An op fails on an exception, a non-zero exit, a failing or vacuous verify
report, a wrong cell count, or compute output whose bytes do not match the
digest recorded for that argv at the seed commit.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import VERIFY_CELLS, VERIFY_REPORTS

MANIFEST_PATH = Path(__file__).with_name("digests.json")
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


class ProgramMissing(RuntimeError):
    pass


def load_cli():
    """Import ``degenpoly.cli`` from the ``src`` tree next to the benchmark.

    An installed copy elsewhere does not count: the benchmark measures the
    checkout it sits in.
    """
    if not (SRC_DIR / "degenpoly" / "cli.py").is_file():
        raise ProgramMissing(f"no degenpoly sources under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    cli = importlib.import_module("degenpoly.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC_DIR:
        raise ProgramMissing(f"degenpoly was imported from {cli.__file__}, not {SRC_DIR}")
    return cli


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_manifest() -> dict[str, str]:
    with open(MANIFEST_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Outcome:
    """What one call of ``cli.main`` did; ``seconds`` covers only that call."""

    code: int | None
    out: str
    err: str
    seconds: float
    error: str | None = None


def run_op(main, argv: list[str]) -> Outcome:
    """Call ``main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return Outcome(code, out.getvalue(), err.getvalue(), seconds, error)


@dataclass
class Verdict:
    """Gate result; ``records`` and ``cells`` count the op's checked output.

    verify: records are reports and cells are identity cells.  compute:
    records are the output records, and each record is one cell of the
    table, so the two counts agree.
    """

    ok: bool
    reason: str = ""
    records: int = 0
    cells: int = 0


def _fail(reason: str) -> Verdict:
    return Verdict(False, reason)


def check_verify(outcome: Outcome) -> Verdict:
    if outcome.code != 0:
        return _fail(f"exit code {outcome.code}")
    try:
        payload = json.loads(outcome.out)
        reports = payload["reports"]
        cells = [report["cells"] for report in reports]
    except (ValueError, KeyError, TypeError) as exc:
        return _fail(f"unreadable verify report: {exc!r}")
    if payload.get("passed") is not True:
        return _fail("report says not passed")
    if any(not report_cells for report_cells in cells):
        return _fail("vacuous report with zero cells")
    if not all(cell.get("passed") is True for report_cells in cells for cell in report_cells):
        return _fail("failing cell")
    n_cells = sum(len(report_cells) for report_cells in cells)
    if n_cells != VERIFY_CELLS or len(reports) != VERIFY_REPORTS:
        return _fail(
            f"{len(reports)} reports / {n_cells} cells, "
            f"expected {VERIFY_REPORTS} / {VERIFY_CELLS}"
        )
    return Verdict(True, records=len(reports), cells=n_cells)


def compute_records(argv: list[str]) -> int:
    """Records a compute op emits: one per n, or per (n, k) for Stirling."""
    n_max = int(argv[argv.index("--n-max") + 1])
    return (n_max + 1) * (n_max + 2) // 2 if "stirling1" in argv else n_max + 1


def check_compute(argv: list[str], outcome: Outcome, manifest: dict[str, str]) -> Verdict:
    if outcome.code != 0:
        return _fail(f"exit code {outcome.code}")
    expected = manifest.get(op_key(argv))
    if expected is None:
        return _fail("no digest recorded for this op")
    if digest(outcome.out) != expected:
        return _fail("output digest mismatch")
    records = compute_records(argv)
    return Verdict(True, records=records, cells=records)


def check(argv: list[str], outcome: Outcome, manifest: dict[str, str]) -> Verdict:
    if outcome.error is not None:
        return _fail(outcome.error)
    if argv[0] == "verify":
        return check_verify(outcome)
    return check_compute(argv, outcome, manifest)
