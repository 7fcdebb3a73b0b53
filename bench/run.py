"""degenpoly benchmark: one client, closed loop, in-process CLI calls.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]

Each op is an argv list from :mod:`workloads`, run through
``degenpoly.cli.main`` in this process and checked by :mod:`gate`; the next
op starts only when the previous one has been checked.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics of ``END_TO_END``.  ``--trace 1``
runs ops untraced for half the time, runs the same ops again under
:class:`tracing.Tracer`, and reports the per-layer metrics of ``PER_LAYER``,
averaged per op; ``--spans PATH`` also writes every span as JSON lines.
Without the ``src/degenpoly`` sources next to this directory it exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time

import gate
import hostspeed
import tracing
import workloads

# name -> unit; BENCHMARK.json lists the same names
END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "records_per_s": "1/s",
    "op_p50_s": "s",
    "op_max_s": "s",
    "peak_rss_mb": "MiB",
}

SPAN_METRICS = [
    ("poly.mul", ("calls", "self_s")),
    ("poly.add", ("calls", "self_s")),
    ("poly.substitute", ("self_s",)),
    ("poly.render", ("self_s",)),
    ("series.compose", ("calls", "self_s", "total_s")),
    ("series.mul", ("calls", "self_s")),
    ("series.invert", ("self_s",)),
    ("series.pow", ("self_s",)),
    ("degen.deg_log", ("self_s",)),
    ("degen.deg_exp", ("self_s",)),
    ("degen.multi_polyexp", ("self_s",)),
    ("degen.stirling", ("self_s",)),
    ("families.build", ("calls", "self_s", "total_s")),
    ("verify.chain_factors", ("calls", "self_s")),
    *((f"verify.checker.{cid}", ("self_s",)) for cid in tracing.CHECKERS),
    ("cli", ("self_s",)),
]
SPAN_UNITS = {"calls": "calls/op", "self_s": "s/op", "total_s": "s/op"}

PER_LAYER = {
    **{f"{span}.{stat}": SPAN_UNITS[stat] for span, stats in SPAN_METRICS for stat in stats},
    "families.value_terms_max": "terms",
    "families.coeff_bits_max": "bits",
    "verify.memo.hits": "calls/op",
    "verify.memo.misses": "calls/op",
    "verify.memo.hit_ratio": "ratio",
    "verify.cells": "cells/op",
    "cli.bytes_out": "bytes/op",
    "trace.overhead_ratio": "ratio",
}

SETUP_REPEATS = 11
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from degenpoly import cli; raise SystemExit(cli.main(sys.argv[2:]))"
)


def measure_setup() -> float:
    """Median time of a fresh interpreter that imports degenpoly and runs one tiny op.

    Like op times, each spawn's wall time is rescaled to nominal-host seconds
    by the host speed samples taken just before and after it.
    """
    times = []
    rep_before = hostspeed.rep_seconds(0.0)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(gate.SRC_DIR), *workloads.SETUP_ARGV],
            stdout=subprocess.DEVNULL,
            check=True,
        )
        wall = time.perf_counter() - start
        rep_after = hostspeed.rep_seconds(0.0)
        times.append(hostspeed.nominal(wall, rep_before, rep_after))
        rep_before = rep_after
    return statistics.median(times)


class Run:
    """Ops attempted so far, with their wall times and gate verdicts.

    ``rep_s`` holds host speed samples: one before the first op and one
    after each op, so op ``i`` lies between ``rep_s[i]`` and ``rep_s[i + 1]``.
    """

    def __init__(self, cli, manifest: dict[str, str]):
        self.cli = cli
        self.manifest = manifest
        self.ops: list[list[str]] = []
        self.seconds: list[float] = []
        self.verdicts: list[gate.Verdict] = []
        self.bytes_out = 0
        self.rep_s = [hostspeed.rep_seconds(0.0)]

    def op(self, argv: list[str]) -> None:
        gc.collect()
        outcome = gate.run_op(self.cli.main, argv)
        self.rep_s.append(hostspeed.rep_seconds(outcome.seconds))
        verdict = gate.check(argv, outcome, self.manifest)
        if not verdict.ok:
            print(f"FAILED {gate.op_key(argv)}: {verdict.reason}", file=sys.stderr)
        self.ops.append(argv)
        self.seconds.append(outcome.seconds)
        self.verdicts.append(verdict)
        self.bytes_out += len(outcome.out.encode("utf-8"))

    def for_seconds(self, units, seconds: float) -> None:
        """Run whole units of ops for about ``seconds``.

        At least one unit runs; after that, a unit starts only if, at the
        mean pace so far, it ends within ``seconds``.
        """
        start = time.perf_counter()
        for done, unit in enumerate(units, 1):
            for argv in unit:
                self.op(argv)
            if (time.perf_counter() - start) * (done + 1) / done > seconds:
                return

    @property
    def failed(self) -> int:
        return sum(1 for verdict in self.verdicts if not verdict.ok)

    def nominal_seconds(self) -> list[float]:
        """Each op's time in nominal-host seconds (see :mod:`hostspeed`)."""
        return [
            hostspeed.nominal(t, before, after)
            for t, before, after in zip(self.seconds, self.rep_s, self.rep_s[1:])
        ]

    @property
    def scale(self) -> float:
        """Nominal over wall seconds, over the whole run."""
        return sum(self.nominal_seconds()) / sum(self.seconds)


def end_to_end(run: Run) -> dict[str, float]:
    seconds = run.nominal_seconds()
    busy = sum(seconds)
    return {
        "cells_per_s": sum(v.cells for v in run.verdicts) / busy,
        "records_per_s": sum(v.records for v in run.verdicts) / busy,
        "op_p50_s": statistics.median(seconds),
        "op_max_s": max(seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _growth(families: list) -> tuple[int, int]:
    terms = bits = 0
    for family in families:
        for value in family.values:
            terms = max(terms, len(value.terms))
            for coeff in value.terms.values():
                bits = max(bits, coeff.numerator.bit_length(), coeff.denominator.bit_length())
    return terms, bits


def traced(cli, manifest, units, seconds: float, spans_path: str | None) -> tuple[list[Run], dict]:
    plain = Run(cli, manifest)
    plain.for_seconds(units, seconds / 2)
    run = Run(cli, manifest)
    tracer = tracing.Tracer()
    terms = bits = 0
    tracer.install()
    try:
        for op_id, argv in enumerate(plain.ops):
            tracer.op_id = op_id
            run.op(argv)
            op_terms, op_bits = _growth(tracer.take_built())
            terms, bits = max(terms, op_terms), max(bits, op_bits)
    finally:
        tracer.uninstall()
    if spans_path:
        tracer.write(spans_path)

    n_ops = len(run.ops)
    stats = tracer.layer_metrics()
    metrics: dict[str, float] = {}
    for span, fields in SPAN_METRICS:
        entry = stats.get(span, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for field in fields:
            scale = 1.0 if field == "calls" else run.scale
            metrics[f"{span}.{field}"] = entry[field] * scale / n_ops
    memo_calls = stats.get("verify.memo", {"calls": 0})["calls"]
    misses = tracer.memo_misses()
    metrics.update(
        {
            "families.value_terms_max": terms,
            "families.coeff_bits_max": bits,
            "verify.memo.hits": (memo_calls - misses) / n_ops,
            "verify.memo.misses": misses / n_ops,
            "verify.memo.hit_ratio": (memo_calls - misses) / memo_calls if memo_calls else 0.0,
            "verify.cells": sum(
                v.cells for argv, v in zip(run.ops, run.verdicts) if argv[0] == "verify"
            )
            / n_ops,
            "cli.bytes_out": run.bytes_out / n_ops,
            "trace.overhead_ratio": sum(run.nominal_seconds()) / sum(plain.nominal_seconds()),
        }
    )
    return [plain, run], metrics


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="with --trace 1, write spans here")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        cli = gate.load_cli()
    except gate.ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    manifest = gate.load_manifest()
    units = workloads.units(args.workload, args.seed)

    warm = Run(cli, manifest)
    warm.op(workloads.SETUP_ARGV)
    if args.trace:
        runs, metrics = traced(cli, manifest, units, args.seconds, args.spans)
        reported = PER_LAYER
    else:
        setup_s = measure_setup()
        run = Run(cli, manifest)
        run.for_seconds(units, args.seconds)
        runs, metrics = [run], {"setup_s": setup_s, **end_to_end(run)}
        reported = END_TO_END
    for run in runs:
        print(
            f"bench: {args.workload} seed={args.seed} ops={len(run.ops)} failed={run.failed} "
            f"host_scale={run.scale:.4f} wall_op_s={[round(t, 3) for t in run.seconds]}",
            file=sys.stderr,
        )
    failed = warm.failed + sum(run.failed for run in runs)
    result = {
        "correct": failed == 0,
        "attempted": 1 + sum(len(run.ops) for run in runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": u} for name, u in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
