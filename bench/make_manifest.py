"""Record the output digest of every op the compute workloads can draw.

Usage: ``python3 bench/make_manifest.py`` rewrites ``bench/digests.json``.
Run it only on a commit whose output is known to be right (the manifest was
recorded at the seed commit); the benchmark fails any op whose output bytes
differ from it.

Ops that differ only in ``--lambda`` and ``--format`` share one family
build, so each build is made once and handed to all of them.  The builds are
pure functions of their arguments, which is what makes the shared copy safe.
Progress goes to stderr, one line per build with its wall time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import gate
import workloads
from tracing import FAMILY_BUILDERS


def _memoize_builds(cli) -> None:
    families = sys.modules["degenpoly.families"]
    for name in FAMILY_BUILDERS:
        fn = getattr(families, name)
        setattr(families, name, functools.lru_cache(maxsize=1)(fn))
    cli.stirling1_deg_recurrence = functools.lru_cache(maxsize=1)(cli.stirling1_deg_recurrence)


def main() -> int:
    cli = gate.load_cli()
    _memoize_builds(cli)
    setup = gate.run_op(cli.main, workloads.SETUP_ARGV)
    manifest = {gate.op_key(workloads.SETUP_ARGV): gate.digest(setup.out)}
    group = len(workloads.LAMBDAS) * len(workloads.FORMATS)
    for workload in workloads.BUILDS:
        space = workloads.op_space(workload)
        for first in range(0, len(space), group):
            start = time.perf_counter()
            for argv in space[first : first + group]:
                outcome = gate.run_op(cli.main, argv)
                if outcome.code != 0 or outcome.error:
                    raise SystemExit(f"op failed: {argv}: {outcome.error or outcome.err}")
                manifest[gate.op_key(argv)] = gate.digest(outcome.out)
            elapsed = time.perf_counter() - start
            print(f"{elapsed:.3f} {gate.op_key(space[first])}", file=sys.stderr, flush=True)
    with open(gate.MANIFEST_PATH, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(manifest)} digests to {gate.MANIFEST_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
