"""Byte-identical output, pinned by digest.

``bench/digests.json`` maps each compute op of the benchmark (its argv,
joined by spaces) to the first 16 hex digits of the sha256 of its stdout.
This module reads that manifest and changes nothing in it.  It runs one op
per combination of family, ``--r``, number of ``--ks`` indices,
``--lambda``, ``--format`` and ``--arg`` (the one with the smallest
``--n-max``), plus the largest symbolic JSON Stirling table, through
``cli.main`` in this process.  These manifest ops are all this module
pins; the golden files, the full verify sweeps and the other whole-output
digests are the table in ``pinned_runs.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from degenpoly.cli import main

MANIFEST = Path(__file__).resolve().parents[1] / "bench" / "digests.json"


def _options(argv: list[str]) -> dict[str, str]:
    """``{"--flag": value}`` of a compute argv, for ``--flag value`` and ``--flag=value``."""
    out, rest = {}, argv[1:]
    while rest:
        flag, eq, value = rest[0].partition("=")
        if eq:
            rest = rest[1:]
        else:
            value, rest = rest[1], rest[2:]
        out[flag] = value
    return out


def _pinned_ops() -> list[tuple[str, str]]:
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    smallest: dict[tuple, tuple[int, str]] = {}
    stirling = []
    for key in manifest:
        opts = _options(key.split())
        n_max = int(opts["--n-max"])
        ks = len(opts["--ks"].split(",")) if "--ks" in opts else None
        group = (opts["--family"], opts.get("--r"), ks, opts["--lambda"], opts["--format"])
        group += (opts.get("--arg"),)
        if group not in smallest or n_max < smallest[group][0]:
            smallest[group] = (n_max, key)
        if group[0] == "stirling1" and group[3:5] == ("sym", "json"):
            stirling.append((n_max, key))
    keys = [key for _, key in smallest.values()] + [max(stirling)[1]]
    return [(key, manifest[key]) for key in keys]


def test_pinned_ops_cover_every_combination():
    ops = _pinned_ops()
    assert len(ops) == len(set(ops)) == 97


@pytest.mark.parametrize("key, expected", _pinned_ops())
def test_compute_output_matches_manifest_digest(key, expected, capsys):
    assert main(key.split()) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest()[:16] == expected

