"""Byte-identical output, pinned by digest.

``bench/digests.json`` maps each compute op of the benchmark (its argv,
joined by spaces) to the first 16 hex digits of the sha256 of its stdout.
This module reads that manifest and changes nothing in it.  It runs one op
per combination of family, ``--r``, number of ``--ks`` indices,
``--lambda``, ``--format`` and ``--arg`` (the one with the smallest
``--n-max``), plus the largest symbolic JSON Stirling table, through
``cli.main`` in this process.  The full verify sweep in JSON is pinned by
its whole sha256 at n = 8, 10 and 16, and with ``--corrupt`` at n = 8,
whose failing cells render both sides of each failed identity.
"""

import hashlib
import json
from pathlib import Path

import pytest

from degenpoly.cli import main

MANIFEST = Path(__file__).resolve().parents[1] / "bench" / "digests.json"

# sha256 of `verify --identity all --n-max N --format json` (187,488 bytes at N = 8)
VERIFY_ALL_JSON_SHA256 = {
    8: "f46b0480f24807e74e30f0225f2a561c6b666d400fcc22e3a78a94cf3dd411ae",
    10: "6006a14c243cd9301048d2f1e7ee17ed0553fe7009d4f51a77aad15da6326064",
    16: "7b59514dcd7a3f223cde0ddcddad846a3f0952524badd55ac6ce43d2dfa01de1",
}

# the same run at N = 8 with --corrupt (615,690 bytes, exit code 1)
VERIFY_ALL_CORRUPT_JSON_SHA256 = "ff03e718293f1fc0661e2341b021fe7ef259685fe64846bcd69dc3bf73585747"


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


def _stdout(argv: list[str], capsys) -> tuple[int, bytes]:
    code = main(argv)
    return code, capsys.readouterr().out.encode("utf-8")


def test_pinned_ops_cover_every_combination():
    ops = _pinned_ops()
    assert len(ops) == len(set(ops)) == 97


@pytest.mark.parametrize("key, expected", _pinned_ops())
def test_compute_output_matches_manifest_digest(key, expected, capsys):
    code, out = _stdout(key.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out).hexdigest()[:16] == expected


@pytest.mark.parametrize("n_max", sorted(VERIFY_ALL_JSON_SHA256))
def test_verify_all_json_is_byte_identical(n_max, capsys):
    argv = ["verify", "--identity", "all", "--n-max", str(n_max), "--format", "json"]
    code, out = _stdout(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == VERIFY_ALL_JSON_SHA256[n_max]


def test_verify_all_corrupt_json_is_byte_identical(capsys):
    argv = ["verify", "--identity", "all", "--n-max", "8", "--format", "json", "--corrupt"]
    code, out = _stdout(argv, capsys)
    assert code == 1
    assert hashlib.sha256(out).hexdigest() == VERIFY_ALL_CORRUPT_JSON_SHA256
