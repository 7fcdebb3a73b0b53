"""Every CLI run whose output bytes are pinned, in one table.

``PINNED_RUNS`` lists ``(pin, argv, exit code)``.  A pin is the name of a
file under ``tests/data`` that holds the run's exact output, or
``sha256:<hex>`` of that output where the output is too large to keep
(the full verify sweeps) or no golden file holds it.  The golden test in
``test_cli.py`` and criterion 10 of ``test_acceptance.py`` both check every
entry through :func:`pinned_output`, which runs each argv once per session
with ``--out``, and CI runs every entry through the installed ``degenpoly``
console script and checks its stdout; :func:`matches` is the one check of a
run's bytes against its pin.
"""

import functools
import hashlib
import tempfile
from pathlib import Path

from cli_subprocess import run_cli

DATA_DIR = Path(__file__).resolve().parent / "data"

PINNED_RUNS = [
    (pin, tuple(argv.split()), code)
    for pin, argv, code in [
        ("genocchi_lam0_arg0_n8.csv",
         "compute --family genocchi --n-max 8 --lambda 0 --arg 0 --format csv", 0),
        ("stirling1_sym_n3.json", "compute --family stirling1 --n-max 3 --lambda sym", 0),
        ("multi_poly_genocchi_k1_sym_n6.json",
         "compute --family multi-poly-genocchi --ks 1 --n-max 6 --lambda sym --arg sym-x", 0),
        ("genocchi_sym_n6.json",
         "compute --family genocchi --n-max 6 --lambda sym --arg sym-x", 0),
        ("verify_thm1_ks12_n4.json",
         "verify --identity thm1 --ks 1,2 --n-max 4 --format json", 0),
        ("verify_thm1_ks12_n4_corrupt.json",
         "verify --identity thm1 --ks 1,2 --n-max 4 --format json --corrupt", 1),
        ("verify_cor2_ks123_n2_vacuous.json",
         "verify --identity cor2 --ks 1,2,3 --n-max 2 --format json", 0),
        ("verify_all_n5.txt", "verify --identity all --n-max 5", 0),
        ("verify_all_n2_corrupt.txt", "verify --identity all --n-max 2 --corrupt", 1),
        # the full sweep in JSON (187,488 bytes at n = 8), and with --corrupt
        # (615,690 bytes), whose failing cells render both sides
        ("sha256:f46b0480f24807e74e30f0225f2a561c6b666d400fcc22e3a78a94cf3dd411ae",
         "verify --identity all --n-max 8 --format json", 0),
        ("sha256:6006a14c243cd9301048d2f1e7ee17ed0553fe7009d4f51a77aad15da6326064",
         "verify --identity all --n-max 10 --format json", 0),
        ("sha256:7b59514dcd7a3f223cde0ddcddad846a3f0952524badd55ac6ce43d2dfa01de1",
         "verify --identity all --n-max 16 --format json", 0),
        ("sha256:ff03e718293f1fc0661e2341b021fe7ef259685fe64846bcd69dc3bf73585747",
         "verify --identity all --n-max 8 --format json --corrupt", 1),
        # the ids that run once per n_max, through the CLI on their own
        ("sha256:d98df8190202fab30bdcb89f593da501974be4d280e59afa021b5deb5303fcf0",
         "verify --identity eq19 --n-max 8 --format json", 0),
        ("sha256:6f4126943f39072d7fd662e6dd6c6b1a63099243225fae033942826deea74210",
         "verify --identity reduction --n-max 8 --format json", 0),
        # the one compute family bench/digests.json does not cover
        ("sha256:b0f543f92598596c916b7922c508c0b500d1f0a69d4ae357a6a44734feda2493",
         "compute --family multi-polyexp --ks=-1,2 --n-max 6", 0),
        ("sha256:1e979251f8e5bb6a1e9f4bf309b8dad0716451bd879fb493a0c4c4cf6641d75d",
         "compute --family multi-polyexp --ks=2,1,1 --n-max 6 --lambda=-2 --format csv", 0),
    ]
]


@functools.cache
def pinned_output(argv: tuple[str, ...]) -> tuple[int, bytes]:
    """Exit code and ``--out`` bytes of this checkout's CLI on ``argv``, run once per session."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        return run_cli(*argv, "--out", str(out)).returncode, out.read_bytes()


def matches(pin: str, data: bytes) -> bool:
    """Whether ``data`` is the output that ``pin`` fixes."""
    if pin.startswith("sha256:"):
        return hashlib.sha256(data).hexdigest() == pin.removeprefix("sha256:")
    return data == (DATA_DIR / pin).read_bytes()
