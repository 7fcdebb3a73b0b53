"""Workloads of the degenpoly benchmark: op spaces and the seeded op generator.

An op is the argv list handed to ``degenpoly.cli.main``.  The program sees
only that list; the seed stays in the benchmark.

* ``verify-sweep`` repeats ``verify --identity all --n-max 8`` and ignores the
  seed.  It is the only workload whose ops share family builds through the
  verifier's memo.
* ``compute-compose`` draws one multi-poly- or poly-Genocchi table per op, so
  every op builds its family from scratch, and almost all of that build is
  series composition.
* ``compute-series`` draws Genocchi, order-r Genocchi / Euler and Stirling
  tables at large ``--n-max``; no op composes series.

The compute draws are dealt in blocks and decks (see :func:`_deal`), and
the arguments that do not set an op's size come from bags (see :func:`_bag`),
so every seed gives a run the same mix of op sizes: the numbers of one run
do not hinge on how many large ops its seed happened to draw.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("verify-sweep", "compute-compose", "compute-series")

VERIFY_ARGV = ("verify", "--identity", "all", "--n-max", "8", "--format", "json")
# identity cells and reports one VERIFY_ARGV op checks at the seed commit
VERIFY_CELLS = 1417
VERIFY_REPORTS = 179

# The k-lists of the built-in verify sweep, copied so that a later change to
# the sweep grid cannot change this benchmark's ops.
SINGLES = tuple((k,) for k in (-2, -1, 0, 1, 2))
PAIRS = tuple((a, b) for a in (-1, 0, 1, 2) for b in (-1, 0, 1, 2))
TRIPLES = (
    (1, 1, 1),
    (2, 1, 1),
    (-1, 1, 2),
    (0, 0, 0),
    (-2, 1, 2),
    (1, -1, 1),
    (2, -2, 2),
    (-1, -2, 1),
)

LAMBDAS = ("sym", "1/2", "-2")
FORMATS = ("json", "csv")
COMPOSE_ARGS = ("sym-x", "0")
COMPOSE_N = tuple(range(14, 19))
SERIES_N = tuple(range(30, 37))
STIRLING_N = tuple(range(38, 43))


def compute_argv(
    family: str,
    n_max: int,
    lam: str,
    fmt: str,
    ks: tuple[int, ...] | None = None,
    r: int | None = None,
    arg: str | None = None,
) -> list[str]:
    """argv of one ``compute`` op.

    ``--ks`` and ``--lambda`` always use the equals form: argparse reads the
    split form ``--ks -1,2`` as an unknown option and exits with code 2.
    """
    argv = ["compute", "--family", family]
    if ks is not None:
        argv.append("--ks=" + ",".join(str(k) for k in ks))
    if r is not None:
        argv += ["--r", str(r)]
    argv += ["--n-max", str(n_max)]
    if arg is not None:
        argv += ["--arg", arg]
    argv += ["--lambda=" + lam, "--format", fmt]
    return argv


# A compute op is (family, ks, r, n_max, arg) plus the (lambda, format) pair;
# the first part fixes the family build, the second only the output.
def _compose_builds() -> list[tuple]:
    kinds = [("poly-genocchi", ks) for ks in SINGLES]
    kinds += [("multi-poly-genocchi", ks) for ks in SINGLES + PAIRS + TRIPLES]
    return [
        (family, ks, None, n, arg)
        for family, ks in kinds
        for n in COMPOSE_N
        for arg in COMPOSE_ARGS
    ]


def _series_builds() -> list[tuple]:
    kinds = [("genocchi", None)]
    kinds += [(family, r) for family in ("genocchi-r", "euler-r") for r in (1, 2, 3)]
    builds = [(family, None, r, n, None) for family, r in kinds for n in SERIES_N]
    builds += [("stirling1", None, None, n, None) for n in STIRLING_N]
    return builds


BUILDS = {"compute-compose": _compose_builds, "compute-series": _series_builds}


def _argv(build: tuple, lam: str, fmt: str) -> list[str]:
    family, ks, r, n, arg = build
    return compute_argv(family, n, lam, fmt, ks=ks, r=r, arg=arg)


def op_space(workload: str) -> list[list[str]]:
    """Every op a seed can draw on a compute workload."""
    return [
        _argv(build, lam, fmt)
        for build in BUILDS[workload]()
        for lam in LAMBDAS
        for fmt in FORMATS
    ]


SETUP_ARGV = compute_argv("genocchi", 2, "sym", "json")

# Kinds are listed from the cheapest to the dearest build.
COMPOSE_KINDS = (
    ("poly-genocchi", SINGLES),
    ("multi-poly-genocchi", SINGLES),
    ("multi-poly-genocchi", PAIRS),
    ("multi-poly-genocchi", TRIPLES),
)
SERIES_KINDS = (("genocchi", None),) + tuple(
    (family, r) for family in ("genocchi-r", "euler-r") for r in (1, 2, 3)
)
# The slowest compose op at the seed commit.  It fills the (last kind, last
# size) slot of every deck, so op_max_s times the same op in every run.
SLOWEST_COMPOSE = ((-1, 1, 2), "sym-x")


def _deal(rng: random.Random, kinds: tuple, sizes: tuple):
    """Endless decks of ``len(kinds)`` blocks of (kind, size) pairs.

    Every block holds each size once, so blocks cost about the same, and a
    deck pairs every kind with every size exactly once.  The seed permutes
    the kinds per deck.  A deck starts with the block that pairs the last
    kind with the last size, so a run of whole blocks always holds the
    largest op.
    """
    count = len(kinds)
    while True:
        order = rng.sample(kinds, count)
        first = order.index(kinds[-1]) - (len(sizes) - 1)
        yield [
            [(order[(i + j) % count], size) for j, size in enumerate(sizes)]
            for i in range(first, first + count)
        ]


def _bag(rng: random.Random, items):
    """Endless draws without replacement from ``items``, refilled when empty."""
    items = list(items)
    while True:
        yield from rng.sample(items, len(items))


def _compose_units(rng: random.Random):
    """One unit per deck: compose ops vary too much in size for a part of a
    deck to stand for the whole."""
    variants = _bag(rng, itertools.product(COMPOSE_ARGS, LAMBDAS, FORMATS))
    ks_bags = {kind: _bag(rng, kind[1]) for kind in COMPOSE_KINDS}
    largest = (COMPOSE_KINDS[-1], COMPOSE_N[-1])
    for deck in _deal(rng, COMPOSE_KINDS, COMPOSE_N):
        unit = []
        for block in deck:
            ops = []
            for kind, n in block:
                arg, lam, fmt = next(variants)
                ks = next(ks_bags[kind])
                if (kind, n) == largest:
                    ks, arg = SLOWEST_COMPOSE
                ops.append(compute_argv(kind[0], n, lam, fmt, ks=ks, arg=arg))
            rng.shuffle(ops)
            unit += ops
        yield unit


def _series_units(rng: random.Random):
    """One unit per block, plus one Stirling op.

    As many sizes as kinds, so every block pairs each kind with each size
    once.  The first block of a deck gets the largest Stirling table,
    symbolic and in JSON, the largest output of the space, so that every
    run's peak memory covers it.
    """
    variants = _bag(rng, itertools.product(LAMBDAS, FORMATS))
    stirling_n = _bag(rng, STIRLING_N)
    for deck in _deal(rng, SERIES_KINDS, SERIES_N):
        for i, block in enumerate(deck):
            ops = [compute_argv(family, n, *next(variants), r=r) for (family, r), n in block]
            if i == 0:
                ops.append(compute_argv("stirling1", STIRLING_N[-1], "sym", "json"))
            else:
                ops.append(compute_argv("stirling1", next(stirling_n), *next(variants)))
            rng.shuffle(ops)
            yield ops


def units(workload: str, seed: int):
    """Endless stream of op units; the same seed gives the same stream.

    A run stops only between units.  verify-sweep ignores the seed.
    """
    if workload == "verify-sweep":
        return ([list(VERIFY_ARGV)] for _ in itertools.count())
    rng = random.Random(seed)
    if workload == "compute-compose":
        return _compose_units(rng)
    if workload == "compute-series":
        return _series_units(rng)
    raise ValueError(f"unknown workload {workload!r}")
