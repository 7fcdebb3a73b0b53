"""Self-tests of the benchmark: op generator, correctness gate and tracer.

Run with ``python3 -m pytest bench``.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

import gate
import hostspeed
import run
import tracing
import workloads

CLI = gate.load_cli()
COMPUTE = ("compute-compose", "compute-series")


def _take(workload: str, seed: int, count: int) -> list[list[str]]:
    ops = itertools.chain.from_iterable(workloads.units(workload, seed))
    return list(itertools.islice(ops, count))


@pytest.mark.parametrize("workload", COMPUTE)
def test_same_seed_same_ops(workload):
    assert _take(workload, 7, 150) == _take(workload, 7, 150)
    assert _take(workload, 7, 150) != _take(workload, 8, 150)


def test_verify_sweep_ignores_seed():
    assert _take("verify-sweep", 1, 3) == _take("verify-sweep", 2, 3) == [
        list(workloads.VERIFY_ARGV)
    ] * 3


@pytest.mark.parametrize("workload", COMPUTE)
def test_each_deck_pairs_every_kind_with_every_size(workload):
    kinds, sizes = {
        "compute-compose": (workloads.COMPOSE_KINDS, workloads.COMPOSE_N),
        "compute-series": (workloads.SERIES_KINDS, workloads.SERIES_N),
    }[workload]
    for deck in itertools.islice(workloads._deal(random.Random(3), kinds, sizes), 5):
        pairs = [pair for block in deck for pair in block]
        assert len(set(pairs)) == len(pairs) == len(kinds) * len(sizes)
        for block in deck:
            assert sorted(size for _, size in block) == list(sizes)
        assert (kinds[-1], sizes[-1]) in deck[0]


def test_every_compose_unit_holds_the_slowest_op():
    ks, arg = workloads.SLOWEST_COMPOSE
    slowest = workloads.compute_argv("multi-poly-genocchi", 18, "sym", "json", ks=ks, arg=arg)
    for unit in itertools.islice(workloads.units("compute-compose", 4), 6):
        assert len(unit) == len(workloads.COMPOSE_KINDS) * len(workloads.COMPOSE_N)
        assert any(argv[:-3] == slowest[:-3] for argv in unit)


def test_nominal_seconds_follow_host_speed():
    rep = hostspeed.NOMINAL_REP_S
    assert hostspeed.nominal(2.0, rep, rep) == pytest.approx(2.0)
    assert hostspeed.nominal(3.0, 1.5 * rep, 1.5 * rep) == pytest.approx(2.0)
    assert hostspeed.rep_seconds(0.0) > 0


def test_manifest_covers_every_op():
    manifest = gate.load_manifest()
    keys = {gate.op_key(workloads.SETUP_ARGV)}
    for workload in COMPUTE:
        keys.update(gate.op_key(argv) for argv in workloads.op_space(workload))
    assert keys == set(manifest)


def test_negative_ks_uses_equals_form():
    # argparse takes the split form's "-1,2" for an option and exits with 2
    split = gate.run_op(CLI.main, ["compute", "--family", "multi-poly-genocchi", "--ks", "-1,2"])
    assert split.code == 2
    drawn = _take("compute-compose", 5, 400)
    assert any("--ks=-" in " ".join(argv) for argv in drawn)
    assert all("--ks" not in argv and "--lambda" not in argv for argv in drawn)


def test_corrupt_verify_op_counts_as_failed():
    argv = [*workloads.VERIFY_ARGV, "--corrupt"]
    outcome = gate.run_op(CLI.main, argv)
    assert outcome.code == 1
    assert not gate.check(argv, outcome, {}).ok


def _verify_outcome(reports) -> gate.Outcome:
    payload = {"passed": True, "reports": reports}
    return gate.Outcome(0, json.dumps(payload), "", 0.1)


def test_verify_gate_rejects_vacuous_and_short_reports():
    cell = {"passed": True}
    full = [{"cells": [cell] * 7}] * (workloads.VERIFY_REPORTS - 1) + [
        {"cells": [cell] * (workloads.VERIFY_CELLS - 7 * (workloads.VERIFY_REPORTS - 1))}
    ]
    argv = list(workloads.VERIFY_ARGV)
    assert gate.check(argv, _verify_outcome(full), {}).ok
    assert not gate.check(argv, _verify_outcome(full[:-1] + [{"cells": []}]), {}).ok
    assert not gate.check(argv, _verify_outcome(full[1:]), {}).ok
    failing = full[:-1] + [{"cells": [{"passed": False}] + full[-1]["cells"][1:]}]
    assert not gate.check(argv, _verify_outcome(failing), {}).ok


def test_compute_gate_checks_digest():
    manifest = gate.load_manifest()
    argv = workloads.SETUP_ARGV
    outcome = gate.run_op(CLI.main, argv)
    verdict = gate.check(argv, outcome, manifest)
    assert verdict.ok and verdict.records == 3
    outcome.out = outcome.out.replace('"1"', '"2"', 1)
    assert not gate.check(argv, outcome, manifest).ok


def test_tracer_spans_and_memo_counts(tmp_path):
    originals = {name: vars(CLI.families)[name] for name in tracing.FAMILY_BUILDERS}
    radd = vars(CLI.MultiPoly)["__radd__"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op_id = 0
        outcome = gate.run_op(CLI.main, ["verify", "--identity", "all", "--n-max", "3"])
    finally:
        tracer.uninstall()
    assert outcome.code == 0
    assert vars(CLI.MultiPoly)["__radd__"] is radd
    assert all(vars(CLI.families)[name] is fn for name, fn in originals.items())

    stats = tracer.layer_metrics()
    for cid in tracing.CHECKERS:
        assert stats[f"verify.checker.{cid}"]["calls"] >= 1
    assert stats["cli"]["calls"] == 1
    assert stats["verify.chain_factors"]["calls"] > 0
    assert stats["series.compose"]["calls"] > 0
    misses = tracer.memo_misses()
    assert 0 < misses < stats["verify.memo"]["calls"]
    for entry in stats.values():
        assert -1e-9 <= entry["self_s"] <= entry["total_s"] + 1e-9

    path = tmp_path / "spans.jsonl"
    tracer.write(str(path))
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(spans) == sum(entry["calls"] for entry in stats.values())
    assert spans[0]["name"] == "cli" and spans[0]["parent"] == -1
    assert all(span["op"] == 0 for span in spans)


def test_benchmark_json_names_match_runner():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
