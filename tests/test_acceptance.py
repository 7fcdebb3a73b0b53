"""Acceptance suite: ten criteria, one printed pass/fail line each.

Everything is exact (tolerance: none); runtimes are wall-clock sanity
bounds, not benchmarks.  Run with ``pytest -v tests/test_acceptance.py``
(add ``-s`` to see the per-criterion lines on passing runs).
"""

import itertools
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from degenpoly.degen import (
    classical_falling_factorial,
    deg_exp,
    deg_falling_factorials,
    deg_log,
    deg_multi_polyexp,
    deg_polyexp,
    stirling1_deg_recurrence,
    stirling1_deg_series,
)
from degenpoly.families import multi_poly_genocchi_deg
from degenpoly.poly import LAM, ONE, ZERO, MultiPoly
from degenpoly.series import TruncatedSeries
from degenpoly.verify import (
    FamilyMemo,
    check_corollary2,
    check_prop4,
    check_reduction,
    check_theorem1,
    check_theorem3,
    check_vanishing,
    default_k_lists,
)
from falling_basis import falling_basis_coeffs

DATA_DIR = Path(__file__).parent / "data"
SWEEP_N_MAX = 10
PROP4_N_MAX = 8


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def sweep():
    """One shared family cache plus the timed Theorem 1 sweep."""
    memo = FamilyMemo()
    lists = default_k_lists()
    start = time.perf_counter()
    thm1 = [check_theorem1(ks, SWEEP_N_MAX, memo) for ks in lists]
    seconds = time.perf_counter() - start
    return {"memo": memo, "lists": lists, "thm1": thm1, "seconds": seconds}


def test_criterion_01_theorem1_sweep(sweep):
    lists = sweep["lists"]
    grid_ok = (
        len(lists) >= 10
        and {len(ks) for ks in lists} == {1, 2, 3}
        and all(-2 <= k <= 2 for ks in lists for k in ks)
    )
    all_pass = all(rep.passed for rep in sweep["thm1"])
    in_time = sweep["seconds"] < 60
    report(
        "criterion 1: Theorem 1 sweep, exact symbolic equality",
        grid_ok and all_pass and in_time,
        f"{len(lists)} k-lists, n_max={SWEEP_N_MAX}, {sweep['seconds']:.1f}s",
    )


def test_criterion_02_vanishing(sweep):
    reports = [check_vanishing(ks, SWEEP_N_MAX, sweep["memo"]) for ks in sweep["lists"]]
    cells = sum(len(rep.cells) for rep in reports)
    report(
        "criterion 2: vanishing below r in every sweep cell",
        all(rep.passed for rep in reports),
        f"{cells} cells",
    )


def test_criterion_03_corollary2_sweep(sweep):
    reports = [check_corollary2(ks, SWEEP_N_MAX, sweep["memo"]) for ks in sweep["lists"]]
    report(
        "criterion 3: Corollary 2 sweep via order-r Genocchi",
        all(rep.passed for rep in reports),
        f"{len(reports)} k-lists",
    )


def test_criterion_04_theorem3_sweep(sweep):
    reports = [check_theorem3(ks, SWEEP_N_MAX, sweep["memo"]) for ks in sweep["lists"]]
    report(
        "criterion 4: Theorem 3 sweep at argument x = r",
        all(rep.passed for rep in reports),
        f"{len(reports)} k-lists",
    )


def test_criterion_05_prop4_trivariate(sweep):
    memo = sweep["memo"]
    reports = [check_prop4(ks, PROP4_N_MAX, memo) for ks in sweep["lists"]]
    ok = all(rep.passed for rep in reports)
    fall_y = deg_falling_factorials("y", PROP4_N_MAX)
    # y = 0 collapses the identity to g_n(x) = g_n(x)
    for ks in ((1,), (1, 2), (1, 1, 1)):
        fam_xy = memo.multi_poly_genocchi(ks, "x+y", PROP4_N_MAX)
        fam_x = memo.multi_poly_genocchi(ks, "x", PROP4_N_MAX)
        numbers = memo.multi_poly_genocchi(ks, Fraction(0), PROP4_N_MAX)
        for n in range(PROP4_N_MAX + 1):
            ok = ok and fam_xy.values[n].substitute("y", 0) == fam_x.values[n]
            # x = 0 reproduces the number expansion in y
            rhs = ZERO
            for l in range(n + 1):
                rhs = rhs + math.comb(n, l) * numbers.values[l] * fall_y[n - l]
            ok = ok and fam_xy.values[n].substitute("x", 0) == rhs
    report(
        "criterion 5: Proposition 4 trivariate identity and specializations",
        ok,
        f"n_max={PROP4_N_MAX}",
    )


def test_criterion_06_stirling_triple_oracle():
    n_max = 12
    table = stirling1_deg_recurrence(n_max)
    ok = True
    for n in range(n_max + 1):
        fall = classical_falling_factorial(n)
        by_basis = falling_basis_coeffs(fall, n)
        for k in range(n + 1):
            value = table.value(n, k)
            ok = ok and value == stirling1_deg_series(n, k, n_max)
            ok = ok and value == by_basis[k]
            ok = ok and value.substitute("lambda", 0) == fall.coeff_x(k)
    report(
        "criterion 6: Stirling triple oracle and classical limit",
        ok,
        f"all 0 <= k <= n <= {n_max}",
    )


def test_criterion_07_reduction_ladder():
    ok = check_reduction(8).passed
    # classical numbers against an independent plain-rational division oracle
    denom = [Fraction(2)] + [Fraction(1, math.factorial(n)) for n in range(1, 9)]
    quot = []
    for n in range(9):
        target = Fraction(2) if n == 1 else Fraction(0)
        quot.append((target - sum(denom[i] * quot[n - i] for i in range(1, n + 1))) / denom[0])
    oracle = [quot[n] * math.factorial(n) for n in range(9)]
    ok = ok and oracle[1:] == [Fraction(v) for v in (1, -1, 0, 1, 0, -3, 0, 17)]
    fam = multi_poly_genocchi_deg((1,), 0, 8)
    for n in range(9):
        ok = ok and fam.values[n].substitute("lambda", 0) == MultiPoly.const(oracle[n])
    report("criterion 7: reduction ladder to poly/plain/classical Genocchi", ok)


@pytest.mark.parametrize("order", [8, 16, 32])
def test_criterion_08_inverse_pair(order):
    log_series = deg_log(order)
    ok = deg_exp(1, order).compose(log_series) == TruncatedSeries.t(order) + 1
    ok = ok and deg_polyexp(1, order).compose(log_series) == TruncatedSeries.t(order)
    report(f"criterion 8: inverse pair exact at order {order}", ok)


def brute_multi_polyexp(ks, order: int) -> TruncatedSeries:
    coeffs = [ZERO] * (order + 1)
    for chain in itertools.combinations(range(1, order + 1), len(ks)):
        term = ONE
        for n_i, k_i in zip(chain, ks):
            fall = ONE
            for i in range(1, n_i):
                fall = fall * (ONE - LAM * i)
            term = term * fall * (Fraction(1, math.factorial(n_i - 1)) * Fraction(n_i) ** (-k_i))
        coeffs[chain[-1]] = coeffs[chain[-1]] + term
    return TruncatedSeries(order, coeffs)


def test_criterion_09_dp_vs_brute_force():
    order = 10
    lists = [(k,) for k in range(-2, 3)]
    lists += [(1, 2), (-1, 2), (0, 0), (2, -2)]
    lists += [(1, 1, 1), (2, 0, -1), (-2, 1, 2)]
    ok = all(deg_multi_polyexp(ks, order) == brute_multi_polyexp(ks, order) for ks in lists)
    report(
        "criterion 9: multiple polyexponential DP equals chain enumeration",
        ok,
        f"{len(lists)} k-lists, order {order}",
    )


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "DEGENPOLY_OUT_DIR"}
    return subprocess.run(
        [sys.executable, "-m", "degenpoly", *args], capture_output=True, text=True, env=env
    )


def test_criterion_10_cli_contract(tmp_path):
    ok = run_cli("verify", "--identity", "all", "--n-max", "10").returncode == 0
    ok = ok and run_cli("verify", "--identity", "all", "--n-max", "4", "--corrupt").returncode == 1
    ok = ok and run_cli("verify", "--identity", "thm1", "--ks", "x").returncode == 2
    ok = ok and run_cli("compute", "--family", "genocchi", "--ks", "1").returncode == 2
    golden = [
        ("genocchi_lam0_arg0_n8.csv",
         ["compute", "--family", "genocchi", "--n-max", "8", "--lambda", "0",
          "--arg", "0", "--format", "csv"]),
        ("stirling1_sym_n3.json",
         ["compute", "--family", "stirling1", "--n-max", "3", "--lambda", "sym"]),
        ("multi_poly_genocchi_k1_sym_n6.json",
         ["compute", "--family", "multi-poly-genocchi", "--ks", "1", "--n-max", "6",
          "--lambda", "sym", "--arg", "sym-x"]),
        ("genocchi_sym_n6.json",
         ["compute", "--family", "genocchi", "--n-max", "6", "--lambda", "sym",
          "--arg", "sym-x"]),
    ]
    for name, args in golden:
        out = tmp_path / name
        proc = run_cli(*args, "--out", str(out))
        ok = ok and proc.returncode == 0
        ok = ok and out.read_bytes() == (DATA_DIR / name).read_bytes()
    report("criterion 10: CLI exit codes and byte-exact golden regeneration", ok)
