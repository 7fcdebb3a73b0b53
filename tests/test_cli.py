"""End-to-end CLI tests: exit codes, formats, golden files, determinism."""

import argparse
import json
import os
import sys

import pytest

import fraction_poly as ref
from degenpoly.cli import FAMILIES, main
from degenpoly.families import poly_genocchi_deg
from degenpoly.poly import MultiPoly
from cli_subprocess import run_cli
from pinned_runs import DATA_DIR, PINNED_RUNS, matches, pinned_output


def read_poly(text: str) -> MultiPoly:
    """Polynomial text read back by the oracle's parser, the one reader of the output."""
    return MultiPoly(ref.parse_poly(text).terms)


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "0.1.0" in proc.stdout


def test_compute_to_stdout_json():
    proc = run_cli("compute", "--family", "genocchi", "--n-max", "4")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["meta"]["family"] == "genocchi"
    assert payload["meta"]["n_max"] == 4
    assert [rec["n"] for rec in payload["records"]] == [0, 1, 2, 3, 4]
    assert payload["records"][1]["value"] == "1"


def test_compute_json_values_reparse():
    proc = run_cli(
        "compute", "--family", "multi-poly-genocchi", "--ks", "1,2", "--n-max", "6"
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    for rec in payload["records"]:
        poly = read_poly(rec["value"])
        rebuilt = sum(
            (read_poly(mono) * read_poly(coeff) for mono, coeff in rec["value_terms"]),
            read_poly("0"),
        )
        assert poly == rebuilt
        assert rec["params"]["ks"] == [1, 2]
        assert rec["family_id"] == "MultiPolyGenocchiDeg"


def test_compute_csv_stirling_has_k_column():
    proc = run_cli("compute", "--family", "stirling1", "--n-max", "3", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "n,k,monomial,coeff"
    assert "3,2,lambda,3" in lines
    assert "3,2,1,-3" in lines


def test_compute_multi_polyexp():
    proc = run_cli(
        "compute", "--family", "multi-polyexp", "--ks", "1,2", "--n-max", "4",
        "--lambda", "0",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    # classical limit of the t^2 coefficient of Ei_{(1,2)} is 1/4
    assert payload["records"][2]["value"] == "1/4"


def test_compute_rational_lambda_and_arg():
    # negative rationals need the = form, or argparse reads them as flags
    proc = run_cli(
        "compute", "--family", "euler-r", "--r", "2", "--n-max", "3",
        "--lambda", "1/2", "--arg=-1/3",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["meta"]["r"] == 2
    for rec in payload["records"]:
        # fully specialized values are plain rationals
        assert set(read_poly(rec["value"]).terms) <= {(0, 0, 0)}


@pytest.mark.parametrize(
    "args",
    [
        ("compute", "--family", "genocchi", "--ks", "3"),
        ("compute", "--family", "poly-genocchi"),
        ("compute", "--family", "poly-genocchi", "--ks", "1,2"),
        ("compute", "--family", "genocchi-r"),
        ("compute", "--family", "genocchi-r", "--r", "0"),
        ("compute", "--family", "stirling1", "--arg", "0"),
        ("compute", "--family", "multi-poly-genocchi", "--ks", "1", "--r", "2"),
        ("compute", "--family", "genocchi", "--lambda", "0.5"),
        ("compute", "--family", "genocchi", "--arg", "x"),
        ("compute", "--family", "genocchi", "--n-max", "-1"),
        ("compute", "--family", "nope"),
        ("verify", "--identity", "nope"),
        ("verify", "--identity", "thm1", "--r", "3-1"),
        ("verify", "--identity", "thm1", "--r", "2", "--ks", "1"),
        ("verify", "--identity", "thm1", "--ks", ""),
        ("bogus",),
    ],
)
def test_usage_errors_exit_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr != ""


@pytest.mark.parametrize(
    "command", [["compute", "--family", "genocchi"], ["verify", "--identity", "thm1"]]
)
def test_negative_n_max_is_a_usage_error_of_either_subcommand(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--n-max", "-1"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("usage: ")
    assert err.splitlines()[-1] == "degenpoly: error: --n-max must be nonnegative"


@pytest.mark.parametrize(
    "pin,args,code",
    PINNED_RUNS,
    ids=[" ".join(a) if p.startswith("sha256:") else p for p, a, _ in PINNED_RUNS],
)
def test_golden_files_regenerate_byte_exact(pin, args, code):
    returncode, data = pinned_output(args)
    assert returncode == code
    assert matches(pin, data)


def test_determinism_repeated_invocations():
    args = ["compute", "--family", "multi-poly-genocchi", "--ks", "2,-1", "--n-max", "6"]
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.stdout == b.stdout
    va = run_cli("verify", "--identity", "thm1", "--ks", "1,2", "--n-max", "6", "--format", "json")
    vb = run_cli("verify", "--identity", "thm1", "--ks", "1,2", "--n-max", "6", "--format", "json")
    assert va.stdout == vb.stdout


def test_classical_genocchi_csv_rows():
    golden = (DATA_DIR / "genocchi_lam0_arg0_n8.csv").read_text()
    rows = golden.splitlines()
    assert rows[0] == "n,monomial,coeff"
    coeffs = [row.split(",")[2] for row in rows[2:]]  # n = 1..8
    assert coeffs == ["1", "-1", "0", "1", "0", "-3", "0", "17"]


def test_stirling_golden_row():
    payload = json.loads((DATA_DIR / "stirling1_sym_n3.json").read_text())
    row = next(r for r in payload["records"] if r["n"] == 3 and r["k"] == 2)
    assert row["value"] == "3*lambda - 3"


def test_multi_poly_genocchi_k1_matches_genocchi_per_n():
    multi = json.loads((DATA_DIR / "multi_poly_genocchi_k1_sym_n6.json").read_text())
    plain = json.loads((DATA_DIR / "genocchi_sym_n6.json").read_text())
    assert len(multi["records"]) == len(plain["records"]) == 7
    for a, b in zip(multi["records"], plain["records"]):
        assert a["n"] == b["n"]
        assert a["value"] == b["value"]
        assert a["value_terms"] == b["value_terms"]


def test_verify_exit_codes(tmp_path):
    ok = run_cli("verify", "--identity", "basics", "--n-max", "5")
    assert ok.returncode == 0
    assert "all 3 reports passed" in ok.stdout
    bad = run_cli("verify", "--identity", "eq15", "--ks", "1", "--n-max", "5", "--corrupt")
    assert bad.returncode == 1
    assert "FAILED" in bad.stdout
    assert "lhs:" in bad.stdout and "rhs:" in bad.stdout


def test_tables_print_integers_past_the_int_str_digit_limit():
    # k = 1500 puts n^1500 in the denominators, past CPython's 4300-digit
    # int/str limit: a valid table all the same, so it exits 0
    proc = run_cli("compute", "--family", "poly-genocchi", "--ks", "1500", "--n-max", "8")
    assert proc.returncode == 0, proc.stderr
    records = json.loads(proc.stdout)["records"]
    assert max(len(coeff) for rec in records for _, coeff in rec["value_terms"]) > 4300
    built = poly_genocchi_deg(1500, "x", 8).values
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the oracle's int() reads the long integers
    try:
        assert [read_poly(rec["value"]) for rec in records] == list(built)
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_failed_identity_past_the_int_str_digit_limit_exits_1():
    # its failing cells render coefficients past the limit; exit 1 must
    # still mean a failed identity, not a usage error (2)
    argv = ("verify", "--identity", "thm1", "--ks", "1500", "--n-max", "8")
    assert run_cli(*argv).returncode == 0
    bad = run_cli(*argv, "--corrupt")
    assert bad.returncode == 1, bad.stderr
    assert "FAILED" in bad.stdout and bad.stderr == ""


# the ids that run once per n_max, not once per k-list
PER_N_IDS = ("eq19", "reduction", "basics")


@pytest.mark.parametrize("identity", PER_N_IDS)
@pytest.mark.parametrize(
    "flags", [("--ks", "1,2"), ("--r", "2"), ("--ks", "1", "--r", "1")]
)
def test_verify_basics_rejects_ks_and_r(flags, identity):
    # a per-n_max id runs no k-list checker, so these flags would be silently ignored
    proc = run_cli("verify", "--identity", identity, "--n-max", "2", *flags)
    assert proc.returncode == 2
    assert proc.stdout == ""
    message = f"degenpoly: error: --identity {identity} takes no --ks or --r"
    assert proc.stderr.splitlines()[-1] == message


@pytest.mark.parametrize("identity", PER_N_IDS)
def test_verify_basics_accepts_explicit_sweep(identity):
    proc = run_cli("verify", "--identity", identity, "--n-max", "2", "--ks", "sweep")
    assert proc.returncode == 0


def test_verify_thm1_spec_example():
    proc = run_cli("verify", "--identity", "thm1", "--r", "2", "--ks", "1,2", "--n-max", "8")
    assert proc.returncode == 0
    assert "PASS Thm1 ks=1,2 n_max=8 cells=7" in proc.stdout


def test_verify_prop4_trivial_cell():
    proc = run_cli("verify", "--identity", "prop4", "--ks", "1", "--n-max", "0")
    assert proc.returncode == 0
    assert "cells=1" in proc.stdout


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_sweep_that_checks_nothing_exits_2(fmt):
    # at --n-max 0 the default sweep skips every k-list, so thm1 would run no report
    proc = run_cli("verify", "--identity", "thm1", "--n-max", "0", "--format", fmt)
    assert proc.returncode == 2
    assert proc.stdout == ""
    message = "degenpoly: error: no sweep k-list is short enough for --n-max 0"
    assert proc.stderr.splitlines()[-1] == message
    # all still checks the Eq19 and basics cells there
    full = run_cli("verify", "--identity", "all", "--n-max", "0", "--format", fmt)
    assert full.returncode == 0
    if fmt == "json":
        assert json.loads(full.stdout)["reports"]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("identity, r, n_max", [("thm1", "1", "0"), ("cor2", "3", "2")])
def test_verify_sweep_whose_every_report_is_vacuous_exits_2(identity, r, n_max, fmt):
    # --r keeps sweep k-lists longer than n_max; each gives a zero-cell report
    args = ("verify", "--identity", identity, "--r", r, "--n-max", n_max, "--format", fmt)
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    message = "degenpoly: error: every report is vacuous: no sweep k-list checks a cell"
    assert proc.stderr.splitlines()[-1] == f"{message} at --n-max {n_max}"


def test_verify_r_filter_restricts_sweep():
    proc = run_cli(
        "verify", "--identity", "eq15", "--r", "2", "--n-max", "4", "--format", "json"
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["passed"] is True
    assert len(payload["reports"]) == 16
    assert all(len(rep["params"]["ks"]) == 2 for rep in payload["reports"])


def test_verify_json_structure():
    proc = run_cli(
        "verify", "--identity", "eq15", "--ks", "2,1", "--n-max", "5", "--format", "json"
    )
    payload = json.loads(proc.stdout)
    assert payload["meta"]["identity"] == "eq15"
    assert payload["passed"] is True
    (report,) = payload["reports"]
    assert report["identity_id"] == "Eq15"
    assert report["params"]["ks"] == [2, 1]
    assert all(cell["passed"] for cell in report["cells"])


def test_out_dir_env_override(tmp_path):
    proc = run_cli(
        "compute", "--family", "genocchi", "--n-max", "2", "--out", "table.json",
        env_extra={"DEGENPOLY_OUT_DIR": str(tmp_path)},
    )
    assert proc.returncode == 0
    assert (tmp_path / "table.json").exists()
    # absolute --out ignores the override
    target = tmp_path / "abs.json"
    proc = run_cli(
        "compute", "--family", "genocchi", "--n-max", "2", "--out", str(target),
        env_extra={"DEGENPOLY_OUT_DIR": str(tmp_path / "elsewhere")},
    )
    assert proc.returncode == 0
    assert target.exists()


@pytest.mark.parametrize(
    "args",
    [
        ("compute", "--family", "genocchi", "--n-max", "3"),
        ("verify", "--identity", "thm1", "--ks", "1,2", "--n-max", "3"),
    ],
)
def test_out_stdout_writes_to_stdout_not_a_file(args, tmp_path):
    dash = run_cli(*args, "--out", "-", env_extra={"DEGENPOLY_OUT_DIR": str(tmp_path)})
    named = run_cli(*args, "--out", "stdout", env_extra={"DEGENPOLY_OUT_DIR": str(tmp_path)})
    assert dash.returncode == named.returncode == 0
    assert named.stdout == dash.stdout != ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ("compute", "--family", "genocchi", "--n-max", "2"),
        ("verify", "--identity", "vanishing", "--ks", "1", "--n-max", "2"),
    ],
)
def test_unwritable_out_exits_2_without_partial_file(args, tmp_path):
    target = tmp_path / "missing" / "x.json"
    proc = run_cli(*args, "--out", str(target))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "cannot write --out" in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
@pytest.mark.parametrize(
    "args",
    [
        ("compute", "--family", "genocchi", "--n-max", "0", "--format", "csv"),
        ("verify", "--identity", "vanishing", "--ks", "1", "--n-max", "0"),
    ],
)
def test_unwritable_stdout_exits_2_without_traceback(args):
    # exit 1 means an identity failed, so an I/O error must not end in one
    with open("/dev/full", "w") as full:
        proc = run_cli(*args, stdout=full)
    assert proc.returncode == 2
    assert proc.stderr.startswith("degenpoly: error: cannot write to stdout: ")
    assert len(proc.stderr.splitlines()) == 1


def test_r_range_is_not_materialised(capsys):
    # a set of 10^12 ints would not fit in memory; a range tests membership in O(1)
    argv = ["verify", "--identity", "vanishing", "--r", "1-1000000000000", "--n-max", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("all 29 reports passed\n")


@pytest.mark.parametrize(
    "args",
    [
        ("compute", "--family", "genocchi", "--n-max", "2"),
        ("verify", "--identity", "vanishing", "--ks", "1", "--n-max", "2"),
    ],
)
def test_out_replaces_file_and_leaves_no_temp(args, tmp_path):
    target = tmp_path / "x.out"
    target.write_text("stale contents that are longer than nothing\n")
    proc = run_cli(*args, "--out", str(target))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert target.read_text() == run_cli(*args).stdout
    assert list(tmp_path.iterdir()) == [target]


def test_verify_vacuous_report_is_labelled():
    args = ("verify", "--identity", "cor2", "--ks", "1,2,3", "--n-max", "2")
    text = run_cli(*args)
    assert text.returncode == 0
    assert text.stdout.splitlines()[0] == "VACUOUS Cor2 ks=1,2,3 n_max=2 cells=0"
    data = run_cli(*args, "--format", "json")
    assert data.returncode == 0
    (report,) = json.loads(data.stdout)["reports"]
    assert report["vacuous"] is True and report["passed"] is True
    # reports with cells carry no vacuous key
    full = run_cli("verify", "--identity", "cor2", "--ks", "1", "--n-max", "2", "--format", "json")
    assert "vacuous" not in json.loads(full.stdout)["reports"][0]


def test_identity_choices_come_from_verify():
    from degenpoly import cli, verify

    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    identity = next(a for a in sub.choices["verify"]._actions if a.dest == "identity")
    assert tuple(identity.choices) == verify.IDENTITY_CHOICES


def test_one_parser_serves_consecutive_in_process_calls(capsys, monkeypatch):
    # argparse wraps usage text to the terminal width; fix it for both runs
    monkeypatch.setenv("COLUMNS", "80")
    from degenpoly import cli

    runs = [
        ("compute", "--family", "genocchi", "--n-max", "-1"),
        ("compute", "--family", "genocchi-r", "--r", "2", "--n-max", "3", "--lambda", "2/4"),
        ("--version",),
        ("verify", "--identity", "thm1", "--ks", "1,2", "--n-max", "3", "--format", "json"),
        ("bogus",),
    ]
    cli.build_parser.cache_clear()
    codes = []
    for args in runs:
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        proc = run_cli(*args)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), args
        codes.append(code)
    assert codes == [2, 0, 0, 0, 2]
    assert cli.build_parser.cache_info().misses == 1


def test_verify_vanishing_from_cli():
    proc = run_cli("verify", "--identity", "vanishing", "--ks", "1,2", "--n-max", "4")
    assert proc.returncode == 0
    assert "PASS Vanishing ks=1,2 n_max=4 cells=2" in proc.stdout


# written out here, not read from cli.FAMILIES, so that a changed id fails
FAMILY_IDS = {
    "genocchi": "GenocchiDeg",
    "genocchi-r": "GenocchiDegOrderR",
    "euler-r": "EulerDegOrderR",
    "poly-genocchi": "PolyGenocchiDeg",
    "multi-poly-genocchi": "MultiPolyGenocchiDeg",
    "stirling1": "Stirling1Deg",
    "multi-polyexp": "MultiPolyExpDeg",
}

MINIMAL_FAMILY_ARGS = {
    "genocchi-r": ["--r", "1"],
    "euler-r": ["--r", "1"],
    "poly-genocchi": ["--ks", "1"],
    "multi-poly-genocchi": ["--ks", "1"],
    "multi-polyexp": ["--ks", "1"],
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_every_family_runs_with_minimal_args(family, capsys):
    argv = ["compute", "--family", family, "--n-max", "2", *MINIMAL_FAMILY_ARGS.get(family, [])]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["meta"]["family"] == family
    assert {rec["n"] for rec in payload["records"]} == {0, 1, 2}
    assert {rec["family_id"] for rec in payload["records"]} == {FAMILY_IDS[family]}
