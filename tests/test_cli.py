"""Command-line behavior: schemas, exit codes, determinism, error paths."""
from __future__ import annotations

import csv
import hashlib
import io
import json

import pytest
from mpmath import mp

from tfreud.cli import RunConfig, build_parser, main, round_half_away, write_table
from tfreud.kernel import PrecisionContext, default_bits


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [ln for ln in text.strip().split("\n") if ln]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_round_half_away():
    assert round_half_away(mp.mpf("0.48885"), 4) == "0.4889"
    assert round_half_away(mp.mpf("0.48884999"), 4) == "0.4888"
    assert round_half_away(mp.mpf("-1.98435"), 4) == "-1.9844"
    assert round_half_away(mp.mpf("2.5"), 0) == "3"
    assert round_half_away(mp.mpf("-0.00004"), 4) == "-0.0000" or \
        round_half_away(mp.mpf("-0.00004"), 4) == "0.0000"


def test_round_half_away_rounds_the_exact_value():
    # 2^-300 / 10^4 off a decimal tie, held at 600 bits: a rounding of the
    # value to 256 bits would land on the tie's lower side both times
    for sign, prefix in ((1, ""), (-1, "-")):
        with mp.workprec(600):
            off = mp.mpf(2) ** -300 / 10 ** 4
            above, below = sign * (mp.mpf("1.23455") + off), sign * (mp.mpf("1.23455") - off)
            # exact binary ties go away from zero
            ties = sign * mp.mpf("2.5"), sign * mp.mpf("0.125")
        assert round_half_away(above, 4) == prefix + "1.2346"
        assert round_half_away(below, 4) == prefix + "1.2345"
        assert round_half_away(ties[0], 0) == prefix + "3"
        assert round_half_away(ties[1], 2) == prefix + "0.13"


def test_moments_default_row_count(capsys):
    code, out, _ = run_cli(capsys, "moments")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["n", "mu_n"]
    assert len(rows) == 30
    assert rows[3]["mu_n"] == "0.25"


def test_moments_json_matches_csv(capsys):
    code, out_csv, _ = run_cli(capsys, "moments", "--n-max", "3")
    assert code == 0
    code, out_json, _ = run_cli(capsys, "moments", "--n-max", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out_json)
    assert payload["meta"]["n_max"] == 3
    assert payload["meta"]["version"]
    _, rows = csv_rows(out_csv)
    assert len(payload["data"]) == len(rows)
    for rec, row in zip(payload["data"], rows):
        assert rec["mu_n"] == row["mu_n"]
        assert rec["n"] == int(row["n"])


def test_coeffs_schema_and_trend(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--n-max", "12")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["n", "a_n", "b_n", "h_n", "ratio_a", "ratio_b"]
    assert rows[0]["a_n"] == "0.0"
    assert rows[0]["ratio_a"] == "" and rows[0]["ratio_b"] == ""
    assert round_half_away(mp.mpf(rows[0]["b_n"]), 4) == "0.4889"
    dev4 = abs(mp.mpf(rows[4]["ratio_a"]) - 1)
    dev12 = abs(mp.mpf(rows[12]["ratio_a"]) - 1)
    assert dev12 < dev4


def test_coeffs_scaling_between_files(capsys):
    code, out1, _ = run_cli(capsys, "coeffs", "--n-max", "6")
    assert code == 0
    code, out16, _ = run_cli(capsys, "coeffs", "--n-max", "6", "--z", "16")
    assert code == 0
    _, r1 = csv_rows(out1)
    _, r16 = csv_rows(out16)
    for n in (1, 4, 6):
        a1, a16 = mp.mpf(r1[n]["a_n"]), mp.mpf(r16[n]["a_n"])
        b1, b16 = mp.mpf(r1[n]["b_n"]), mp.mpf(r16[n]["b_n"])
        assert abs(a16 * 4 / a1 - 1) < mp.mpf("1e-30")
        assert abs(b16 * 2 / b1 - 1) < mp.mpf("1e-30")


def test_zeros_default_schema(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--n-max", "4")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["n", "smallest", "largest"]
    assert [r["n"] for r in rows] == ["1", "2", "3", "4"]


def test_zeros_all_zeros_count(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--n-max", "3", "--all-zeros")
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 6
    third = [mp.mpf(r["x"]) for r in rows if r["n"] == "3"]
    assert len(third) == 3
    assert third[0] < third[1] < third[2]


def test_table_check_reports_divergences(capsys):
    code, out, err = run_cli(capsys, "zeros", "--table-check")
    assert code == 1
    assert "3 of 28" in err
    _, rows = csv_rows(out)
    assert len(rows) == 28
    bad = {(r["n"], r["which"]) for r in rows if r["match"] == "False"}
    assert bad == {("13", "largest"), ("14", "smallest"), ("14", "largest")}
    matches = [r for r in rows if r["match"] == "True"]
    assert len(matches) == 25
    for r in rows:
        assert round_half_away(mp.mpf(r["computed"]), 4) == r["rounded"]


def test_table_check_rejects_other_z(capsys):
    code, _, err = run_cli(capsys, "zeros", "--table-check", "--z", "2")
    assert code == 2
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_density_columns(capsys):
    code, out, _ = run_cli(capsys, "density", "--bits", "128")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["x", "omega", "beta_t", "normalization"]
    assert len(rows) == 64
    beta = mp.mpf(rows[0]["beta_t"])
    assert abs(beta - 4 * mp.mpf(140) ** mp.mpf("-0.25")) < mp.mpf("1e-30")
    assert abs(mp.mpf(rows[0]["normalization"]) - 1) < mp.mpf("1e-6")
    assert all(mp.mpf(0) < mp.mpf(r["x"]) < beta for r in rows)


def test_json_meta_reports_z_only_where_z_is_read(capsys, tmp_path):
    # density takes no --z and its table does not depend on z
    code, out, _ = run_cli(capsys, "density", "--bits", "128", "--format", "json")
    assert code == 0
    meta = json.loads(out)["meta"]
    assert list(meta) == ["n_max", "bits", "version"]
    code, out, _ = run_cli(capsys, "zeros", "--n-max", "2", "--z", "16", "--format", "json")
    assert code == 0
    assert json.loads(out)["meta"]["z"] == "16.0"
    # verify reads --z where it is given and checks 1/4, 1 and 4 otherwise
    for given, meta in (((), ["n_max", "bits", "version"]),
                        (("--z", "4"), ["z", "n_max", "bits", "version"])):
        path = tmp_path / "verify.json"
        code, _, _ = run_cli(capsys, "verify", "--n-max", "8", *given, "--format", "json",
                             "--out", str(path))
        assert code == 0
        assert list(json.loads(path.read_text())["meta"]) == meta


def test_density_multiple_t_files(tmp_path, capsys):
    out = tmp_path / "dens.csv"
    code, _, _ = run_cli(capsys, "density", "--t", "0.5", "--t", "1", "--t", "2",
                         "--bits", "128", "--out", str(out))
    assert code == 0
    made = sorted(p.name for p in tmp_path.iterdir())
    assert made == ["dens_t0.5.csv", "dens_t1.csv", "dens_t2.csv"]


def test_density_multiple_t_files_in_a_dotted_directory(tmp_path, capsys):
    # only the file name's suffix is split: a dot in a directory name stays
    out_dir = tmp_path / "out.d"
    out_dir.mkdir()
    for name in ("dens", "dens.csv"):
        code, _, _ = run_cli(capsys, "density", "--t", "1", "--t", "2", "--bits", "128",
                             "--out", str(out_dir / name))
        assert code == 0
    made = sorted(p.name for p in out_dir.iterdir())
    assert made == ["dens_t1", "dens_t1.csv", "dens_t2", "dens_t2.csv"]
    assert [p.name for p in tmp_path.iterdir()] == ["out.d"]


def test_decimal_arguments_parsed_at_run_precision(capsys):
    # a fresh interpreter runs at 53 bits: --z and --t must be read at the
    # run's precision, not rounded to that
    ctx = PrecisionContext(default_bits(1))
    with mp.workprec(53):
        code, out, _ = run_cli(capsys, "moments", "--z", "0.1", "--n-max", "1")
    assert code == 0
    mu_0 = mp.mpf(csv_rows(out)[1][0]["mu_n"])
    exact = mp.mpf("0.1") ** mp.mpf("-0.25") * mp.gamma(mp.mpf("0.25")) / 4
    assert abs(mu_0 - exact) <= ctx.verify_tol(exact)
    with mp.workprec(53):
        code, out, _ = run_cli(capsys, "density", "--t", "0.3", "--n-max", "1")
    assert code == 0
    beta_t = mp.mpf(csv_rows(out)[1][0]["beta_t"])
    exact = 4 * mp.mpf(140) ** mp.mpf("-0.25") * mp.mpf("0.3") ** mp.mpf("0.25")
    assert abs(beta_t - exact) <= ctx.verify_tol(exact)


def test_epsilon_parsed_at_run_precision():
    with mp.workprec(53):
        cfg = RunConfig.from_args(build_parser().parse_args(["verify"]))
    ctx = PrecisionContext(cfg.bits)
    assert abs(cfg.epsilon - mp.mpf("1e-3")) <= ctx.verify_tol(mp.mpf("1e-3"))


def test_verify_passes_and_writes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(capsys, "verify", "--n-max", "8", "--format", "json",
                              "--out", str(out))
    assert code == 0
    assert "OVERALL PASS" in stdout
    payload = json.loads(out.read_text())
    assert all(rec["passed"] for rec in payload["data"])


def test_verify_fault_injection_exit(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "--n-max", "8",
                              "--fault-inject", "a:3:1e-6")
    assert code == 1
    assert "OVERALL FAIL" in stdout
    assert "FAIL lf-eq1" in stdout


@pytest.mark.parametrize("argv", [("coeffs", "--z", "1e-30", "--n-max", "16"),
                                  ("coeffs", "--z", "1e200", "--n-max", "16"),
                                  ("zeros", "--z", "1e-400", "--n-max", "3")])
def test_extreme_z_tables_build(argv, capsys):
    # well-conditioned tables at z far from 1 (1e-400 is below the binary64
    # range) are no precision exhaustion
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert len(csv_rows(out)[1]) == int(argv[-1]) + (argv[0] == "coeffs")


def test_verify_bad_fault_spec(capsys):
    code, _, err = run_cli(capsys, "verify", "--fault-inject", "nope")
    assert code == 2
    assert err.startswith("error:")
    # a delta that is not finite is a bad spec too, refused before any table
    for spec in ("a:3:inf", "b:3:inf", "b:3:nan", "a:3:nan"):
        code, _, err = run_cli(capsys, "verify", "--n-max", "8", "--z", "1",
                               "--fault-inject", spec)
        assert code == 2, spec
        assert err.startswith("error: fault spec"), spec


def test_figures_writes_five_files(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "figures", "--bits", "192",
                              "--out", str(tmp_path))
    assert code == 0
    made = sorted(p.name for p in tmp_path.iterdir())
    assert made == [
        "figure1_density.csv",
        "figure2_zero_extremes.csv",
        "figure3_transforms.csv",
        "figure4_chebyshev.csv",
        "figure5_ptilde.csv",
    ]
    _, rows = csv_rows((tmp_path / "figure4_chebyshev.csv").read_text())
    beta = 2 * mp.mpf(140) ** mp.mpf("-0.25")
    assert abs(mp.mpf(rows[0]["y_n1"]) - beta) < mp.mpf("1e-30")


def test_round_flag(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--n-max", "2", "--round", "4")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[0]["smallest"] == "0.4889"
    assert rows[1]["largest"] == "0.8808"


def test_output_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "coeffs", "--n-max", "6", "--out", str(a))
    run_cli(capsys, "coeffs", "--n-max", "6", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, exit_code, sha256", [
    (("zeros", "--all-zeros", "--n-max", "12"), 0,
     "a7c45b5fb1379ad54a2534b2aa9d07c94caf44a97f328e2b10df8d658604bc2a"),
    (("zeros", "--table-check"), 1,
     "0237b2140481b4b9bf066e0ef7e3aa82d12e61f62b3a3d80a0e472e06347140d"),
    (("verify", "--n-max", "8"), 0,
     "3e203c3fb99f81a7ded37e74917b855c2a3191db0defbf59236cafe8160b1609"),
], ids=["zeros-all-12", "zeros-table-check", "verify-8"])
def test_zeros_output_bits_pinned(capsys, argv, exit_code, sha256):
    # byte-identical output is a contract: any change to these digests must
    # be a deliberate, documented change of the computed zeros or records
    code, out, _ = run_cli(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("argv, sha256", [
    (("coeffs", "--n-max", "160"),
     "cc698fd8dfa31d6704e691139f7fadf89535ee6e95e140735fe4c9bc05740f7b"),
    (("moments", "--n-max", "160"),
     "3b54438a5a818398be6b7d7901c53ad9692f825bc15bda64874d7a0df6ab0ab2"),
    (("coeffs", "--n-max", "40", "--z", "0.1"),
     "3397923b5c79000981646618a193be694ec4819c95efe2fe7d6f5ceaa331c2f2"),
], ids=["coeffs-160", "moments-160", "coeffs-40-z0.1"])
def test_moment_route_output_bits_pinned(capsys, argv, sha256):
    # the moments and coefficients do not depend on which route computed
    # the moments: the recurrence route must print the closed form's bits
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_verify_out_file_bits_pinned(tmp_path, capsys):
    # stdout prints 4 digits; the --out file carries every residual at full
    # precision, so this digest guards what the stdout digest cannot see
    out = tmp_path / "f.csv"
    code, _, _ = run_cli(capsys, "verify", "--n-max", "8", "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "d68b56f4c534698b7bd228e1a1aae56e7e18f212c8336d4ee0785570b9306cda"


def test_verify_out_file_bits_pinned_n_max_32(tmp_path, capsys):
    # every degree's residual of the sampled records at n_max 32 comes from
    # one range call per function and z; its full-precision bits are pinned
    out = tmp_path / "f.csv"
    code, _, _ = run_cli(capsys, "verify", "--n-max", "32", "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "190b3a060cd712deff04d16c4a7e4a3aa5ca9e6ca0593d6148ef833826b6e984"


def test_verify_out_csv_keeps_six_fields(tmp_path, capsys):
    # z_values ("0.25,1.0,4.0") and stationarity's n_range ("6,8") hold
    # commas; quoting keeps every row at the header's six fields
    out = tmp_path / "f.csv"
    run_cli(capsys, "verify", "--n-max", "8", "--out", str(out))
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["name", "n_range", "z_values", "residual", "tolerance", "passed"]
    assert len(rows) == 29
    assert all(len(row) == 6 for row in rows)
    assert ["stationarity", "6,8", "1"] == rows[24][:3]


@pytest.mark.parametrize("argv", [
    ("figures", "--z", "2"),
    ("coeffs", "--t", "1"),
    ("density", "--z", "2"),
    ("coeffs", "--epsilon", "0"),
    ("moments", "--fault-inject", "zz"),
    ("moments", "--all-zeros"),
    ("verify", "--table-check"),
])
def test_option_the_subcommand_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_errors(capsys):
    for argv in (["moments", "--z", "-1"],
                 ["moments", "--bits", "32"],
                 ["moments", "--n-max", "0"],
                 ["density", "--t", "-2"],
                 ["zeros", "--round", "-1"],
                 ["verify", "--epsilon", "0"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("moments", "--z", "inf"),
    ("coeffs", "--z", "inf"),
    ("zeros", "--z", "inf"),
    ("verify", "--z", "inf"),
    ("moments", "--z", "nan"),
    ("verify", "--epsilon", "inf"),
    ("density", "--t", "1", "--t", "inf"),
])
def test_non_finite_arguments_exit_2(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "positive and finite" in err
    assert err.count("\n") == 1


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_csv_join_matches_csv_writer(capsys):
    # write_table quotes by hand; its bytes are those of csv.writer with
    # minimal quoting on cells holding commas, quotes, newlines, a carriage
    # return (which neither quotes) or nothing
    cfg = RunConfig.from_args(build_parser().parse_args(["moments"]))
    columns = ["plain", "comma,cell", 'say "x"']
    rows = [["1", "0.25,1.0,4.0", 'a "quoted" word'], ["", "two\nlines", '"'],
            ["", "", ""], ["cr\r", ",", '","']]
    write_table(cfg, columns, [dict(zip(columns, r)) for r in rows])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([columns, *rows])
    assert capsys.readouterr().out == buf.getvalue()
