import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ordpat import TimeSeries, analyze_pair, read_csv
from ordpat.cli import main, write_csv


def run_cli(*args):
    """In-process invocation; returns (exit_code, stdout, stderr)."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


def run_cli_bytes(*args):
    """Subprocess invocation for byte-level determinism checks."""
    proc = subprocess.run(
        [sys.executable, "-m", "ordpat", *[str(a) for a in args]],
        capture_output=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def pair_files(tmp_path):
    code, _, err = run_cli(
        "simulate", "ar1", "--n", 60, "--phi", 0.8, "--rho", -0.8, "--seed", 5,
        "--out-x", tmp_path / "x.csv", "--out-y", tmp_path / "y.csv",
    )
    assert code == 0, err
    return tmp_path / "x.csv", tmp_path / "y.csv"


# --- dist -----------------------------------------------------------------


def test_dist_lists_every_pattern_in_rank_order(pair_files):
    x, _ = pair_files
    code, out, _ = run_cli("dist", "--x", x, "--h", 2)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "pattern\tcount\tfreq"
    body = [l.split("\t") for l in lines[1:]]
    assert [row[0] for row in body[:-1]] == [
        "(0,1,2)", "(0,2,1)", "(1,0,2)", "(1,2,0)", "(2,0,1)", "(2,1,0)"
    ]
    assert body[-1][0] == "total"
    assert body[-1][1] == "58"
    assert body[-1][2] == "1.000000"
    counts = [int(row[1]) for row in body[:-1]]
    assert sum(counts) == 58


def test_dist_constant_series_single_row(tmp_path):
    path = tmp_path / "const.csv"
    path.write_text("key,value\n" + "".join(f"{i},5.0\n" for i in range(10)))
    code, out, _ = run_cli("dist", "--x", path, "--h", 2)
    assert code == 0
    rows = [l.split("\t") for l in out.strip().split("\n")[1:-1]]
    nonzero = [r for r in rows if r[1] != "0"]
    assert nonzero == [["(0,1,2)", "8", "1.000000"]]


def test_dist_markdown(pair_files):
    x, _ = pair_files
    code, out, _ = run_cli("dist", "--x", x, "--h", 2, "--format", "md")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "| pattern | count | freq |"
    assert lines[1] == "| --- | --- | --- |"
    assert len(lines) == 2 + 6 + 1


def test_dist_json_frequencies_sum_to_one(pair_files):
    x, _ = pair_files
    code, out, _ = run_cli("dist", "--x", x, "--h", 3, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 57
    assert len(payload["rows"]) == 24
    assert sum(r["count"] for r in payload["rows"]) == 57
    assert sum(r["freq"] for r in payload["rows"]) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "command",
    [
        ("dist",),
        ("delay", "--from-delay", -2, "--to-delay", 2),
        ("rolling", "--window", 20),
    ],
    ids=lambda c: c[0],
)
def test_json_reports_the_epsilon_used(pair_files, command):
    x, y = pair_files
    name, *flags = command
    inputs = ["--x", x] if name == "dist" else ["--x", x, "--y", y]
    args = [name, *inputs, "--h", 3, *flags, "--format", "json"]
    _, plain, _ = run_cli(*args)
    code, loose, err = run_cli(*args, "--epsilon", 0.25)
    assert code == 0, err
    assert json.loads(plain)["epsilon"] == 0.0
    assert json.loads(loose)["epsilon"] == 0.25
    assert list(json.loads(loose))[:4] == ["command", "h", "scheme", "epsilon"]


def test_dist_epsilon_flag(tmp_path):
    path = tmp_path / "near.csv"
    path.write_text("key,value\n0,1.0\n1,1.0000001\n2,0.5\n")
    _, strict, _ = run_cli("dist", "--x", path, "--h", 2)
    _, loose, _ = run_cli("dist", "--x", path, "--h", 2, "--epsilon", 1e-3)
    assert "(1,0,2)\t1" in strict
    assert "(0,1,2)\t1" in loose


def test_dist_golden_fixture_frozen_output(fixtures_dir):
    code, out, _ = run_cli("dist", "--x", fixtures_dir / "golden_x.csv", "--h", 3)
    assert code == 0
    frozen = (fixtures_dir / "golden_dist_h3.tsv").read_text()
    assert out == frozen


# --- analyze --------------------------------------------------------------


def test_analyze_golden_fixture_frozen_output(fixtures_dir):
    code, out, _ = run_cli(
        "analyze", "--x", fixtures_dir / "golden_x.csv",
        "--y", fixtures_dir / "golden_y.csv", "--h", 2,
    )
    assert code == 0
    assert out == (fixtures_dir / "golden_analyze_h2.tsv").read_text()


def test_analyze_antisymmetric_fixture(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.standard_normal(40)
    keys = tuple(str(i) for i in range(40))
    write_csv(TimeSeries(keys, values), tmp_path / "x.csv")
    write_csv(TimeSeries(keys, -values), tmp_path / "y.csv")
    code, out, _ = run_cli(
        "analyze", "--x", tmp_path / "x.csv", "--y", tmp_path / "y.csv", "--h", 2
    )
    assert code == 0
    assert "p_neq\t1.000000" in out


def test_analyze_json_round_trips_report_exactly(pair_files):
    x, y = pair_files
    code, out, _ = run_cli(
        "analyze", "--x", x, "--y", y, "--h", 3, "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    sx = read_csv(x, "key", "value")
    sy = read_csv(y, "key", "value")
    rep = analyze_pair(sx, sy, 3)
    assert payload["report"] == {
        "h": rep.h,
        "n_windows": rep.n_windows,
        "n_coincident": rep.n_coincident,
        "n_reflected": rep.n_reflected,
        "p_eq": rep.p_eq,
        "p_neq": rep.p_neq,
        "base_eq": rep.base_eq,
        "base_neq": rep.base_neq,
        "alpha_tilde": rep.alpha_tilde,
        "beta_tilde": rep.beta_tilde,
        "z_eq": rep.z_eq,
        "z_neq": rep.z_neq,
    }


def test_analyze_distinct_value_columns(tmp_path):
    # one file holding both columns, compared against itself
    rows = "".join(f"{i},{i}.0,{10 - i}.0\n" for i in range(10))
    path = tmp_path / "both.csv"
    path.write_text("key,up,down\n" + rows)
    code, out, _ = run_cli(
        "analyze", "--x", path, "--y", path,
        "--x-value", "up", "--y-value", "down", "--h", 2,
    )
    assert code == 0
    assert "p_neq\t1.000000" in out


def test_analyze_reports_dropped_rows(tmp_path):
    (tmp_path / "a.csv").write_text("key,value\nd1,1.0\nd2,2.0\nd3,3.0\nd4,2.5\n")
    (tmp_path / "b.csv").write_text("key,value\nd1,5.0\nd3,4.0\nd4,4.5\nd9,1.0\n")
    code, out, _ = run_cli(
        "analyze", "--x", tmp_path / "a.csv", "--y", tmp_path / "b.csv", "--h", 1
    )
    assert code == 0
    assert "dropped_x\t1" in out
    assert "dropped_y\t1" in out


# --- delay / rolling --------------------------------------------------------


def test_delay_range_and_zero_row_matches_analyze(pair_files):
    x, y = pair_files
    code, out, _ = run_cli(
        "delay", "--x", x, "--y", y, "--h", 2, "--from-delay", -1, "--to-delay", 1
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4  # header + three delays
    zero_row = [l for l in lines if l.startswith("0\t")][0]
    _, abody, _ = run_cli("analyze", "--x", x, "--y", y, "--h", 2)
    fields = dict(l.split("\t") for l in abody.strip().split("\n")[1:])
    cells = zero_row.split("\t")
    assert cells[1] == fields["n_windows"]
    assert cells[2] == fields["n_coincident"]
    assert cells[3] == fields["n_reflected"]
    assert cells[4] == fields["alpha_tilde"]
    assert cells[5] == fields["beta_tilde"]


@pytest.mark.parametrize("fmt", ["tsv", "md", "json"])
@pytest.mark.parametrize(
    "golden, flags",
    [
        ("golden_delay_h3", ("delay", "--from-delay", -3, "--to-delay", 3)),
        ("golden_rolling_h3_w60", ("rolling", "--window", 60)),
        (
            "golden_rolling_h3_block_s7_watch",
            ("rolling", "--window", 60, "--mode", "block", "--step", 7,
             "--watch", "(3,2,1,0),(0,2,1,3)"),
        ),
        (
            "golden_rolling_h3_block_s7_dupwatch",
            ("rolling", "--window", 60, "--mode", "block", "--step", 7,
             "--watch", "(0,1,2,3),(0,1,2,3)"),
        ),
        # Both series constant: every window is the identity pattern, base_eq
        # is 1 and both z-scores are None.
        ("golden_rolling_h3_const", ("rolling", "--window", 20, "--step", 7)),
        # Windows of 107 patterns, one apart: the only golden whose histograms
        # come from prefix rows rather than copied windows.
        ("golden_rolling_h3_w110_s1", ("rolling", "--window", 110, "--step", 1)),
    ],
    ids=[
        "delay", "rolling", "rolling-block-watch", "rolling-dup-watch", "rolling-const",
        "rolling-prefix-rows",
    ],
)
def test_delay_and_rolling_golden_fixture_frozen_output(
    monkeypatch, fixtures_dir, golden, flags, fmt
):
    import ordpat.dependence as dependence

    chunks = []
    prefix_histograms = dependence._prefix_histograms

    def counting(*args):
        for chunk in prefix_histograms(*args):
            chunks.append(chunk)
            yield chunk

    monkeypatch.setattr(dependence, "_prefix_histograms", counting)
    name, *rest = flags
    x, y = ("const", "const") if golden.endswith("const") else ("x", "y")
    code, out, err = run_cli(
        name, "--x", fixtures_dir / f"golden_{x}.csv", "--y", fixtures_dir / f"golden_{y}.csv",
        "--h", 3, *rest, "--format", fmt,
    )
    assert code == 0, err
    assert out == (fixtures_dir / f"{golden}.{fmt}").read_text()
    assert bool(chunks) == golden.endswith("w110_s1")


def test_delay_overflow_is_single_line_error(pair_files):
    x, y = pair_files
    code, out, err = run_cli(
        "delay", "--x", x, "--y", y, "--h", 2, "--from-delay", 59, "--to-delay", 59
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("ordpat: error: DelayTooLarge:")


def test_rolling_row_count_and_full_window(pair_files):
    x, y = pair_files
    code, out, _ = run_cli(
        "rolling", "--x", x, "--y", y, "--h", 2, "--window", 10
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 6  # 60/10 windows
    code, out, _ = run_cli(
        "rolling", "--x", x, "--y", y, "--h", 2, "--window", 60
    )
    lines = out.strip().split("\n")
    assert len(lines) == 2
    _, abody, _ = run_cli("analyze", "--x", x, "--y", y, "--h", 2)
    fields = dict(l.split("\t") for l in abody.strip().split("\n")[1:])
    cells = lines[1].split("\t")
    assert cells[0] == "0" and cells[1] == "59"
    assert cells[3] == fields["n_coincident"]
    assert cells[4] == fields["n_reflected"]


def test_rolling_watch_columns(pair_files):
    x, y = pair_files
    code, out, _ = run_cli(
        "rolling", "--x", x, "--y", y, "--h", 2, "--window", 30,
        "--watch", "(0,1,2),(2,1,0)",
    )
    assert code == 0
    header = out.strip().split("\n")[0].split("\t")
    assert header[-4:] == ["x(0,1,2)", "y(0,1,2)", "x(2,1,0)", "y(2,1,0)"]


def test_rolling_default_watch_at_h3(pair_files):
    x, y = pair_files
    code, out, _ = run_cli("rolling", "--x", x, "--y", y, "--h", 3, "--window", 30)
    assert code == 0
    header = out.strip().split("\n")[0]
    assert "x(0,1,2,3)" in header and "y(1,0,2,3)" in header


# --- simulate / inject --------------------------------------------------------


def test_simulate_deterministic_files(tmp_path):
    args = ("simulate", "walk", "--n", 100, "--seed", 9)
    run_cli(*args, "--out-x", tmp_path / "x1.csv", "--out-y", tmp_path / "y1.csv")
    run_cli(*args, "--out-x", tmp_path / "x2.csv", "--out-y", tmp_path / "y2.csv")
    assert (tmp_path / "x1.csv").read_bytes() == (tmp_path / "x2.csv").read_bytes()
    assert (tmp_path / "y1.csv").read_bytes() == (tmp_path / "y2.csv").read_bytes()


def test_simulate_walk_increment_variance(tmp_path):
    run_cli("simulate", "walk", "--n", 5791, "--seed", 1,
            "--out-x", tmp_path / "x.csv", "--out-y", tmp_path / "y.csv")
    x = read_csv(tmp_path / "x.csv", "key", "value")
    assert abs(np.diff(x.values).var() - 1.0) < 0.1


def test_simulate_ar1_increment_correlation(tmp_path):
    run_cli("simulate", "ar1", "--n", 5791, "--phi", 0.99, "--rho", -0.8, "--seed", 2,
            "--out-x", tmp_path / "x.csv", "--out-y", tmp_path / "y.csv")
    x = read_csv(tmp_path / "x.csv", "key", "value")
    y = read_csv(tmp_path / "y.csv", "key", "value")
    corr = np.corrcoef(np.diff(x.values), np.diff(y.values))[0, 1]
    assert abs(corr - (-0.8)) < 0.05


def test_simulate_ar1_reflected_count_at_scale(tmp_path):
    run_cli("simulate", "ar1", "--n", 5791, "--phi", 0.99, "--rho", -0.8, "--seed", 2,
            "--out-x", tmp_path / "x.csv", "--out-y", tmp_path / "y.csv")
    code, out, _ = run_cli(
        "analyze", "--x", tmp_path / "x.csv", "--y", tmp_path / "y.csv", "--h", 2
    )
    assert code == 0
    fields = dict(l.split("\t") for l in out.strip().split("\n")[1:])
    assert 2950 <= int(fields["n_reflected"]) <= 3250  # Monte Carlo band


@pytest.mark.parametrize("flag, value", [("--phi", 5), ("--rho", 3)])
def test_simulate_walk_refuses_ar1_flags(tmp_path, flag, value):
    out_x = tmp_path / "x.csv"
    code, out, err = run_cli("simulate", "walk", "--n", 50, flag, value,
                             "--out-x", out_x, "--out-y", tmp_path / "y.csv")
    assert (code, out) == (1, "")
    assert err == f"ordpat: error: ValueError: {flag} applies to simulate ar1 only\n"
    assert not out_x.exists()


def test_simulate_ar1_defaults(tmp_path):
    run_cli("simulate", "ar1", "--n", 40, "--seed", 2,
            "--out-x", tmp_path / "x1.csv", "--out-y", tmp_path / "y1.csv")
    run_cli("simulate", "ar1", "--n", 40, "--seed", 2, "--phi", 0.99, "--rho", -0.8,
            "--out-x", tmp_path / "x2.csv", "--out-y", tmp_path / "y2.csv")
    assert (tmp_path / "x1.csv").read_bytes() == (tmp_path / "x2.csv").read_bytes()
    assert (tmp_path / "y1.csv").read_bytes() == (tmp_path / "y2.csv").read_bytes()


def test_inject_zero_outliers_keeps_files_byte_identical(tmp_path):
    run_cli("simulate", "ar1", "--n", 50, "--phi", 0.0, "--rho", 0.0, "--seed", 3,
            "--out-x", tmp_path / "x.csv", "--out-y", tmp_path / "y.csv")
    code, out, _ = run_cli(
        "inject", "--x", tmp_path / "x.csv", "--y", tmp_path / "y.csv",
        "--k", 0, "--magnitude", 10, "--seed", 4,
        "--out-x", tmp_path / "ox.csv", "--out-y", tmp_path / "oy.csv",
    )
    assert code == 0
    assert (tmp_path / "ox.csv").read_bytes() == (tmp_path / "x.csv").read_bytes()
    assert (tmp_path / "oy.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()


def test_inject_summary_reports_correlation_swing(tmp_path):
    run_cli("simulate", "ar1", "--n", 503, "--phi", 0.0, "--rho", 0.0, "--seed", 6,
            "--out-x", tmp_path / "x.csv", "--out-y", tmp_path / "y.csv")
    code, out, _ = run_cli(
        "inject", "--x", tmp_path / "x.csv", "--y", tmp_path / "y.csv",
        "--k", 12, "--magnitude", 10, "--seed", 7,
        "--out-x", tmp_path / "ox.csv", "--out-y", tmp_path / "oy.csv",
    )
    assert code == 0
    fields = dict(l.split("\t") for l in out.strip().split("\n")[1:])
    assert abs(float(fields["corr_before"])) < 0.2
    assert float(fields["corr_after"]) < -0.5
    assert 55 <= int(fields["reflected_h2"]) <= 135
    ox = read_csv(tmp_path / "ox.csv", "key", "value")
    assert (ox.values == 10.0).sum() == 12


def test_inject_huge_magnitude_keeps_correlation_finite(tmp_path, fixtures_dir):
    code, out, err = run_cli_bytes(
        "inject", "--x", fixtures_dir / "golden_x.csv", "--y", fixtures_dir / "golden_y.csv",
        "--k", 3, "--magnitude", 1e308,
        "--out-x", tmp_path / "x.csv", "--out-y", tmp_path / "y.csv",
    )
    assert (code, err) == (0, b"")
    fields = dict(l.split("\t") for l in out.decode().strip().split("\n")[1:])
    assert math.isfinite(float(fields["corr_after"]))


def test_epsilon_ties_near_the_float_limit_print_no_warning(tmp_path):
    # Neighbours 1e308 and -1e308 lie 2e308 apart, more than a float holds.
    path = tmp_path / "extreme.csv"
    path.write_text("key,value\n" + "".join(f"{i},{v}\n" for i, v in enumerate([1e308, -1e308] * 2)))
    code, out, err = run_cli_bytes("analyze", "--x", path, "--y", path, "--h", 1, "--epsilon", 0.5)
    assert (code, err) == (0, b"")
    assert b"n_coincident\t3\n" in out


def test_inject_too_many_outliers_errors(tmp_path):
    run_cli("simulate", "ar1", "--n", 20, "--phi", 0.0, "--rho", 0.0, "--seed", 8,
            "--out-x", tmp_path / "x.csv", "--out-y", tmp_path / "y.csv")
    code, _, err = run_cli(
        "inject", "--x", tmp_path / "x.csv", "--y", tmp_path / "y.csv",
        "--k", 21, "--magnitude", 10, "--seed", 9,
        "--out-x", tmp_path / "ox.csv", "--out-y", tmp_path / "oy.csv",
    )
    assert code == 1
    assert err.startswith("ordpat: error: TooManyOutliers:")


# --- failure modes ---------------------------------------------------------------


def test_unsupported_order(pair_files):
    x, y = pair_files
    code, _, err = run_cli("analyze", "--x", x, "--y", y, "--h", 9)
    assert code == 1
    assert err.startswith("ordpat: error: UnsupportedOrder:")


def test_parse_error_exit(tmp_path):
    (tmp_path / "bad.csv").write_text("key,value\n0,oops\n")
    code, _, err = run_cli("dist", "--x", tmp_path / "bad.csv", "--h", 2)
    assert code == 1
    assert err.startswith("ordpat: error: ParseError:")
    assert err.count("\n") == 1


def test_missing_column_exit(tmp_path):
    (tmp_path / "bad.csv").write_text("key,value\n0,1.0\n")
    code, _, err = run_cli("dist", "--x", tmp_path / "bad.csv", "--h", 2,
                           "--value", "close")
    assert code == 1
    assert err.startswith("ordpat: error: MissingColumn:")


def _one_line_error(args, error_type, path):
    code, out, err = run_cli(*args)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"ordpat: error: {error_type}: ")
    assert str(path) in err


def test_missing_input_file_is_single_line_error(tmp_path):
    missing = tmp_path / "missing.csv"
    _one_line_error(("dist", "--x", missing, "--h", 2), "FileNotFoundError", missing)


def test_directory_input_is_single_line_error(tmp_path, fixtures_dir):
    args = ("analyze", "--x", fixtures_dir / "golden_x.csv", "--y", tmp_path, "--h", 2)
    _one_line_error(args, "IsADirectoryError", tmp_path)


def test_unwritable_simulate_output_is_single_line_error(tmp_path):
    out_x = tmp_path / "no_such_dir" / "x.csv"
    args = ("simulate", "walk", "--n", 10, "--out-x", out_x, "--out-y", tmp_path / "y.csv")
    _one_line_error(args, "FileNotFoundError", out_x)


def test_unwritable_inject_output_is_single_line_error(tmp_path, fixtures_dir):
    gx, gy = fixtures_dir / "golden_x.csv", fixtures_dir / "golden_y.csv"
    args = ("inject", "--x", gx, "--y", gy, "--k", 1,
            "--out-x", tmp_path, "--out-y", tmp_path / "y.csv")
    _one_line_error(args, "IsADirectoryError", tmp_path)


def test_simulate_refuses_one_file_for_both_outputs(tmp_path):
    # Two spellings of one path: written one after the other, X would be lost.
    out = tmp_path / "a.csv"
    args = ("simulate", "walk", "--n", 3, "--out-x", out,
            "--out-y", tmp_path / "sub" / ".." / "a.csv")
    (tmp_path / "sub").mkdir()
    _one_line_error(args, "ValueError", out)
    assert not out.exists()


def test_inject_refuses_one_file_for_both_outputs(tmp_path, fixtures_dir):
    gx, gy = fixtures_dir / "golden_x.csv", fixtures_dir / "golden_y.csv"
    out = tmp_path / "a.csv"
    args = ("inject", "--x", gx, "--y", gy, "--k", 1, "--out-x", out, "--out-y", out)
    _one_line_error(args, "ValueError", out)
    assert not out.exists()


def test_over_long_cell_is_single_line_error(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("key,value\n" + "k" * 131073 + ",1.0\n")
    _one_line_error(("dist", "--x", path, "--h", 2), "ParseError", path)


def test_undecodable_byte_is_single_line_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"key,value\ncaf\xe9,1.0\n")
    _one_line_error(("dist", "--x", path, "--h", 2), "ParseError", path)


def test_unparsable_watch_list_is_single_line_error(pair_files):
    x, y = pair_files
    for text in ("(0,1,2,3);(1,0", "(0,1,2,3) junk"):
        args = ("rolling", "--x", x, "--y", y, "--h", 3, "--window", 30, "--watch", text)
        _one_line_error(args, "ValueError", text)


def test_closed_stdout_pipe_exits_without_traceback(fixtures_dir):
    # 362,882 lines, far more than a pipe buffer holds, so the writer is
    # still printing when the reader goes away.
    proc = subprocess.Popen(
        [sys.executable, "-m", "ordpat", "dist", "--x", fixtures_dir / "golden_x.csv",
         "--h", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"pattern\tcount\tfreq\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() != 0
    assert b"Traceback" not in err


def test_cli_runs_as_module_subprocess(fixtures_dir):
    code, out, err = run_cli_bytes(
        "analyze", "--x", fixtures_dir / "golden_x.csv",
        "--y", fixtures_dir / "golden_y.csv", "--h", 2,
    )
    assert code == 0, err
    assert b"beta_tilde" in out


def test_nan_epsilon_is_single_line_error(fixtures_dir):
    for epsilon in ("nan", "inf"):
        code, out, err = run_cli(
            "analyze", "--x", fixtures_dir / "golden_x.csv",
            "--y", fixtures_dir / "golden_y.csv", "--h", 3, "--epsilon", epsilon,
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("ordpat: error: ValueError:")


def test_non_finite_phi_is_single_line_error(tmp_path):
    out_x, out_y = tmp_path / "x.csv", tmp_path / "y.csv"
    code, out, err = run_cli("simulate", "ar1", "--n", 10, "--phi", "nan",
                             "--out-x", out_x, "--out-y", out_y)
    assert (code, out) == (1, "")
    assert err == "ordpat: error: ValueError: phi must be finite, got nan\n"
    assert not out_x.exists()


def test_non_finite_magnitude_is_single_line_error(tmp_path, fixtures_dir):
    out_x, out_y = tmp_path / "x.csv", tmp_path / "y.csv"
    code, out, err = run_cli(
        "inject", "--x", fixtures_dir / "golden_x.csv", "--y", fixtures_dir / "golden_y.csv",
        "--k", 1, "--magnitude", "inf", "--out-x", out_x, "--out-y", out_y,
    )
    assert (code, out) == (1, "")
    assert err == "ordpat: error: ValueError: magnitude must be finite, got inf\n"
    assert not out_x.exists()


def test_rolling_step_beyond_int64_prints_the_one_window(fixtures_dir):
    gx, gy = fixtures_dir / "golden_x.csv", fixtures_dir / "golden_y.csv"
    args = ("rolling", "--x", gx, "--y", gy, "--h", 3, "--window", 60)
    huge = run_cli_bytes(*args, "--step", 2**63)
    assert huge[0] == 0, huge[2]
    assert huge == run_cli_bytes(*args, "--step", 61)


def test_rolling_epsilon_takes_effect(fixtures_dir):
    gx, gy = fixtures_dir / "golden_x.csv", fixtures_dir / "golden_y.csv"
    args = ("rolling", "--x", gx, "--y", gy, "--h", 3, "--window", 60)
    code, plain, _ = run_cli(*args)
    assert code == 0
    code, tied, _ = run_cli(*args, "--epsilon", 5)
    assert code == 0
    assert tied != plain
    x = read_csv(gx, "key", "value")
    y = read_csv(gy, "key", "value")
    rows = tied.strip().split("\n")[1:]
    assert len(rows) == len(x) // 60
    for i, row in enumerate(rows):
        part = slice(60 * i, 60 * (i + 1))
        rep = analyze_pair(
            TimeSeries(x.keys[part], x.values[part]),
            TimeSeries(y.keys[part], y.values[part]),
            3,
            epsilon=5.0,
        )
        cells = row.split("\t")
        assert cells[2:7] == [
            str(rep.n_windows), str(rep.n_coincident), str(rep.n_reflected),
            f"{rep.alpha_tilde:.6f}", f"{rep.beta_tilde:.6f}",
        ]
