"""Command-line interface tests.

Runs the entry point in process and checks stdout, files, and exit
codes; subprocess tests cover module execution and what a fresh
import pulls in.
"""

import csv
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from nakaber.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv_line(line):
    return dict(part.split("=", 1) for part in line.strip().split(" "))


def _child_env():
    # a child interpreter imports nakaber from this checkout, installed or not
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_version_prints_the_package_version(capsys):
    from nakaber import __version__

    code, out, err = run_cli(capsys, "--version")
    assert (code, out, err) == (0, f"nakaber {__version__}\n", "")
    assert __version__ == "0.1.0"


# --- aber --------------------------------------------------------------------

def test_aber_lu_line(capsys):
    code, out, _ = run_cli(capsys, "aber", "--m", "1", "--mod", "4",
                           "--snr-db", "0", "--method", "lu")
    assert code == 0
    kv = parse_kv_line(out)
    assert float(kv["aber"]) == pytest.approx(0.14644660940672624, rel=1e-14)
    assert kv["method"] == "lu"
    assert kv["m"] == "1"
    assert kv["mod"] == "4"


def test_aber_closed_reports_terms(capsys):
    code, out, _ = run_cli(capsys, "aber", "--m", "1", "--mod", "4",
                           "--snr-db", "0", "--method", "closed",
                           "--terms", "5")
    assert code == 0
    kv = parse_kv_line(out)
    assert float(kv["aber"]) == pytest.approx(0.13770205555632142915, rel=1e-11)
    assert kv["method"] == "closed(N=5)"
    assert kv["terms"] == "1"  # terminating series at m = 1


def test_aber_oracle_reports_estimate(capsys):
    code, out, _ = run_cli(capsys, "aber", "--m", "1", "--mod", "4",
                           "--snr-db", "0", "--method", "oracle")
    assert code == 0
    kv = parse_kv_line(out)
    assert kv["converged"] == "True"
    assert float(kv["error_estimate"]) < 1e-9
    assert float(kv["aber"]) == pytest.approx(0.13770205555632142915, rel=1e-8)


def test_aber_low_snr_example(capsys):
    code, out, _ = run_cli(capsys, "aber", "--m", "1", "--mod", "4",
                           "--snr-db", "-100", "--method", "closed",
                           "--terms", "0")
    assert code == 0
    assert float(parse_kv_line(out)["aber"]) == pytest.approx(0.4375, abs=1e-4)


def test_aber_closed_matches_oracle_to_example_tolerance(capsys):
    _, out_c, _ = run_cli(capsys, "aber", "--m", "0.6", "--mod", "256",
                          "--snr-db", "10", "--method", "closed", "--terms", "5")
    closed = float(parse_kv_line(out_c)["aber"])
    _, out_o, _ = run_cli(capsys, "aber", "--m", "0.6", "--mod", "256",
                          "--snr-db", "10", "--method", "oracle")
    oracle = float(parse_kv_line(out_o)["aber"])
    assert closed == pytest.approx(oracle, rel=1e-6)


def test_aber_closed_at_very_low_snr_matches_oracle(capsys):
    # at -130 dB E[Q] sits 1.8e-7 under 1/2; the closed form must not
    # lose those digits to the rounding of 1 - x (it printed
    # 0.43749986791382867, 1.4e-10 off, with exit 0)
    code, out_c, _ = run_cli(capsys, "aber", "--m", "10", "--snr-db", "-130",
                             "--mod", "4", "--method", "closed", "--terms", "5")
    assert code == 0
    closed = float(parse_kv_line(out_c)["aber"])
    _, out_o, _ = run_cli(capsys, "aber", "--m", "10", "--snr-db", "-130",
                          "--mod", "4", "--method", "oracle")
    oracle = float(parse_kv_line(out_o)["aber"])
    assert closed == pytest.approx(oracle, rel=1e-13, abs=0.0)


def test_aber_adaptive_tolerance_flag(capsys):
    code, out, _ = run_cli(capsys, "aber", "--m", "2.5", "--mod", "16",
                           "--snr-db", "5", "--method", "closed",
                           "--adaptive-tol", "1e-12")
    assert code == 0
    assert parse_kv_line(out)["method"] == "closed(adaptive)"


def test_aber_expq_pairs_equal_to_default_keep_its_label(capsys):
    # spelling out the canonical pairs parses back to the same variant
    _, out_default, _ = run_cli(capsys, "aber", "--m", "2.5", "--mod", "256",
                                "--snr-db", "10", "--method", "expq")
    _, out_custom, _ = run_cli(capsys, "aber", "--m", "2.5", "--mod", "256",
                               "--snr-db", "10", "--method", "expq",
                               "--expq", "0.08333333333333333:0.5,0.25:0.6666666666666666")
    kv_d = parse_kv_line(out_default)
    kv_c = parse_kv_line(out_custom)
    assert kv_d["method"] == "expq(chiani)"
    assert kv_c["method"] == "expq(chiani)"
    assert float(kv_c["aber"]) == pytest.approx(float(kv_d["aber"]), rel=1e-15)


def test_aber_expq_different_pairs_get_custom_label(capsys):
    code, out, _ = run_cli(capsys, "aber", "--m", "2.5", "--mod", "256",
                           "--snr-db", "10", "--method", "expq",
                           "--expq", "0.3:0.6,0.1:0.4")
    assert code == 0
    kv = parse_kv_line(out)
    assert kv["method"] == "expq(custom)"
    assert 0.0 < float(kv["aber"]) < 1.0


def test_aber_adaptive_past_the_old_term_cap_matches_the_oracle(capsys):
    # the paper's series needs more than 200 terms here; the adaptive
    # route takes its untruncated limit
    code, out, _ = run_cli(capsys, "aber", "--m", "500.5", "--snr-db", "30",
                           "--mod", "4", "--method", "closed",
                           "--adaptive-tol", "1e-12")
    assert code == 0
    kv = parse_kv_line(out)
    assert kv["method"] == "closed(adaptive)"
    _, out_o, _ = run_cli(capsys, "aber", "--m", "500.5", "--snr-db", "30",
                          "--mod", "4", "--method", "oracle", "--rel-tol", "1e-13")
    oracle = float(parse_kv_line(out_o)["aber"])
    assert float(kv["aber"]) == pytest.approx(oracle, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("argv", [
    ("--m", "1e200", "--method", "closed", "--terms", "5"),
], ids=["closed-huge-m"])
def test_aber_nonfinite_integrand_is_numerical_failure(capsys, argv):
    # closed(N) takes E[Q] first, and E[Q] refuses m above 1e4 before
    # the correction series, whose quadrature once met a non-finite
    # integrand here, is reached
    code, _, err = run_cli(capsys, "aber", "--snr-db", "10", "--mod", "4", *argv)
    assert code == 3
    assert "not accurate to 1e-10 for m above" in err


# the 23 points of a QPSK scan of closed(N) (m in {500.5, 1e3, 2e3, 3e3,
# 5e3, 9999.5, 1e4}, N in {20, 42, 71, 100, 150, 200}, 0 dB and 20 to
# 80 dB in 10 dB steps) whose fallback quadrature meets a fixed-point
# P_N(r) past the double range, as (m, N, dB)
_OVERFLOWING_CLOSED = (
    [("5000", "200", db) for db in (40, 50, 60, 70, 80)]
    + [(m, "150", db) for m in ("9999.5", "10000") for db in (50, 60, 70, 80)]
    + [(m, "200", db) for m in ("9999.5", "10000") for db in (40, 50, 60, 70, 80)])


@pytest.mark.parametrize("argv", [
    *(("aber", "--m", m, "--mod", "4", "--snr-db", str(db), "--method", "closed",
       "--terms", n) for m, n, db in _OVERFLOWING_CLOSED),
    ("sweep", "--m", "10000", "--mod", "4", "--snr-db-range=40:60:10",
     "--method", "closed", "--terms", "200"),
    # the oracle's node exp(log_w + rate_per_z*z) overflows
    ("aber", "--m", "1e300", "--mod", "16", "--snr-db", "1000", "--method", "oracle"),
], ids=[*(f"closed-m{m}-N{n}-{db}dB" for m, n, db in _OVERFLOWING_CLOSED),
        "sweep-closed-m10000-N200", "oracle-m1e300-1000dB"])
def test_an_overflowing_integrand_is_numerical_failure(capsys, argv):
    # an integrand value past the double range raised OverflowError,
    # which main printed as a traceback with exit 1, the selftest code
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: did not converge: integrand overflowed a double on [")


def test_aber_unconverged_oracle_is_numerical_failure(monkeypatch, capsys):
    # the oracle at m = 0.6, 10 dB, 256-QAM converges in 8 bisections at
    # the default rel_tol, the 6 of its graded opening included, so a
    # budget of 7 starves it after one more: exit 3, with the best value
    # and estimate it reached (at m = 1, 0 dB, QPSK the opening alone
    # converges, so no budget starves it)
    from nakaber import quad

    monkeypatch.setattr(quad, "_MAX_SUBDIVISIONS", 7)
    code, out, err = run_cli(capsys, "aber", "--m", "0.6", "--mod", "256",
                             "--snr-db", "10", "--method", "oracle")
    assert code == 3
    assert out == ""
    assert err == ("error: did not converge: average-BER quadrature did not "
                   "reach its tolerance (best value 0.109885397437, error "
                   "estimate 2.262e-11)\n")


@pytest.mark.parametrize("method", [("closed", "--terms", "0"), ("lu",)],
                         ids=["closed", "lu"])
def test_aber_huge_m_closed_form_is_numerical_failure(capsys, method):
    # the closed-form E[Q] is 2e-7 off at m = 1e8; it refuses rather
    # than print a wrong number with exit 0
    code, out, err = run_cli(capsys, "aber", "--m", "1e8", "--snr-db", "10",
                             "--mod", "4", "--method", *method)
    assert code == 3
    assert out == ""
    assert "not accurate to 1e-10 for m above" in err


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: closed(N=5) has no truncation bound here and prints "
    "a wrong value with exit 0"))
@pytest.mark.parametrize("m, snr_db, order", [
    # prints -8.344291015004995e-06, where the oracle gives 1.0248e-05
    ("50", "10", "4"),
    # prints 3.3212349551156391e-13, where closed(adaptive) gives 1.5399e-12
    ("20.5", "40", "4096"),
], ids=["m50-qpsk", "m20.5-4096qam"])
def test_aber_closed_is_right_or_refused(capsys, m, snr_db, order):
    point = ("aber", "--m", m, "--snr-db", snr_db, "--mod", order, "--method", "closed")
    code, out, _ = run_cli(capsys, *point)
    if code == 3:
        return
    assert code == 0
    _, out_a, _ = run_cli(capsys, *point, "--adaptive-tol", "1e-12")
    adaptive = float(parse_kv_line(out_a)["aber"])
    assert float(parse_kv_line(out)["aber"]) == pytest.approx(adaptive, rel=1e-6, abs=0.0)


def test_aber_oracle_tiny_m_value(capsys):
    # the density's z^(m-1) endpoint is integrated in v = z^m, so even
    # m = 0.001 gives a finite integrand (30-digit Craig value)
    code, out, _ = run_cli(capsys, "aber", "--snr-db", "10", "--mod", "4",
                           "--m", "0.001", "--method", "oracle")
    assert code == 0
    kv = parse_kv_line(out)
    assert kv["converged"] == "True"
    assert float(kv["aber"]) == pytest.approx(0.43296119999787414, rel=1e-10)


# --- usage errors ------------------------------------------------------------

def test_unsupported_modulation_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "aber", "--m", "1", "--mod", "8",
                           "--snr-db", "0", "--method", "lu")
    assert code == 2
    assert "order" in err


def test_multiple_methods_rejected_for_single_point(capsys):
    code, _, err = run_cli(capsys, "aber", "--m", "1", "--mod", "4",
                           "--snr-db", "0", "--method", "closed,lu")
    assert code == 2


def test_bad_range_is_usage_error(capsys):
    # the second range would need about 1e15 grid points
    for grid in ("5:1:1", "0:1e9:1e-6"):
        code, _, _ = run_cli(capsys, "sweep", "--m", "1", "--mod", "4",
                             "--snr-db-range", grid, "--method", "lu")
        assert code == 2, grid


def test_unknown_method_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "aber", "--m", "1", "--mod", "4",
                           "--snr-db", "0", "--method", "magic")
    assert code == 2
    assert "method" in err


def test_thin_bench_reps_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "bench", "--m", "0.6", "--mod", "256",
                           "--snr-db", "10", "--terms", "0", "--reps", "1")
    assert code == 2


@pytest.mark.parametrize("grid", ["5:1:1", "0:5:0", "0:5:-1"])
def test_bench_bad_range_is_usage_error(capsys, grid):
    code, _, err = run_cli(capsys, "bench", "--m", "0.6", "--mod", "256",
                           f"--snr-db-range={grid}", "--terms", "0")
    assert code == 2
    assert "--snr-db-range wants start < stop and step > 0" in err


@pytest.mark.parametrize("sub", ["sweep", "bench"])
def test_nonfinite_range_is_usage_error(capsys, sub):
    code, _, err = run_cli(capsys, sub, "--m", "1", "--mod", "4",
                           "--snr-db-range=0:inf:1", "--terms", "0")
    assert code == 2
    assert "finite" in err


@pytest.mark.parametrize("argv", [
    ("aber", "--snr-db", "4000", "--mod", "4"),
    ("sweep", "--snr-db-range=3000:3100:50", "--mod", "4", "--method", "lu"),
], ids=["aber", "sweep"])
def test_mean_snr_past_float_range_is_usage_error(capsys, argv):
    # 10^(dB/10) overflows a float from about 3,083 dB
    code, out, err = run_cli(capsys, *argv, "--m", "1")
    assert code == 2
    assert out == ""
    assert "dB overflows a float" in err


def test_mean_snr_below_float_range_is_usage_error(capsys):
    # 10^(dB/10) underflows to 0.0 from about -3,236 dB; the refusal
    # names the dB value typed, not a linear one
    code, out, err = run_cli(capsys, "aber", "--m", "1", "--snr-db", "-4000",
                             "--mod", "4")
    assert code == 2
    assert out == ""
    assert "-4000 dB underflows a float to 0" in err
    # a subnormal ratio is still a mean SNR
    code, out, _ = run_cli(capsys, "aber", "--m", "1", "--snr-db", "-3200",
                           "--mod", "4")
    assert code == 0
    assert out.startswith("aber=0.4375 ")


def test_missing_snr_flags_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "aber", "--m", "1", "--mod", "4",
                         "--method", "lu")
    assert code == 2


# (argv, config file text or None, exit code, stderr after "error: ");
# {cfg} stands for the config path and {est} for an error estimate
_REFUSALS = [
    (("sweep", "--snr-db-range", "1:2"), None, 2,
     "--snr-db-range wants a:b:step, got '1:2'"),
    (("sweep", "--snr-db-range", "a:b:c"), None, 2,
     "--snr-db-range wants numeric a:b:step, got 'a:b:c'"),
    (("aber", "--snr-db", "0", "--method", "expq", "--expq", "0.1"), None, 2,
     "--expq wants w1:r1,w2:r2,..., got '0.1'"),
    (("aber", "--snr-db", "0", "--method", "expq", "--expq", "x:y"), None, 2,
     "--expq pair 'x:y' is not numeric"),
    (("aber", "--snr-db", "0", "--method", "expq", "--expq=0:0.5"), None, 2,
     "--expq: weights and rates must be positive and finite"),
    (("bench", "--snr-db", "0", "--terms", "1,x"), None, 2,
     "--terms wants integers, got '1,x'"),
    (("bench", "--terms", "0"), None, 2,
     "bench needs --snr-db or --snr-db-range"),
    (("aber", "--snr-db", "0"), "m 1\n", 2,
     "{cfg}:1: expected key=value, got 'm 1'"),
    (("aber", "--snr-db", "0"), "=1\n", 2, "{cfg}:1: empty key"),
    (("aber", "--snr-db", "0", "--method", "oracle", "--rel-tol", "1e-14"), None, 2,
     "rel_tol must lie in (50*eps, 1e-3]: 50*eps = 1.1102e-14 is the "
     "quadrature's roundoff floor"),
    (("aber", "--snr-db", "nan"), None, 2, "nan dB is not a finite number"),
]


@pytest.mark.parametrize(
    "argv, config, code, message", _REFUSALS,
    ids=["range-parts", "range-numeric", "expq-pair", "expq-numeric",
         "expq-positive", "bench-terms", "bench-no-snr", "config-no-equals",
         "config-empty-key", "rel-tol-floor", "snr-db-nan"])
def test_refusal_prints_only_its_message(tmp_path, capsys, argv, config, code,
                                         message):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = (*argv, "--config", str(cfg))
        message = message.replace("{cfg}", str(cfg))
    got, out, err = run_cli(capsys, *argv, "--m", "1", "--mod", "4")
    assert got == code
    assert out == ""
    pattern = re.escape(f"error: {message}\n").replace(
        re.escape("{est}"), r"\d\.\d{3}e[-+]\d+")
    assert re.fullmatch(pattern, err), err


@pytest.mark.parametrize("method", ["closed", "lu", "expq"])
def test_closed_forms_refuse_where_the_mgf_ratio_underflows(capsys, method):
    # m/(alpha*mean_snr) = 1e-20/1e308 underflows to 0: the MGF peak and
    # the incomplete beta are both about 1 there (40-digit mpmath gives
    # 0.49999999999999999622), and reading them from a 0 once crashed
    # closed and expq and printed aber=0 for lu
    got, out, err = run_cli(capsys, "aber", "--m", "1e-20", "--snr-db", "3080",
                            "--mod", "4", "--method", method)
    assert got == 2
    assert out == ""
    assert err == ("error: m=1e-20 at 3080 dB: m/(alpha*mean SNR) underflows "
                   "a float to 0\n")


# --- sweep -------------------------------------------------------------------

def test_sweep_csv_schema_and_row_count(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--m", "4.1", "--mod", "256",
                           "--snr-db-range", "0:30:1",
                           "--method", "closed,lu,oracle", "--terms", "0")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["snr_db", "method", "value", "terms", "wall_time_ns"]
    assert len(rows) == 1 + 93
    # 17 significant digits survive the round trip
    for row in rows[1:4]:
        assert float(row[2]) == float(repr(float(row[2])))


def test_sweep_no_timing_drops_column_and_is_reproducible(capsys):
    args = ("sweep", "--m", "1", "--mod", "16", "--snr-db-range", "0:6:2",
            "--method", "closed,lu", "--no-timing")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header == "snr_db,method,value,terms"


def test_sweep_out_file_and_jobs(tmp_path, capsys):
    target = tmp_path / "grid.csv"
    code, out, _ = run_cli(capsys, "sweep", "--m", "1", "--mod", "16",
                           "--snr-db-range", "0:6:2", "--method", "closed,lu",
                           "--jobs", "4", "--no-timing", "--out", str(target))
    assert code == 0
    assert out == ""
    rows = list(csv.reader(target.read_text().splitlines()))
    assert len(rows) == 1 + 4 * 2

    inline_code, inline_out, _ = run_cli(
        capsys, "sweep", "--m", "1", "--mod", "16", "--snr-db-range", "0:6:2",
        "--method", "closed,lu", "--no-timing")
    assert inline_code == 0
    assert target.read_text() == inline_out


@pytest.mark.parametrize("sub, jobs", [("sweep", "0"), ("sweep", "65"),
                                       ("discrepancy", "-3")])
def test_jobs_outside_bounds_is_usage_error(capsys, sub, jobs):
    # refused before any pool thread starts
    code, out, err = run_cli(capsys, sub, "--m", "1", "--mod", "4",
                             "--snr-db-range", "0:2:1", "--method", "lu",
                             "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert "jobs must lie in [1, 64]" in err


def test_sweep_negative_range_needs_equals_form(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--m", "2.5", "--mod", "16",
                           "--snr-db-range=-6:0:3", "--method", "lu",
                           "--no-timing")
    assert code == 0
    assert [r.split(",")[0] for r in out.splitlines()[1:]] == ["-6", "-3", "0"]


def test_sweep_unit_interval_guard(capsys):
    code, _, err = run_cli(capsys, "sweep", "--m", "50", "--mod", "4",
                           "--snr-db-range=8:12:2", "--method", "closed",
                           "--terms", "5")
    assert code == 2
    assert "outside [0, 1]" in err


def test_sweep_writes_approximations_above_one(capsys):
    # the sum-of-Q approximation exceeds 1 at low mean SNR for 4096-QAM
    # (3.18 at -12 dB); it is an approximation, so the sweep keeps it
    code, out, _ = run_cli(capsys, "sweep", "--m", "0.6", "--mod", "4096",
                           "--snr-db-range=-12:-8:2", "--method", "lu",
                           "--no-timing")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[:2] for r in rows[1:]] == [["-12", "lu"], ["-10", "lu"], ["-8", "lu"]]
    assert all(float(r[2]) > 1.0 for r in rows[1:])


# --- discrepancy -------------------------------------------------------------

def test_discrepancy_csv(capsys):
    code, out, _ = run_cli(capsys, "discrepancy", "--m", "0.6", "--mod", "256",
                           "--snr-db-range", "0:3:1", "--method", "closed,lu",
                           "--terms", "0")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["snr_db", "candidate_method", "epsilon_db"]
    assert len(rows) == 1 + 4 * 2
    closed_eps = [float(r[2]) for r in rows[1:] if r[1] == "closed(N=0)"]
    lu_eps = [float(r[2]) for r in rows[1:] if r[1] == "lu"]
    assert all(c < l for c, l in zip(closed_eps, lu_eps))


def test_discrepancy_serializes_minus_inf(capsys):
    code, out, _ = run_cli(capsys, "discrepancy", "--m", "1", "--mod", "4",
                           "--snr-db-range", "0:2:2", "--method", "oracle")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert all(r[2] == "-inf" for r in rows[1:])


# --- bench -------------------------------------------------------------------

def test_bench_csv(capsys):
    code, out, _ = run_cli(capsys, "bench", "--m", "0.6", "--mod", "256",
                           "--snr-db", "10", "--terms", "0,3", "--reps", "10")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["snr_db", "n_terms", "t_closed_ns", "t_oracle_ns",
                       "epsilon_t"]
    assert [r[1] for r in rows[1:]] == ["0", "3"]
    for r in rows[1:]:
        assert float(r[4]) == pytest.approx(float(r[3]) / float(r[2]), rel=1e-12)


# --- selftest ----------------------------------------------------------------

def test_selftest_list(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--list")
    assert code == 0
    assert out.split() == ["lemma1", "lemma2", "lemma3", "reflection",
                           "termination", "sandwich"]


def test_selftest_single_group(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--group", "termination")
    assert code == 0
    assert "termination" in out
    assert "FAIL" not in out


def test_selftest_full_run_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "0 failures" in out


def test_selftest_failure_exits_1(capsys, monkeypatch):
    # an E[Q^2] above E[Q]/2 <= 1/4 (a correction term below 0) breaks
    # the sandwich bounds at the grid's first point, and a failed check
    # is exit 1
    import nakaber.aber

    monkeypatch.setattr(nakaber.aber, "avg_q_squared",
                        lambda ch, alpha, term_tol: 0.3)
    code, out, _ = run_cli(capsys, "selftest", "--group", "sandwich")
    assert code == 1
    assert ("[FAIL] sandwich :: correction-term bounds | violated at "
            "m=0.6 snr=-5dB M=4: avg_q=") in out
    assert " avg_q2=3.000000e-01\n" in out
    assert "selftest: 1 checks, 1 failures" in out


def test_selftest_unknown_group(capsys):
    code, _, err = run_cli(capsys, "selftest", "--group", "lemma9")
    assert code == 2


# --- config files ------------------------------------------------------------

def test_config_supplies_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# grid shared by the comparison plots\n"
        "m = 1\n"
        "mod = 16\n"
        "snr_db_range = 0:6:2\n"
        "method = closed,lu\n"
        "no_timing = true\n")
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 4 * 2


def test_config_negative_range_matches_the_flags(tmp_path, capsys):
    # a config value is passed as --key=value, so -12:-8:2 is not read
    # as a flag
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=1\nmod=4\nsnr-db-range=-12:-8:2\nmethod=lu\n"
                   "no-timing=true\n")
    code, from_config, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    code, from_flags, _ = run_cli(capsys, "sweep", "--m", "1", "--mod", "4",
                                  "--snr-db-range=-12:-8:2", "--method", "lu",
                                  "--no-timing")
    assert code == 0
    assert len(from_flags.splitlines()) == 1 + 3
    assert from_config == from_flags


def test_explicit_flag_beats_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 1\nmod = 16\nsnr-db = 0\nmethod = lu\n")
    code, out, _ = run_cli(capsys, "aber", "--config", str(cfg),
                           "--mod", "4")
    assert code == 0
    kv = parse_kv_line(out)
    assert kv["mod"] == "4"
    assert float(kv["aber"]) == pytest.approx(0.14644660940672624, rel=1e-12)


def test_config_equals_form_matches_the_spaced_form(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 1\nmod = 4\nsnr-db = 0\nmethod = lu\n")
    spaced = run_cli(capsys, "aber", "--config", str(cfg))
    assert spaced[0] == 0
    assert run_cli(capsys, "aber", f"--config={cfg}") == spaced


@pytest.mark.parametrize("form", [lambda path: ["--conf", path],
                                  lambda path: [f"--co={path}"]],
                         ids=["conf-spaced", "co-equals"])
def test_config_prefix_reads_the_file(tmp_path, capsys, form):
    # argparse takes any unambiguous prefix of --config, so the file it
    # names must be read, not stored and ignored
    cfg = tmp_path / "d.cfg"
    cfg.write_text("method=lu\n")
    point = ("aber", "--m", "2.5", "--mod", "16", "--snr-db", "10")
    full = run_cli(capsys, *point, "--config", str(cfg))
    assert full[0] == 0
    assert parse_kv_line(full[1])["method"] == "lu"
    assert run_cli(capsys, *point, *form(str(cfg))) == full


def test_config_false_switch_leaves_it_off(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=1\nmod=4\nsnr-db-range=0:2:2\nmethod=lu\nno-timing = false\n")
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[0] == "snr_db,method,value,terms,wall_time_ns"


def test_config_without_a_subcommand_is_a_usage_error(tmp_path, capsys):
    # no argument outside the flags names a subcommand, so the config's
    # tokens go at the end, and the parser finds no subcommand
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 1\nmod = 4\n")
    code, out, _ = run_cli(capsys, f"--config={cfg}")
    assert code == 2
    assert out == ""


def test_missing_config_is_io_error(capsys):
    code, _, err = run_cli(capsys, "aber", "--config", "/no/such/file.cfg",
                           "--m", "1", "--mod", "4", "--snr-db", "0",
                           "--method", "lu")
    assert code == 4


def test_unwritable_out_is_io_error(capsys):
    code, _, err = run_cli(capsys, "sweep", "--m", "1", "--mod", "4",
                           "--snr-db-range", "0:2:1", "--method", "lu",
                           "--out", "/nonexistent-dir/x.csv")
    assert code == 4


# --- flag surface ------------------------------------------------------------

_COMMON = {"m": 1.0, "mod": 4, "config": None}
_EVALUATING = {**_COMMON, "adaptive_tol": None, "rel_tol": 1e-10, "expq": None,
               "terms": 5}
_GRID = {**_EVALUATING, "snr_db_range": "0:2:1", "out": None, "jobs": 1,
         "emit_plot": None}


@pytest.mark.parametrize("argv,parsed", [
    ("aber --m 1 --mod 4 --snr-db 0",
     {**_EVALUATING, "command": "aber", "snr_db": 0.0, "method": "closed"}),
    ("sweep --m 1 --mod 4 --snr-db-range 0:2:1",
     {**_GRID, "command": "sweep", "method": "closed,lu,oracle", "no_timing": False}),
    ("discrepancy --m 1 --mod 4 --snr-db-range 0:2:1",
     {**_GRID, "command": "discrepancy", "method": "closed,lu"}),
    ("bench --m 1 --mod 4 --snr-db 0",
     {**_COMMON, "command": "bench", "snr_db": 0.0, "snr_db_range": None,
      "terms": "0,1,2,3,5", "reps": 30, "out": None, "emit_plot": None}),
    ("selftest", {"command": "selftest", "group": None, "list": False, "config": None}),
], ids=["aber", "sweep", "discrepancy", "bench", "selftest"])
def test_parsed_flags_and_defaults_are_frozen(argv, parsed):
    # every flag's destination and default, per subcommand
    args = vars(build_parser().parse_args(argv.split()))
    del args["func"]
    assert args == parsed


# --- plot emission -----------------------------------------------------------

# a stand-in for matplotlib: every call is accepted, and savefig writes
# the axes' calls (method and keyword arguments) to the file it is given
_STUB_PYPLOT = """\
class _Recorder:
    def __init__(self, calls):
        self._calls = calls

    def __getattr__(self, name):
        def call(*args, **kwargs):
            self._calls.append((name, sorted(kwargs.items())))
        return call


_CALLS = []


class _Figure:
    def tight_layout(self):
        pass

    def savefig(self, path, **kwargs):
        with open(path, "w") as fh:
            fh.write(repr(_CALLS))


def subplots(**kwargs):
    return _Figure(), _Recorder(_CALLS)


def show():
    pass
"""


def test_emit_plot_scripts_compile(tmp_path, capsys):
    stub = tmp_path / "stub" / "matplotlib"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("")
    (stub / "pyplot.py").write_text(_STUB_PYPLOT)
    env = _child_env()
    env["PYTHONPATH"] = os.pathsep.join((str(tmp_path / "stub"), env["PYTHONPATH"]))
    for sub, extra, drawn in (
            ("sweep", ["--method", "closed,lu"], ("semilogy",)),
            # oracle against the reference is an exact match, epsilon_db -inf
            ("discrepancy", ["--method", "closed,lu,oracle"], ("plot",)),
            ("bench", ["--terms", "0,2", "--reps", "10"], ("plot", "axhline"))):
        plot = tmp_path / f"{sub}_plot.py"
        argv = [sub, "--m", "0.6", "--mod", "256", "--emit-plot", str(plot)]
        if sub == "bench":
            argv += ["--snr-db", "10"]
        else:
            argv += ["--snr-db-range", "0:2:1"]
        argv += extra
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0, sub
        source = plot.read_text()
        compile(source, str(plot), "exec")
        assert "matplotlib" in source
        saved = tmp_path / f"{sub}.png"
        ran = subprocess.run([sys.executable, str(plot), "--save", str(saved)],
                             capture_output=True, text=True, env=env)
        assert ran.returncode == 0, ran.stderr
        calls = saved.read_text()
        assert all(f"('{name}'," in calls for name in drawn), sub


# --- module entry point ------------------------------------------------------

def test_module_execution_smoke():
    out = subprocess.run(
        [sys.executable, "-m", "nakaber", "aber", "--m", "1", "--mod", "4",
         "--snr-db", "0", "--method", "lu"],
        capture_output=True, text=True, check=True, env=_child_env())
    kv = parse_kv_line(out.stdout)
    assert float(kv["aber"]) == pytest.approx(0.14644660940672624, rel=1e-14)


def test_cli_import_leaves_unused_stdlib_modules_out():
    # measured against the bare interpreter, whose site hooks may load
    # some of these modules themselves
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import nakaber.cli\n"
             "new = set(sys.modules) - before\n"
             "print(' '.join(sorted(new & {'concurrent.futures', 'statistics', 'random',\n"
             "                             'dataclasses', 'inspect', 'csv', 'nakaber.harness'})))\n")
    out = subprocess.run([sys.executable, "-c", probe],
                         capture_output=True, text=True, check=True, env=_child_env())
    assert out.stdout.strip() == ""


@pytest.mark.parametrize("module, loaded", [
    ("nakaber", {"nakaber", "nakaber._backend", "nakaber._purekernels",
                 "nakaber.quad"}),
    ("nakaber.cli", {"nakaber", "nakaber._backend", "nakaber._purekernels",
                     "nakaber.quad", "nakaber.channel", "nakaber.aber",
                     "nakaber.cli"}),
    ("nakaber.harness", {"nakaber", "nakaber._backend", "nakaber._purekernels",
                         "nakaber.quad", "nakaber.channel", "nakaber.aber",
                         "nakaber.harness"}),
])
def test_import_loads_only_the_modules_it_serves(module, loaded):
    # the package exports backend_name alone; cli loads harness only
    # when a command needs it, and none of them loads specfun, whose Appell
    # F1 front end no route calls
    probe = ("import sys\n"
             f"import {module}\n"
             "print(' '.join(sorted(n for n in sys.modules\n"
             "                      if n.split('.')[0] == 'nakaber')))\n")
    out = subprocess.run([sys.executable, "-c", probe],
                         capture_output=True, text=True, check=True, env=_child_env())
    assert set(out.stdout.split()) == loaded


def test_sweep_jobs_starts_no_pool():
    # --jobs is range-checked and ignored: the grid runs in one thread
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "from nakaber.cli import main\n"
             "code = main(['sweep', '--m', '1', '--mod', '4', '--snr-db-range', '0:2:1',\n"
             "             '--method', 'lu', '--no-timing', '--jobs', '2'])\n"
             "assert code == 0, code\n"
             "print('concurrent.futures' in set(sys.modules) - before)\n")
    out = subprocess.run([sys.executable, "-c", probe],
                         capture_output=True, text=True, check=True, env=_child_env())
    assert out.stdout.splitlines()[-1] == "False"


# --- README examples ---------------------------------------------------------

def _readme_blocks():
    """(info string, lines) for every ```-fenced block."""
    blocks = []
    block = None
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            if block is None:
                info, block = line[3:].strip(), []
            else:
                blocks.append((info, block))
                block = None
        elif block is not None:
            block.append(line)
    return blocks


# (argv, shown output lines) for every `$ nakaber` block
_EXAMPLES = [(shlex.split(lines[0])[2:], lines[1:]) for _, lines in _readme_blocks()
             if lines and lines[0].startswith("$ nakaber ")]


def _matches(shown, printed):
    """printed reproduces shown, where a '...' line stands for any run of lines."""
    pattern = ".*".join(re.escape(piece) for piece in "\n".join(shown).split("..."))
    return re.fullmatch(pattern, "\n".join(printed), re.DOTALL) is not None


def test_readme_has_examples_for_every_subcommand():
    assert sorted({argv[0] for argv, _ in _EXAMPLES}) == [
        "aber", "bench", "discrepancy", "selftest", "sweep"]


@pytest.mark.parametrize("argv,shown", _EXAMPLES,
                         ids=[f"{argv[0]}{i}" for i, (argv, _) in enumerate(_EXAMPLES)])
def test_readme_example_prints_what_it_shows(capsys, argv, shown):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    printed = out.splitlines()
    if argv[0] == "bench":
        # timings differ from host to host; the header is the contract
        shown, printed = shown[:1], printed[:1]
    assert _matches(shown, printed), "\n".join(printed)


# a line `expr   # <number> ...` shows repr(expr)
_SHOWN_VALUE = re.compile(
    r"(?P<expr>[^#]*?)\s*#\s*(?P<shown>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?:\s|$)")


def test_readme_python_quick_start_returns_what_it_shows():
    (code,) = [lines for info, lines in _readme_blocks() if info == "python"]
    namespace = {}
    exec("\n".join(code), namespace)
    hits = [hit for hit in map(_SHOWN_VALUE.match, code) if hit is not None]
    assert hits
    assert ([repr(eval(hit["expr"], namespace)) for hit in hits]
            == [hit["shown"] for hit in hits])
