import csv
import dataclasses
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lejaflip import UNIFORM_FLIP_BOUND, canonical_disk_leja
from lejaflip import bivariate as bv
from lejaflip import cli
from lejaflip import transport as tp
from lejaflip.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, tmp_path, *argv):
    """Exit code and the rows written to ``-o``."""
    out = tmp_path / "rows.json"
    code, _, _ = run(capsys, *argv, "--format", "json", "-o", str(out))
    return code, json.loads(out.read_text())


def same(got, want):
    return math.isnan(got) if math.isnan(want) else got == want


_FLOOR = 4.0 * math.cos(math.pi / 8.0) / math.pi


class TestLejaCommand:
    def test_disk_csv(self, capsys, tmp_path):
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, "leja", "--disk", "-N", "16", "-o", str(out))
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 16
        assert float(rows[0]["re"]) == 1.0
        assert "pass" in err

    def test_disk_json(self, capsys, tmp_path):
        out = tmp_path / "out.json"
        code, _, _ = run(capsys, "leja", "--disk", "-N", "8", "--format", "json", "-o", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["n"] == 8 and len(data["points"]) == 8

    def test_rejects_zero_points(self, capsys):
        code, _, _ = run(capsys, "leja", "--disk", "-N", "0")
        assert code == 1

    def test_usage_error_exit_code(self, capsys):
        assert main(["leja", "--disk"]) == 1  # missing -N

    def test_ellipse_greedy(self, capsys, tmp_path):
        out = tmp_path / "ell.csv"
        code, _, err = run(
            capsys, "leja", "--ellipse", "1.2", "0.8", "--greedy", "-N", "32", "--samples", "4096", "-o", str(out)
        )
        assert code == 0
        assert "max_violation" in err
        assert len(list(csv.DictReader(out.open()))) == 32

    def test_disk_greedy(self, capsys):
        code, out, _ = run(capsys, "leja", "--disk", "--greedy", "-N", "4", "--samples", "512")
        assert code == 0
        assert out.splitlines()[0] == "index,re,im"

    def test_refuses_samples_that_cannot_resolve_the_products(self, capsys):
        # 4 samples passed -N 10 at the default tolerance 10/4 = 2.5 without checking anything
        for argv in (["--disk"], ["--disk", "--greedy"], ["--ellipse", "1.2", "0.8", "--greedy"]):
            code, _, err = run(capsys, "leja", *argv, "-N", "10", "--samples", "28")
            assert code == 1 and "degree 9" in err
        code, _, _ = run(capsys, "leja", "--disk", "-N", "10", "--samples", "4")
        assert code == 1
        assert run(capsys, "leja", "--disk", "-N", "10", "--samples", "29")[0] == 0

    def test_stdout_matches_output_file(self, capsys, tmp_path):
        for fmt in ("csv", "json"):
            path = tmp_path / f"out.{fmt}"
            code, out, _ = run(capsys, "leja", "--disk", "-N", "6", "--format", fmt)
            assert code == 0
            assert run(capsys, "leja", "--disk", "-N", "6", "--format", fmt, "-o", str(path))[0] == 0
            assert out.encode() == path.read_bytes()
        assert set(json.loads(out)) == {"n", "points", "compact_tag"}

    def test_csv_layout(self, capsys):
        code, out, _ = run(capsys, "leja", "--disk", "-N", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index,re,im" and len(lines) == 6
        assert lines[1] == "1,1.0,0.0"

    def test_json_points_are_the_canonical_section(self, capsys):
        code, out, _ = run(capsys, "leja", "--disk", "-N", "9", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"n", "points", "compact_tag"}
        points = np.array([complex(p["re"], p["im"]) for p in data["points"]])
        assert np.array_equal(points, canonical_disk_leja(9).points)

    def test_validation_failure_exits_two(self, capsys):
        # an unreachable tolerance turns rounding-level shortfalls into failures
        code, _, err = run(capsys, "leja", "--disk", "-N", "50", "--samples", "256", "--tol", "1e-18")
        assert code == 2
        assert "FAIL" in err

    def test_refuses_tolerances_that_cannot_fail(self, capsys):
        # a shortfall of distinct nodes is below 1, so a tolerance of 1 or more passed every section
        for tol in ("1", "inf", "nan", "0", "-1"):
            code, out, err = run(capsys, "leja", "--disk", "-N", "50", "--samples", "256", "--tol", tol)
            assert code == 1 and out == "", tol
            assert "rel_tol must be in (0, 1)" in err, tol
        # the default 10/samples is 1.43 at 7 samples, which still resolve -N 3
        code, out, err = run(capsys, "leja", "--disk", "-N", "3", "--samples", "7")
        assert code == 1 and out == ""
        assert "rel_tol must be in (0, 1)" in err
        assert run(capsys, "leja", "--disk", "-N", "3", "--samples", "7", "--tol", "0.5")[0] == 0


class TestBoundsCommand:
    def test_small_sweep(self, capsys):
        code, out, _ = run(capsys, "bounds", "--max-n", "12")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 12
        assert all(float(r["sup_margin"]) > 0 for r in rows)

    def test_special_n(self, capsys):
        code, out, _ = run(capsys, "bounds", "--special-n", "--p", "2..3")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [int(r["N"]) for r in rows] == [3, 7]
        assert all(float(r["lebesgue_relerr"]) <= 1e-6 for r in rows)

    def test_special_n_avg_trend(self, capsys):
        code, _, _ = run(capsys, "bounds", "--special-n", "--p", "2..4", "--avg")
        assert code == 0

    @pytest.mark.slow
    def test_special_n_at_4095_and_8191(self, capsys, tmp_path):
        # 64N^2 grid elements per scan: 4.3e9 at N = 8191
        code, rows = run_json(capsys, tmp_path, "bounds", "--special-n", "--p", "12..13")
        assert code == 0
        assert [(r["p"], r["N"]) for r in rows] == [(12, 4095), (13, 8191)]
        for r in rows:
            assert r["lebesgue_relerr"] <= 1e-6 and _FLOOR - 1e-6 < r["max_sup"] <= 2.0 + 1e-6
            assert r["sum_sup"] > r["N"] and r["min_sup"] >= 1.0
            x = math.pi / 2 ** (r["p"] + 1)  # c05's closed form
            closed_form = math.cos(x) / (2 ** (r["p"] - 1) * math.sin(x))
            assert r["max_sup"] == pytest.approx(closed_form, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "column, value",
        [
            ("max_sup", 2.0 * UNIFORM_FLIP_BOUND),  # the uniform sup bound
            ("max_sup", math.nan),
            ("lebesgue", 4.0 + 2e-6),  # Lambda_2 <= 2N
            ("lebesgue", math.nan),
        ],
    )
    def test_sweep_failures_exit_two_and_keep_their_row(self, capsys, tmp_path, monkeypatch, column, value):
        real = cli.circle_flip_stats

        def fake(section, *args):
            sups, report = real(section, *args)
            if len(section) != 2:
                return sups, report
            if column == "max_sup":
                return np.full_like(sups, value), report
            return sups, dataclasses.replace(report, constant=value)

        monkeypatch.setattr(cli, "circle_flip_stats", fake)
        code, rows = run_json(capsys, tmp_path, "bounds", "--max-n", "3")
        assert code == 2
        assert [r["N"] for r in rows] == [1, 2, 3]
        assert same(rows[1][column], value)

    @pytest.mark.parametrize(
        "flags, p, column, value",
        [
            ([], 3, "lebesgue", 7.0 * (1.0 + 2e-6)),  # the identity Lambda_7 = 7
            ([], 3, "lebesgue", math.nan),
            ([], 3, "max_sup", _FLOOR - 2e-6),  # the window's floor
            ([], 3, "max_sup", 2.0 + 2e-6),  # the window's ceiling
            ([], 3, "max_sup", math.nan),
            ([], 3, "sum_sup", 7.0),  # the sum must exceed N
            ([], 3, "sum_sup", math.nan),
            (["--avg"], 4, "avg_sup", 1.0),  # below p = 3's average, but not above 1
            (["--avg"], 3, "avg_sup", 5.0),  # above 1, but above p = 2's average
            (["--avg"], 3, "avg_sup", math.nan),
        ],
    )
    def test_special_n_failures_exit_two_and_keep_their_row(
        self, capsys, tmp_path, monkeypatch, flags, p, column, value
    ):
        real = cli.special_n_statistics

        def fake(p_now, *args):
            stats = real(p_now, *args)
            return dataclasses.replace(stats, **{column: value}) if p_now == p else stats

        monkeypatch.setattr(cli, "special_n_statistics", fake)
        code, rows = run_json(capsys, tmp_path, "bounds", "--special-n", "--p", "2..4", *flags)
        assert code == 2
        assert [r["p"] for r in rows] == [2, 3, 4]
        assert same(rows[p - 2][column], value)

    def test_threads_option_is_gone(self, capsys):
        code, out, err = run(capsys, "bounds", "--max-n", "3", "--threads", "2")
        assert code == 1 and out == ""
        assert "--threads" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "bounds", "--max-n", "3", "--format", "json")
        assert code == 0
        assert [r["N"] for r in json.loads(out)] == [1, 2, 3]

    def test_rejects_empty_sweep(self, capsys):
        code, _, err = run(capsys, "bounds", "--max-n", "0")
        assert code == 1
        assert "error" in err

    def test_rejects_special_n_flags_without_special_n(self, capsys):
        # the plain N-sweep would run and exit 0 without the check they ask for
        for flags in (["--avg"], ["--p", "2..3"], ["--p", "2..3", "--avg"]):
            code, out, err = run(capsys, "bounds", "--max-n", "3", *flags)
            assert code == 1 and out == "", flags
            assert "error" in err and "--special-n" in err

    def test_rejects_grids_and_refines_that_skip_the_check(self, capsys):
        for argv in (
            ["--max-n", "6", "--grid", "-3"],
            ["--max-n", "6", "--grid", "0"],
            ["--max-n", "6", "--refine", "-5"],
            ["--special-n", "--p", "2..3", "--grid", "-3"],
            ["--max-n", "40", "--grid", "8", "--refine", "0"],  # N=4 already needs grid > 3 pi
            ["--special-n", "--p", "2..3", "--grid", "18"],  # N=7 needs grid > 6 pi
        ):
            code, out, err = run(capsys, "bounds", *argv)
            assert code == 1, argv
            assert "error" in err and out == ""


class TestBivariateCommand:
    def test_delta(self, capsys):
        code, out, _ = run(capsys, "bivariate", "--delta", "--n-max", "13")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert int(rows[-1]["cases_seen"]) == 7
        assert float(rows[-1]["max_delta_err"]) <= 1e-10

    def test_oracle(self, capsys):
        code, out, _ = run(capsys, "bivariate", "--oracle", "--n-max", "10", "--points", "4")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert all(float(r["max_rel_err"]) <= 1e-8 for r in rows)

    def test_factorization(self, capsys):
        code, out, _ = run(capsys, "bivariate", "--factorization", "--n-max", "10", "--points", "4")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert {r["check"] for r in rows} == {"extension", "product-formula"}
        assert all(float(r["max_rel_err"]) <= 1e-8 for r in rows)

    def test_verify_2d_leja(self, capsys):
        code, out, _ = run(capsys, "bivariate", "--verify-2d-leja", "--n-max", "12", "--grid", "256")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert float(rows[0]["max_shortfall"]) <= 1e-6

    def test_lebesgue_slope_report(self, capsys):
        code, out, err = run(capsys, "bivariate", "--lebesgue", "--n", "2..5", "--grid", "64")
        assert code == 0
        assert "slope" in err
        assert len(list(csv.DictReader(out.splitlines()))) == 4

    def test_lebesgue_refuses_n_below_one(self, capsys):
        # at n = 0 the envelope C*n(n+1)(n+2) is 0 while Lambda is 1: a failure that checks nothing
        for n_range in ("0..1", "0", "-1..3"):
            code, out, err = run(capsys, "bivariate", "--lebesgue", f"--n={n_range}")
            assert code == 1 and out == "", n_range
            assert "n >= 1" in err
        code, out, _ = run(capsys, "bivariate", "--lebesgue", "--n", "1..2")
        assert code == 0
        assert [int(r["n"]) for r in csv.DictReader(out.splitlines())] == [1, 2]

    def test_decay_refuses_n_below_two(self, capsys):
        # the decay table starts at n = 2: rows asked for below it were dropped and the run passed
        for n_range in ("0..3", "1", "-1..2"):
            code, out, err = run(capsys, "bivariate", "--decay", f"--n={n_range}", "--grid", "24")
            assert code == 1 and out == "", n_range
            assert "n >= 2" in err
        code, out, _ = run(capsys, "bivariate", "--decay", "--n", "2..3", "--grid", "24")
        assert code == 0
        assert [int(r["n"]) for r in csv.DictReader(out.splitlines())] == [2, 3]

    def test_decay(self, capsys):
        code, out, _ = run(capsys, "bivariate", "--decay", "--n", "2..6", "--grid", "24")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        errs = [float(r["sup_error"]) for r in rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    @pytest.mark.parametrize(
        "n_range, n, error",
        [
            ("2..4", 3, 7.0),  # above n = 2's error
            ("2..4", 3, math.nan),
            ("3..4", 2, 0.0),  # the whole table n = 2..4 must decrease, not only the rows written
        ],
    )
    def test_decay_failure_exits_two_and_keeps_the_table(self, capsys, tmp_path, monkeypatch, n_range, n, error):
        real = bv.jackson_decay_experiment

        def fake(*args, **kwargs):
            return [(m, size, error if m == n else err) for m, size, err in real(*args, **kwargs)]

        monkeypatch.setattr(bv, "jackson_decay_experiment", fake)
        code, rows = run_json(capsys, tmp_path, "bivariate", "--decay", "--n", n_range, "--grid", "24")
        assert code == 2
        lo = int(n_range.split("..")[0])
        assert [r["n"] for r in rows] == list(range(lo, 5))
        if n >= lo:
            assert same(rows[n - lo]["sup_error"], error)

    @pytest.mark.parametrize(
        "argv, check, row, column",
        [
            (["--delta", "--n-max", "7"], "check_delta", 1, "max_delta_err"),
            (["--oracle", "--n-max", "4"], "check_oracle", 1, "max_rel_err"),
            (["--factorization", "--n-max", "4"], "check_factorization", 1, "max_rel_err"),
            (["--factorization", "--n-max", "4"], "check_product_formula", 5, "max_rel_err"),
            (["--lebesgue", "--n", "2..4", "--grid", "24"], "bivariate_lebesgue", 1, "lebesgue"),
        ],
    )
    def test_nan_fails_and_keeps_its_row(self, capsys, tmp_path, monkeypatch, argv, check, row, column):
        real, calls = getattr(bv, check), []

        def nan_once(*args, **kwargs):
            value = real(*args, **kwargs)
            calls.append(None)
            if len(calls) != 2:
                return value
            return (math.nan, value[1]) if check == "check_delta" else math.nan

        monkeypatch.setattr(bv, check, nan_once)
        code, rows = run_json(capsys, tmp_path, "bivariate", *argv)
        assert code == 2
        assert [math.isnan(r[column]) for r in rows] == [i == row for i in range(len(rows))]

    def test_verify_2d_leja_refuses_n_max_below_two(self, capsys):
        # at --n-max 1 no node is checked, so the run would pass vacuously
        code, out, err = run(capsys, "bivariate", "--verify-2d-leja", "--n-max", "1")
        assert code == 1 and out == ""
        assert "--n-max >= 2" in err
        code, out, _ = run(capsys, "bivariate", "--verify-2d-leja", "--n-max", "2")
        assert code == 0
        assert int(list(csv.DictReader(out.splitlines()))[0]["checked"]) == 1

    def test_oracle_refuses_n_max_above_its_cap(self, capsys):
        # --n-max 40 used to check N = 1..21 only and exit 0
        for n_max in ("22", "40"):
            code, out, err = run(capsys, "bivariate", "--oracle", "--n-max", n_max, "--points", "2")
            assert code == 1 and out == "", n_max
            assert f"N <= {bv.DEFAULT_ORACLE_CAP}" in err
        code, out, _ = run(capsys, "bivariate", "--oracle", "--n-max", str(bv.DEFAULT_ORACLE_CAP), "--points", "2")
        assert code == 0
        assert [int(r["N"]) for r in csv.DictReader(out.splitlines())] == list(range(1, bv.DEFAULT_ORACLE_CAP + 1))

    def test_rejects_checks_of_no_points(self, capsys):
        for argv in (
            ["--oracle", "--points", "0"],
            ["--oracle", "--points", "-3"],
            ["--factorization", "--points", "0"],
        ):
            code, out, err = run(capsys, "bivariate", *argv, "--n-max", "4")
            assert code == 1, argv
            assert "error" in err and out == ""

    def test_rejects_grids_that_cannot_resolve_the_polynomials(self, capsys):
        for argv in (
            ["--verify-2d-leja", "--grid", "1"],
            ["--verify-2d-leja", "--n-max", "12", "--grid", "15"],  # degree 5 needs grid > 5 pi
            ["--lebesgue", "--grid", "2"],
            ["--lebesgue", "--n", "2..5", "--grid", "15"],  # degree 5 needs grid > 5 pi
            ["--decay", "--n", "2..3", "--grid", "4"],
            ["--decay", "--n", "2..6", "--grid", "18"],  # degree 6 needs grid > 6 pi
        ):
            code, out, err = run(capsys, "bivariate", *argv)
            assert code == 1, argv
            assert "error" in err and out == ""

    def test_modes_without_n_max_refuse_it(self, capsys):
        # --lebesgue and --decay read --n, not --n-max: they ran whatever --n-max said
        for mode in ("--lebesgue", "--decay"):
            code, out, err = run(capsys, "bivariate", mode, "--n-max", "0", "--n", "2..3", "--grid", "24")
            assert code == 1 and out == "", mode
            assert f"--n-max is not read by {mode}" in err
        code, out, _ = run(capsys, "bivariate", "--lebesgue", "--n", "2..3", "--grid", "24")
        assert code == 0
        assert [int(r["n"]) for r in csv.DictReader(out.splitlines())] == [2, 3]

    def test_modes_without_n_refuse_it(self, capsys):
        # only --lebesgue and --decay read --n; the others ignored it without a word
        for mode in ([], ["--delta"], ["--oracle"], ["--factorization"], ["--verify-2d-leja"]):
            code, out, err = run(capsys, "bivariate", *mode, "--n", "0..3", "--n-max", "7")
            assert code == 1 and out == "", mode
            assert f"--n is not read by {(mode or ['--delta'])[0]}" in err

    def test_delta_refuses_sizes_short_of_the_seven_closed_forms(self, capsys):
        for n_max in ("1", "6"):
            code, out, err = run(capsys, "bivariate", "--delta", "--n-max", n_max)
            assert code == 1 and out == ""
            assert "--n-max >= 7" in err
        code, out, _ = run(capsys, "bivariate", "--delta", "--n-max", "7")
        assert code == 0
        assert int(list(csv.DictReader(out.splitlines()))[-1]["cases_seen"]) == 7


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--special-n", "--p", "2..3", "--max-n", "0"],
        ["bivariate", "--delta", "--n-max", "7", "--points", "0"],
        ["bivariate", "--delta", "--n-max", "7", "--grid", "24"],
        ["bivariate", "--oracle", "--n-max", "4", "--grid", "24"],
        ["bivariate", "--factorization", "--n-max", "4", "--grid", "24"],
        ["bivariate", "--verify-2d-leja", "--n-max", "4", "--points", "2"],
        ["bivariate", "--lebesgue", "--n", "2..3", "--grid", "24", "--points", "0"],
        ["bivariate", "--decay", "--n", "2..3", "--grid", "24", "--points", "2"],
        ["transport", "--ellipse", "1.2", "0.8", "--max-n", "4", "--w-grid", "3"],
        ["transport", "--ellipse", "1.2", "0.8", "--max-n", "4", "--t-grid", "3"],
        ["transport", "--alper", "--ellipse", "1.2", "0.8", "--grid", "3"],
        ["transport", "--alper", "--ellipse", "1.2", "0.8", "--refine", "3"],
        ["transport", "--alper", "--ellipse", "1.2", "0.8", "--max-n", "4"],
        ["leja", "--disk", "-N", "8", "--greedy", "--origin-angle", "1"],
        ["leja", "--ellipse", "1.2", "0.8", "-N", "8", "--origin-angle", "1"],
        ["leja", "--disk", "-N", "8", "--seed-index", "99999"],
    ],
)
def test_refuses_an_option_the_mode_never_reads(capsys, argv):
    # the last option is one the mode never reads: it used to be ignored without a word
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"error: {argv[-2]} is not read by" in err
    assert run(capsys, *argv[:-2])[0] == 0


_SMALL = st.integers(min_value=-2, max_value=8)

#: The options each bivariate mode reads (no mode flag runs --delta).
_BIVARIATE_READS = {
    "--oracle": ("--n-max", "--points"),
    "--factorization": ("--n-max", "--points"),
    "--verify-2d-leja": ("--n-max", "--grid"),
    "--lebesgue": ("--n", "--grid"),
    "--decay": ("--n", "--grid"),
}


@settings(max_examples=120, deadline=None)
@given(
    mode=st.sampled_from([None, "--delta", "--oracle", "--factorization", "--verify-2d-leja", "--lebesgue", "--decay"]),
    n_max=_SMALL,
    n_range=st.one_of(_SMALL.map(str), st.tuples(_SMALL, _SMALL).map(lambda lh: f"{lh[0]}..{lh[1]}")),
    grid=st.integers(min_value=-2, max_value=64),
    points=st.integers(min_value=-2, max_value=4),
)
@example(mode="--decay", n_max=4, n_range="0..3", grid=24, points=2)
@example(mode="--delta", n_max=7, n_range="0..3", grid=24, points=2)
def test_bivariate_fuzz_exits_with_a_code(mode, n_max, n_range, grid, points):
    options = {"--n-max": str(n_max), "--n": n_range, "--grid": str(grid), "--points": str(points)}
    reads = _BIVARIATE_READS.get(mode, ("--n-max",))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "rows.json")
        argv = ["bivariate", *([mode] if mode else []), *(x for option in reads for x in (option, options[option]))]
        code = main(argv + ["--format", "json", "-o", out])
        assert code in (0, 1, 2)
        for option in (o for o in options if o not in reads):  # an option the mode does not read is refused
            assert main(argv + [option, options[option], "-o", out]) == 1
        if code != 1 and mode in ("--lebesgue", "--decay"):  # one row for each requested n, no more
            with open(out) as f:
                assert [r["n"] for r in json.load(f)] == cli._parse_range(n_range)


class TestTransportCommand:
    def test_identity_alper_zero(self, capsys):
        code, out, _ = run(capsys, "transport", "--alper", "--ellipse", "1", "1")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert abs(float(rows[0]["alper"])) <= 1e-6

    def test_nan_alper_fails_and_keeps_its_row(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(tp, "estimate_alper_constant", lambda emap, w_grid, t_grid: math.nan)
        code, rows = run_json(capsys, tmp_path, "transport", "--alper", "--ellipse", "1", "1")
        assert code == 2
        assert len(rows) == 1 and math.isnan(rows[0]["alper"])

    def test_ellipse_sweep(self, capsys):
        code, out, err = run(capsys, "transport", "--ellipse", "1.2", "0.8", "--max-n", "16", "--refine", "0")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [int(r["N"]) for r in rows] == [2, 4, 8, 16]
        assert "slope" in err

    def test_rejects_grids_and_refines_that_skip_the_check(self, capsys):
        for extra in (["--grid", "-1"], ["--grid", "0"], ["--refine", "-2"], ["--grid", "21"]):  # N=8: grid > 7 pi
            code, out, err = run(capsys, "transport", "--ellipse", "1.2", "0.8", "--max-n", "8", *extra)
            assert code == 1, extra
            assert "error" in err and out == ""

    def test_refuses_sweeps_of_no_size(self, capsys):
        # the sweep checks N = 2, 4, 8, ...: below 2 it would print [] and pass
        for max_n in ("1", "0", "-4"):
            code, out, err = run(capsys, "transport", "--ellipse", "1.2", "0.8", "--max-n", max_n, "--format", "json")
            assert code == 1 and out == "", max_n
            assert "--max-n must be at least 2" in err
        code, out, err = run(capsys, "transport", "--alper", "--ellipse", "1.2", "0.8", "--max-n", "1")
        assert code == 1 and out == ""  # --alper does not sweep N, so it refuses --max-n
        assert "--max-n is not read by --alper" in err

    def test_rejects_bad_axes(self, capsys):
        for axes in (["0.5", "1.0"], ["1", "5e-324"], ["1e308", "1e308"]):  # b < a; b lost against a; a + b overflows
            code, _, err = run(capsys, "transport", "--alper", "--ellipse", *axes)
            assert code == 1, axes
            assert "error" in err

    def test_thin_ellipse_runs_on_the_exact_capacity(self, capsys):
        # scaled by the power of two nearest 1/c1, the 700x1 node weights reach
        # e^330 at N = 1024, which the scan kernel refuses (exit 1)
        argv = ["transport", "--ellipse", "700", "1", "--max-n", "1024", "--refine", "0", "--grid", "4096"]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["N"] for r in rows] == [2**k for k in range(1, 11)]
        assert all(math.isfinite(r["max_sup"]) and math.isfinite(r["lebesgue"]) for r in rows)

    def test_tiny_axes(self, capsys):
        # capacity scaling by 2.0 ** -round(log2 c1) overflowed here, and the
        # unscaled kernel quotients overflowed to alper=inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "transport", "--alper", "--ellipse", "1e-310", "1e-310")
            assert code == 0
            assert float(next(csv.DictReader(out.splitlines()))["alper"]) <= 1e-6
            code, out, _ = run(capsys, "transport", "--ellipse", "1e-310", "1e-310", "--max-n", "16")
            assert code == 0
            rows = list(csv.DictReader(out.splitlines()))
        assert [int(r["N"]) for r in rows] == [2, 4, 8, 16]
        assert all(1.0 <= float(r["max_sup"]) < 2.0 for r in rows)


_AXIS = st.one_of(st.floats(min_value=-1.0, max_value=40.0), st.sampled_from([0.0, 5e-324, 1e-300, 1e308]))


@settings(max_examples=80, deadline=None)
@given(
    special=st.booleans(),
    max_n=_SMALL,
    p_range=st.one_of(st.none(), st.tuples(st.integers(-1, 4), st.integers(-1, 4)).map(lambda lh: f"{lh[0]}..{lh[1]}")),
    avg=st.booleans(),
    grid=st.one_of(st.none(), st.integers(min_value=-2, max_value=64)),
    refine=st.integers(min_value=-2, max_value=3),
)
def test_bounds_fuzz_exits_with_a_code(special, max_n, p_range, avg, grid, refine):
    argv = ["bounds", *(["--special-n"] if special else ["--max-n", str(max_n)])]
    argv += [*(["--p", p_range] if p_range is not None else []), *(["--avg"] if avg else [])]
    argv += [*(["--grid", str(grid)] if grid is not None else []), "--refine", str(refine)]
    assert main(argv + ["-o", os.devnull]) in (0, 1, 2)


@settings(max_examples=80, deadline=None)
@given(
    axes=st.one_of(st.none(), st.tuples(_AXIS, _AXIS)),
    n_points=st.integers(min_value=-2, max_value=24),
    samples=st.integers(min_value=-2, max_value=300),
    greedy=st.booleans(),
    seed_index=st.integers(min_value=-2, max_value=300),
    tol=st.one_of(st.none(), st.floats(min_value=-1.0, max_value=1.0)),
)
@example(axes=(1e300, 1e299), n_points=24, samples=300, greedy=True, seed_index=0, tol=None)
@example(axes=(1e-300, 1e-300), n_points=24, samples=300, greedy=True, seed_index=0, tol=None)
def test_leja_fuzz_exits_with_a_code(axes, n_points, samples, greedy, seed_index, tol):
    argv = ["leja", *(["--ellipse", repr(axes[0]), repr(axes[1])] if axes else ["--disk"])]
    argv += ["-N", str(n_points), "--samples", str(samples), *(["--greedy"] if greedy else [])]
    argv += ["--seed-index", str(seed_index)] if axes or greedy else []  # the canonical section has no seed
    argv += ["--tol", repr(tol)] if tol is not None else []
    assert main(argv + ["-o", os.devnull]) in (0, 1, 2)


@settings(max_examples=60, deadline=None)
@given(
    axes=st.tuples(_AXIS, _AXIS),
    alper=st.booleans(),
    max_n=st.integers(min_value=-2, max_value=16),
    grid=st.one_of(st.none(), st.integers(min_value=-2, max_value=96)),
    refine=st.integers(min_value=-2, max_value=3),
    w_grid=st.sampled_from([-1, 0, 255, 256]),
)
@example(axes=(1e-310, 1e-310), alper=True, max_n=16, grid=None, refine=3, w_grid=256)
@example(axes=(1e-310, 1e-310), alper=False, max_n=16, grid=None, refine=3, w_grid=256)
def test_transport_fuzz_exits_with_a_code(axes, alper, max_n, grid, refine, w_grid):
    argv = ["transport", "--ellipse", repr(axes[0]), repr(axes[1])]
    if alper:
        argv += ["--alper", "--w-grid", str(w_grid), "--t-grid", "256"]
    else:
        argv += ["--max-n", str(max_n), "--refine", str(refine), *(["--grid", str(grid)] if grid is not None else [])]
    assert main(argv + ["-o", os.devnull]) in (0, 1, 2)


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 1
