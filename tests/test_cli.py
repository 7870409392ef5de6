"""CLI contract: flags, exit codes, report schema, atomic emission."""

import dataclasses
import json
import math
import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from gausym import cli, expr, majorize, verify
from gausym.cli import main
from gausym.fields import builtin_field
from gausym.gaussian import BLOCK_CELLS, equal_measure_grid

from conftest import expressions, past_a_block

SCHEMA_KEYS = {"name", "field", "dim", "N", "M", "tolerance", "max_violation", "pass", "runtime_ms"}


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def strict_report(path):
    """The report at ``path``, refusing the NaN/Infinity literals that
    strict JSON parsers reject."""
    def refuse(constant):
        raise AssertionError(f"report holds {constant}")

    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=refuse)


def config_flags(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return ["--config", str(path)]


class TestDocumentedInvocations:
    def test_expression_run(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "--expr", "exp(-x1^2)", "--dim", "1", "--grid", "1024",
            "--checks", "uno,dos", "--out", str(out),
        ])
        assert code == 0
        report = read_report(out)
        assert report["version"] == 1
        assert len(report["checks"]) == 2
        assert all(entry["pass"] for entry in report["checks"])
        assert [e["name"] for e in report["checks"]] == ["uno", "dos"]

    def test_equality_run(self, capsys):
        code = main(["--builtin", "monotone1d", "--checks", "dos", "--equality"])
        assert code == 0
        assert "[pass] dos" in capsys.readouterr().out

    def test_grid_validation(self, capsys):
        code = main(["--grid", "0"])
        assert code == 2
        assert "grid must be ≥ 2" in capsys.readouterr().err


class TestConfigErrors:
    def test_requires_exactly_one_field_source(self, capsys):
        assert main(["--checks", "uno"]) == 2
        assert main(["--expr", "x1", "--builtin", "coordinate"]) == 2

    def test_unknown_check(self, capsys):
        assert main(["--expr", "x1", "--checks", "tres"]) == 2
        assert main(["--builtin", "coordinate", "--checks", "uno,bogus"]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: unknown checks ['bogus']; choose from uno,dos,norm,mt,interval,orlicz,converge"
        )

    def test_no_checks(self, capsys):
        assert main(["--builtin", "coordinate", "--checks", ","]) == 2
        assert capsys.readouterr().err == "error: no checks requested\n"

    def test_bad_expression(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "analyze", None)  # never reached
        assert main(["--expr", "x1*", "--checks", "uno"]) == 2
        assert "offset 3" in capsys.readouterr().err
        assert main(["--expr", "(x1", "--checks", "uno"]) == 2
        assert capsys.readouterr().err == "error: expected ')' at offset 3\n"

    def test_bad_builtin(self, capsys):
        assert main(["--builtin", "nope"]) == 2

    def test_bad_param(self, capsys):
        assert main(["--builtin", "gaussian_bump", "--param", "c=-2"]) == 2
        assert main(["--builtin", "gaussian_bump", "--param", "c"]) == 2

    def test_non_integer_axis(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        argv = ["--builtin", "coordinate", "--param", "axis=1.5", "--dim", "2", "--grid", "16"]
        assert main([*argv, "--checks", "uno", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: axis must be an integer in 1..2, got 1.5\n"
        assert not out.exists()

    def test_bad_norm_spec(self, capsys):
        assert main(["--expr", "x1", "--checks", "norm", "--norms", "lp:0"]) == 2

    def test_bad_intervals(self, capsys):
        assert main(["--expr", "x1", "--checks", "interval", "--intervals", "0.5"]) == 2
        assert main(["--expr", "x1", "--checks", "interval", "--intervals", "0.5,0.2"]) == 2

    def test_seed_flag_removed(self, capsys):
        assert main(["--builtin", "coordinate", "--checks", "uno", "--seed", "3"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_cell_budget(self, capsys):
        assert main(["--builtin", "coordinate", "--dim", "3", "--grid", "500"]) == 2
        assert "budget" in capsys.readouterr().err


class TestExitCodes:
    def test_check_failure_is_one(self, tmp_path):
        out = tmp_path / "fail.json"
        # the equality gap of the orlicz check is small but positive, so a
        # sub-round-off tolerance forces a recorded failure
        code = main([
            "--builtin", "coordinate", "--checks", "orlicz",
            "--tol", "1e-18", "--out", str(out),
        ])
        assert code == 1
        report = read_report(out)
        assert report["checks"][0]["pass"] is False

    def test_runtime_failure_is_three(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        code = main(["--expr", "abs(x1)", "--checks", "dos", "--out", str(out)])
        assert code == 3
        assert not out.exists()  # no partial report

    @pytest.mark.parametrize("argv", [
        ["--expr", "sqrt(x1)", "--checks", "uno"],
        ["--expr", "sqrt(x1)", "--checks", "norm"],
        # N odd: the middle representative sits exactly at x1 = 0
        ["--expr", "1/x1", "--grid", "125", "--checks", "uno"],
        # ... and the exact derivative of sqrt(|x1|) is unbounded there
        ["--expr", "sqrt(abs(x1))", "--grid", "125", "--checks", "uno"],
    ])
    def test_non_finite_field_is_two(self, tmp_path, capsys, argv):
        out = tmp_path / "never.json"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not finite" in err and "at x = (" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["--expr", "1e-170*x1", "--checks", "uno,dos,norm,mt,interval,orlicz,converge"],
        ["--expr", "1e-170*(x1+x2)", "--dim", "2", "--checks", "uno,dos,mt"],
        ["--expr", "1e160*x1", "--checks", "uno,mt"],
        ["--expr", "1e160*(x1+x2)", "--dim", "2", "--checks", "uno,dos,mt"],
    ], ids=["tiny-1d", "tiny-2d", "huge-1d", "huge-2d"])
    def test_tiny_and_huge_gradients_pass(self, tmp_path, capsys, argv):
        """|grad f| of a smooth Lipschitz field is neither lost to
        underflow nor taken as inf from overflowing squares, and no
        numpy warning reaches stderr (every warning is an error here)."""
        out = tmp_path / "r.json"
        assert main([*argv, "--grid", "64", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert all(entry["pass"] for entry in strict_report(out)["checks"])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["2^600*x1", "1e300*x1"])
    def test_overflowing_lp_powers_pass(self, tmp_path, capsys, text):
        """The Lp norms of a field whose values' powers overflow are
        finite: no inf - inf margin, no warning and no exit 3."""
        out = tmp_path / "r.json"
        assert main(["--expr", text, "--grid", "64", "--checks", "norm", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert all(entry["pass"] for entry in strict_report(out)["checks"])

    @pytest.mark.filterwarnings("error")
    def test_negative_surrogate_round_off_gives_finite_norms(self, tmp_path, capsys):
        """monotone1d on the 5^3 grid: one of the surrogate's 8 bin means
        came out -8.9e-16 from round-off on its running sum, the surrogate
        profile ended below 0, and lp:1.5 powered it to NaN: exit 3.  The
        bin means are clamped at +0.0."""
        out = tmp_path / "r.json"
        argv = ["--builtin", "monotone1d", "--dim", "3", "--grid", "5", "--checks", "norm"]
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = strict_report(out)["checks"]
        assert len(rows) == 8
        for row in rows:
            assert math.isfinite(row["max_violation"]) and math.isfinite(row["tolerance"])

    def test_large_lp_exponents_pass_on_a_linear_field(self, tmp_path, capsys):
        """2*x1 on 256 cells: |grad f| is 2 on every cell, and 0.5^1100 of
        the top rescued to [1/2, 1) underflowed, so lp:1100 of the gradient
        profile came out 0 and the row failed by +1.657 (exit 1), while
        lp:5000 passed on two zero norms.  Each norm lies within its
        exponent's root of 1/256 below the sup, 2."""
        out = tmp_path / "r.json"
        argv = ["--expr", "2*x1", "--grid", "256", "--checks", "norm",
                "--norms", "lp:1100,lp:5000,lp:inf"]
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = {row["name"]: row for row in strict_report(out)["checks"]}
        assert all(row["pass"] for row in rows.values())
        assert rows["norm:lp:1100"]["max_violation"] == pytest.approx(-0.3428, abs=1e-4)
        assert rows["norm:lp:5000"]["max_violation"] == pytest.approx(-0.3384, abs=1e-4)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [1021, 1022])
    def test_fields_near_the_top_of_the_double_range_scale(self, tmp_path, capsys, k):
        """2^k * x1, within a factor of 4 of the largest double, exits 0
        with nothing on stderr, and every row's curves, violation and
        tolerance are 2^k times those of x1: bit for bit, except the norms
        lp:1.5 (the square roots of its terms and the 1/1.5 power of
        their sum need not scale exactly with a power of two) and
        orlicz:expsq (the Luxemburg root tolerance).  The tolerance took
        10 sup before dividing by M, and the symmetrized slopes n_bins
        times the bin means' drops, and both overflowed: exit 3."""
        def run(text, name):
            out, curves = tmp_path / f"{name}.json", tmp_path / name
            code = main(["--expr", text, "--grid", "64",
                         "--checks", "uno,dos,norm,mt,interval,orlicz",
                         "--out", str(out), "--curves", str(curves)])
            assert code == 0 and capsys.readouterr().err == ""
            rows = strict_report(out)["checks"]
            for row in rows:
                row["curve"] = np.loadtxt(row["curves_file"], delimiter=",", skiprows=1, ndmin=2)
            return rows

        base, scaled = run("x1", "base"), run(f"2^{k}*x1", "scaled")
        assert [r["name"] for r in base] == [r["name"] for r in scaled]
        bounds = {"norm:lp:1.5": 7.6e-15, "norm:orlicz:expsq": 5e-11}
        for b, s in zip(base, scaled):
            curve = np.ldexp(b["curve"], k)
            if b["name"] != "orlicz":  # its s-grid is the hinge thresholds c
                curve[:, 0] = b["curve"][:, 0]
            got = np.array([s["max_violation"], s["tolerance"], *s["curve"].ravel()])
            want = np.array([math.ldexp(b["max_violation"], k), math.ldexp(b["tolerance"], k),
                             *curve.ravel()])
            bound = bounds.get(b["name"], 0.0) * math.ldexp(np.max(np.abs(b["curve"])), k)
            assert np.all(np.abs(got - want) <= bound), b["name"]

    @pytest.mark.filterwarnings("error")
    def test_luxemburg_norm_at_the_top_of_the_double_range(self, tmp_path, capsys):
        """The largest double times tanh(x1) exits 0 with nothing on
        stderr, its orlicz:expsq norm twice that of 2^1023*tanh(x1) to the
        Luxemburg root tolerance.  The bracket walk doubled its upper end
        past the largest double, and the norm came out -inf: exit 3."""
        def orlicz_violation(text, name):
            out = tmp_path / f"{name}.json"
            code = main(["--expr", text, "--grid", "64", "--checks", "norm", "--out", str(out)])
            assert code == 0 and capsys.readouterr().err == ""
            rows = {row["name"]: row for row in strict_report(out)["checks"]}
            assert all(row["pass"] for row in rows.values())
            return rows["norm:orlicz:expsq"]["max_violation"]

        top = orlicz_violation("1.7976931348623157e308*tanh(x1)", "top")
        half = orlicz_violation("2^1023*tanh(x1)", "half")
        assert top == pytest.approx(2.0 * half, rel=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_huge_field_on_the_largest_3d_grid_passes(self, tmp_path, capsys):
        """Every running sum adds masses, value times width, so none of
        them overflows where the values' plain sum over 125^3 cells would."""
        out = tmp_path / "r.json"
        code = main(["--expr", "1e302*x1", "--dim", "3", "--grid", "125", "--checks", "uno,dos",
                     "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        assert all(entry["pass"] for entry in strict_report(out)["checks"])

    def test_non_finite_report_is_three(self, tmp_path, capsys, monkeypatch):
        uno = verify.CHECKS["uno"]
        monkeypatch.setitem(verify.CHECKS, "uno", lambda *args, **kwargs: [
            dataclasses.replace(row, max_violation=math.nan) for row in uno(*args, **kwargs)])
        out = tmp_path / "never.json"
        code = main(["--builtin", "coordinate", "--grid", "64", "--checks", "uno",
                     "--out", str(out)])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_refused_report_writes_no_curve(self, tmp_path):
        """A report refused for a non-finite number is encoded before any
        curve is written, so it leaves no CSV (and no directory) behind."""
        a = verify.analyze(builtin_field("coordinate"), equal_measure_grid(1, 64), 64, ["uno"])
        (row,) = verify.run_checks(a, ["uno"])
        curves, out = tmp_path / "cv", tmp_path / "r.json"
        with pytest.raises(ValueError):
            cli.write_report([dataclasses.replace(row, max_violation=math.nan)], str(out), str(curves))
        assert not out.exists() and not curves.exists()

    @pytest.mark.parametrize("tol", [["--tol", "nan"], ["--tol", "inf"], ["--tol=-inf"], "tol=nan"],
                             ids=["flag-nan", "flag-inf", "flag-minus-inf", "file-nan"])
    def test_non_finite_tolerance_is_two(self, tmp_path, capsys, monkeypatch, tol):
        def refuse(*args, **kwargs):
            raise AssertionError("analysis built for an invalid configuration")

        monkeypatch.setattr(cli, "analyze", refuse)
        flags = config_flags(tmp_path, tol + "\n") if isinstance(tol, str) else tol
        out = tmp_path / "never.json"
        code = main(["--builtin", "coordinate", "--grid", "64", "--checks", "uno",
                     *flags, "--out", str(out)])
        assert code == 2
        assert "finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--checks", "interval", "--intervals", "0.1,nan"], "intervals must lie within [0, 1]"),
        (["--checks", "norm", "--norms", "lp:nan"], "lp exponent must be >= 1, got nan"),
        (["--checks", "norm", "--norms", "lorentz:nan"],
         "lorentz exponent must be finite and >= 1, got nan"),
        (["--checks", "norm", "--norms", "marcinkiewicz:nan"],
         "marcinkiewicz exponent must be > 1, got nan"),
        (["--checks", "norm", "--norms", "lorentz:inf"],
         "lorentz exponent must be finite and >= 1, got inf"),
        (["--checks", "uno", "--tol", "-1"], "expected a finite number >= 0, got '-1'"),
        (["--checks", "uno", "--tol=-1e-300"], "expected a finite number >= 0, got '-1e-300'"),
        ("tol=-1", "expected a finite number >= 0, got '-1'"),
        (["--checks", "interval", "--intervals", "a,b"], "interval 'a,b' has non-numeric bounds"),
        (["--checks", "interval", "--intervals", ";"], "no intervals given"),
        # a run that checked nothing would report success
        (["--checks", "norm", "--norms", ","], "no norms given"),
        (["--checks", "uno", "--sgrid", "4"], "sgrid must be >= 8"),
        # the t-grid and its curves are M long: refused before the grid is sampled
        (["--checks", "uno", "--sgrid", "2000001"], "sgrid must be <= 2000000, the cell budget"),
        (["--checks", "uno", "--builtin", "monotone1d", "--param", "a=inf"],
         "parameter a=inf must be finite"),
        (["--checks", "uno", "--builtin", "monotone1d", "--param", "a=0"], "a must be positive"),
        (["--checks", "uno", "--builtin", "mixture", "--param", "c1=0"],
         "bump widths c1, c2 must be positive"),
        (["--checks", "uno", "--builtin", "halfspace_indicator_smooth", "--param", "width=0"],
         "width must be positive"),
    ], ids=["interval-nan", "lp-nan", "lorentz-nan", "marcinkiewicz-nan", "lorentz-inf",
            "tol-negative", "tol-tiny-negative", "file-tol-negative", "interval-non-numeric",
            "no-intervals", "no-norms", "sgrid-below-8", "sgrid-above-budget",
            "param-inf", "monotone-a-zero", "mixture-c1-zero", "halfspace-width-zero"])
    def test_nan_or_negative_value_is_two(self, tmp_path, capsys, monkeypatch, flags, message):
        def refuse(*args, **kwargs):
            raise AssertionError("analysis built for an invalid configuration")

        monkeypatch.setattr(cli, "analyze", refuse)
        if isinstance(flags, str):
            flags = ["--checks", "uno", *config_flags(tmp_path, flags + "\n")]
        out = tmp_path / "never.json"
        code = main(["--builtin", "coordinate", "--grid", "32", "--sgrid", "64",
                     *flags, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_zero_tolerance_accepted(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["--builtin", "coordinate", "--grid", "32", "--sgrid", "64",
                     "--checks", "uno", "--tol", "0", "--out", str(out)])
        assert code in (0, 1)
        assert read_report(out)["checks"][0]["tolerance"] == 0.0

    def test_no_temp_files_left(self, tmp_path):
        out = tmp_path / "r.json"
        main(["--builtin", "coordinate", "--grid", "64", "--checks", "uno", "--out", str(out)])
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []

    @pytest.mark.parametrize("target,message", [
        (lambda d: ["--out", str(d / "missing" / "r.json")], "no such directory"),
        (lambda d: ["--out", str(d)], "is a directory"),
        (lambda d: ["--curves", str(d / "afile")], "is not a directory"),
    ], ids=["out-dir-missing", "out-is-a-directory", "curves-is-a-file"])
    def test_unwritable_output_is_two_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                      target, message):
        def refuse(*args, **kwargs):
            raise AssertionError("analysis built for an unwritable output path")

        monkeypatch.setattr(cli, "analyze", refuse)
        (tmp_path / "afile").write_text("kept\n")
        code = main(["--builtin", "coordinate", "--grid", "64", "--checks", "uno",
                     *target(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert (tmp_path / "afile").read_text() == "kept\n"
        assert sorted(os.listdir(tmp_path)) == ["afile"]

    def test_failed_write_is_three(self, tmp_path, capsys):
        # the curves path passes validation (it does not exist yet), but
        # its parent is a file, so creating it fails once every check ran
        (tmp_path / "afile").write_text("kept\n")
        out = tmp_path / "r.json"
        code = main(["--builtin", "coordinate", "--grid", "64", "--checks", "uno",
                     "--out", str(out), "--curves", str(tmp_path / "afile" / "cv")])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("runtime error: cannot write report: ")
        assert "Traceback" not in captured.err and captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["afile"]


class TestReportEmission:
    def test_schema_and_round_trip(self, tmp_path):
        out = tmp_path / "r.json"
        code = main([
            "--builtin", "gaussian_bump", "--grid", "256",
            "--checks", "uno,dos,mt,interval,orlicz,norm", "--out", str(out),
        ])
        assert code == 0
        report = read_report(out)
        for entry in report["checks"]:
            assert SCHEMA_KEYS.issubset(entry)
        # round trip: parse(emit(report)) == report
        assert json.loads(json.dumps(report)) == report

    def test_curves_emission(self, tmp_path):
        out = tmp_path / "r.json"
        curves = tmp_path / "curves"
        code = main([
            "--builtin", "coordinate", "--grid", "128", "--sgrid", "64",
            "--checks", "uno", "--out", str(out), "--curves", str(curves),
        ])
        assert code == 0
        entry = read_report(out)["checks"][0]
        assert "curves_file" in entry
        with open(entry["curves_file"], "r", encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "s,lhs,rhs"
        assert len(lines) == 1 + 64
        s, lhs, rhs = (float(v) for v in lines[-1].split(","))
        assert s == 1.0

    def test_norms_that_differ_get_their_own_rows_and_curves(self, tmp_path):
        # lp:1.0000001 was labelled lp:1: two rows of one name, and the
        # second norm's curves overwrote the first's
        out, curves = tmp_path / "r.json", tmp_path / "curves"
        code = main(["--builtin", "coordinate", "--grid", "64", "--checks", "norm",
                     "--norms", "lp:1,lp:1.0000001", "--out", str(out), "--curves", str(curves)])
        assert code == 0
        entries = read_report(out)["checks"]
        assert [e["name"] for e in entries] == ["norm:lp:1", "norm:lp:1.0000001"]
        files = {e["curves_file"] for e in entries}
        assert len(files) == 2 and all(os.path.isfile(f) for f in files)

    def test_expr_field_is_the_canonical_form(self, tmp_path):
        """An --expr field's report label is its canonical serialized form."""
        out = tmp_path / "r.json"
        assert main(["--expr", "tanh(x1 + 0.5*x2)", "--dim", "2", "--grid", "32",
                     "--checks", "uno", "--out", str(out)]) == 0
        assert read_report(out)["checks"][0]["field"] == "tanh(x1+0.5*x2)"

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_files_take_the_umask(self, tmp_path, umask, mode):
        """The report and the curves get the mode the umask gives, not the
        0600 of a mkstemp temp file that the rename would keep."""
        out, curves = tmp_path / "r.json", tmp_path / "curves"
        old = os.umask(umask)
        try:
            code = main(["--builtin", "coordinate", "--grid", "64", "--checks", "uno,dos",
                         "--out", str(out), "--curves", str(curves)])
        finally:
            os.umask(old)
        assert code == 0
        files = [out, *curves.iterdir()]
        assert len(files) == 3
        assert [stat.S_IMODE(os.stat(f).st_mode) for f in files] == [mode] * 3
        assert sorted(os.listdir(tmp_path)) == ["curves", "r.json"]

    # signed zero, the smallest subnormal and normal, the largest power of
    # ten, a non-terminating decimal, integral floats, and non-finites
    CSV_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1, 1.0, -3.0, 2.0**60,
                  math.inf, -math.inf, math.nan]

    @staticmethod
    def per_row_csv(s, lhs, rhs):
        rows = ["s,lhs,rhs"] + [f"{a:.17g},{b:.17g},{c:.17g}" for a, b, c in zip(s, lhs, rhs)]
        return "\n".join(rows) + "\n"

    @pytest.mark.parametrize("value", CSV_VALUES)
    def test_one_row_curve_csv_matches_per_row_format(self, value):
        s, lhs, rhs = np.array([0.5]), np.array([value]), np.array([-value])
        assert cli.curve_csv(s, lhs, rhs) == self.per_row_csv(s, lhs, rhs)

    def test_long_curve_csv_matches_per_row_format(self):
        rng = np.random.default_rng(0)
        curve = rng.normal(size=(3, 4096)) * 10.0 ** rng.integers(-300, 300, size=(3, 4096))
        for k, value in enumerate(self.CSV_VALUES):
            curve[:, 100 * k] = np.roll([value, -value, 0.5 * value], k)
        text = cli.curve_csv(*curve)
        assert text == self.per_row_csv(*curve)
        assert text.count("\n") == 1 + 4096

    def test_converge_rows(self, tmp_path):
        out = tmp_path / "c.json"
        code = main([
            "--builtin", "gaussian_bump", "--grid", "1024",
            "--checks", "uno,converge", "--out", str(out),
        ])
        assert code == 0
        names = [e["name"] for e in read_report(out)["checks"]]
        assert "converge:uno[N=64]" in names
        assert "converge:uno[N=1024]" in names


class TestSharedAnalysis:
    """One CLI run builds one analysis and shares it; the lower converge
    rungs add one each.  Rows match standalone check calls."""

    def _standalone(self, field, grid, M):
        a = verify.analyze(field, grid, M)
        rows = [
            verify.check_reformulated(a),
            verify.check_polya_szego(a),
            *verify.check_norm_inequality(a),
            verify.check_mazya_talenti(a),
            verify.check_interval_bound(a, [(0.1, 0.2), (0.6, 0.7)]),
            verify.check_orlicz_equality(a),
        ]
        rows += verify.convergence_study(a, ["uno", "dos", "mt"])
        return [(r.check_name, r.passed, r.max_violation, r.tolerance) for r in rows]

    def test_all_checks_share_one_analysis(self, tmp_path, monkeypatch):
        builds = []
        init = verify.Analysis.__init__

        def counting_init(self, field, grid, M, checks):
            builds.append(grid.cells_per_axis)
            init(self, field, grid, M, checks)

        monkeypatch.setattr(verify.Analysis, "__init__", counting_init)
        out = tmp_path / "r.json"
        code = main([
            "--builtin", "mixture", "--dim", "2", "--grid", "64",
            "--checks", "uno,dos,norm,mt,interval,orlicz,converge", "--out", str(out),
        ])
        assert sorted(builds) == [4, 16, 64]
        monkeypatch.undo()
        rows = read_report(out)["checks"]
        assert code == (0 if all(r["pass"] for r in rows) else 1)
        field, grid = builtin_field("mixture", dim=2), equal_measure_grid(2, 64)
        expected = self._standalone(field, grid, 4096)
        assert [r["name"] for r in rows] == [e[0] for e in expected]
        for row, (name, passed, violation, tol) in zip(rows, expected):
            assert row["pass"] == passed, name
            assert row["max_violation"] == pytest.approx(violation, rel=1e-10, abs=0.0), name
            assert row["tolerance"] == pytest.approx(tol, rel=1e-10, abs=0.0), name

    def test_symmetrized_gradient_on_axis_points(self, tmp_path, monkeypatch):
        points = []
        original = verify.symmetrized_derivative

        def counting_derivative(means, x1):
            points.append(len(x1))
            return original(means, x1)

        monkeypatch.setattr(verify, "symmetrized_derivative", counting_derivative)
        main([
            "--builtin", "mixture", "--dim", "2", "--grid", "64",
            "--checks", "dos,orlicz,converge", "--out", str(tmp_path / "r.json"),
        ])
        assert sorted(points) == [4, 16, 64]

    def test_luxemburg_passes_per_norm(self, tmp_path, monkeypatch):
        """The orlicz:expsq row takes about ten passes over each of its two
        profiles; bisection took 35 or more.  A pass is the work of one:
        the elements passed to A, divided by the pieces of the profile
        whose norm is taken."""
        passes, builds, pieces = [], [], []
        call, init, norm = (majorize.YoungFunction.__call__, verify.Analysis.__init__,
                            verify.ri_norm)

        def counting_call(self, t, **kwargs):
            passes.append(np.size(t) / pieces[-1])
            return call(self, t, **kwargs)

        def counting_norm(p, X):
            pieces.append(p.num_pieces)
            return norm(p, X)

        def counting_init(self, field, grid, M, checks):
            builds.append(grid.num_cells)
            init(self, field, grid, M, checks)

        monkeypatch.setattr(majorize.YoungFunction, "__call__", counting_call)
        monkeypatch.setattr(verify.Analysis, "__init__", counting_init)
        monkeypatch.setattr(verify, "ri_norm", counting_norm)
        code = main(["--builtin", "poly_tanh", "--grid", "4096", "--checks", "norm",
                     "--norms", "orlicz:expsq", "--out", str(tmp_path / "r.json")])
        assert code == 0
        assert builds == [4096] and len(pieces) == 2
        assert 2 <= sum(passes) <= 24


class TestExpressionGradient:
    def test_one_evaluation_per_analysis(self, tmp_path, monkeypatch):
        """A parsed field's values and gradient come from one forward-mode
        pass per block of grid rows: ``expr.jet`` runs once per block, on
        BLOCK_CELLS // N rows of N cells and then the rows left of N^2
        (390 and 51 at N = 21, BLOCK_CELLS = 8192), and ``expr.evaluate``
        never runs on the CLI path."""
        N = past_a_block(3)
        step = BLOCK_CELLS // N
        assert step < N * N < 2 * step

        def refuse(node, xs):
            raise AssertionError("a separate value pass on the CLI path")

        calls, builds = [], []
        jet, init = expr.jet, verify.Analysis.__init__

        def counting_jet(node, xs):
            calls.append(np.broadcast_shapes(*(x.shape for x in xs)))
            return jet(node, xs)

        def counting_init(self, field, grid, M, checks):
            builds.append(grid.num_cells)
            init(self, field, grid, M, checks)

        monkeypatch.setattr(expr, "evaluate", refuse)
        monkeypatch.setattr(expr, "jet", counting_jet)
        monkeypatch.setattr(verify.Analysis, "__init__", counting_init)
        out = tmp_path / "r.json"
        code = main(["--expr", "tanh(x1 + 0.5*x2*x3) + 0.3*sin(x2)", "--dim", "3",
                     "--grid", str(N), "--checks", "uno,dos", "--out", str(out)])
        assert code == 0
        assert builds == [N**3] and calls == [(step, N), (N * N - step, N)]


class TestGridSampling:
    def test_mt_does_not_import_numpy_ma(self, tmp_path):
        """np.median imports numpy.ma on first use, about 10 ms per run."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = ("import sys; from gausym.cli import main; "
                f"main(['--builtin', 'mixture', '--grid', '4096', '--checks', 'mt', "
                f"'--out', {str(tmp_path / 'r.json')!r}]); "
                "print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.splitlines()[-1] == "False"
        assert read_report(tmp_path / "r.json")["checks"][0]["name"] == "mt"

    def test_workload_configs_do_not_import_numpy_ma(self, tmp_path):
        """np.unique, np.median and np.isin import numpy.ma on first use,
        16-27 ms of a CLI run.  Small versions of the benchmark's three
        workloads, every check among them, run without it."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        runs = [
            ["--builtin", "mixture", "--dim", "2", "--grid", "32", "--checks",
             "uno,dos,norm,mt,interval,orlicz,converge", "--curves", str(tmp_path / "curves")],
            ["--builtin", "poly_tanh", "--grid", "65536", "--checks", "uno,norm,mt,interval"],
            ["--expr", "tanh(x1 + 0.5*x2*x3) + 0.3*sin(x2)", "--dim", "3", "--grid", "9",
             "--checks", "uno,dos"],
        ]
        outs = [str(tmp_path / f"r{i}.json") for i in range(len(runs))]
        code = ("import sys; from gausym.cli import main; "
                f"print([main(args + ['--out', out]) for args, out in zip({runs!r}, {outs!r})]); "
                "print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.splitlines()[-2:] == ["[0, 0, 0]", "False"]
        assert [len(read_report(o)["checks"]) for o in outs] == [22, 11, 2]


class TestConsoleScript:
    """``entry``, the installed console script, exits with ``os._exit``
    once stdout and stderr are flushed: in a child process every line
    still arrives through a pipe, with main's exit code."""

    ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))),
         os.environ.get("PYTHONPATH", "")])}
    SCRIPT = [sys.executable, "-c", "from gausym.cli import entry; entry()"]

    @pytest.mark.parametrize("argv,code", [
        (["--builtin", "coordinate", "--grid", "64", "--checks", "uno,dos"], 0),
        (["--builtin", "coordinate", "--checks", "orlicz", "--tol", "1e-18"], 1),
        (["--builtin", "coordinate", "--grid", "1"], 2),
        (["--expr", "abs(x1)", "--checks", "dos"], 3),
    ], ids=["pass", "fail", "bad-config", "runtime-error"])
    def test_lines_and_code_match_main(self, tmp_path, capsys, argv, code):
        argv = [*argv, "--out", str(tmp_path / "r.json")]
        assert main(argv) == code
        captured = capsys.readouterr()
        child = subprocess.run(self.SCRIPT + argv, env=self.ENV, capture_output=True, text=True)
        assert (child.returncode, child.stdout, child.stderr) == (code, captured.out, captured.err)

    @staticmethod
    def run_with_reader_gone(argv, stream, env):
        """The console script on ``argv`` with ``stream`` a pipe whose
        read end is closed; the other stream is captured."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: write_end}
        try:
            return subprocess.run(TestConsoleScript.SCRIPT + argv, env=env, text=True, **pipes)
        finally:
            os.close(write_end)

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_stdout_is_three(self, tmp_path, unbuffered):
        """Stdout whose reader is gone fails main's last lines, in main
        when unbuffered, else in the final flush: exit 3 with a runtime
        error line, not Python's "Exception ignored" and exit 120."""
        out = tmp_path / "r.json"
        child = self.run_with_reader_gone(
            ["--builtin", "coordinate", "--grid", "64", "--checks", "uno", "--out", str(out)],
            "stdout", {**self.ENV, "PYTHONUNBUFFERED": unbuffered})
        assert child.returncode == 3
        assert child.stderr.startswith("runtime error: cannot write output: ")
        assert "Traceback" not in child.stderr and "Exception ignored" not in child.stderr
        assert read_report(out)["checks"][0]["pass"] is True

    def test_closed_stderr_is_three(self):
        """An error line that cannot reach stderr exits 3, silently."""
        child = self.run_with_reader_gone(["--builtin", "coordinate", "--grid", "1"], "stderr",
                                          self.ENV)
        assert (child.returncode, child.stdout) == (3, "")


class TestTracerHooks:
    """The benchmark's span tracer, perfbench/tracing.py, runs the CLI
    in-process after rebinding ``expr.evaluate`` and replacing every
    field's ``evaluator`` through ``dataclasses.replace``; a traced run
    must still exit 0 and write its report and spans."""

    TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "tracing.py")

    @pytest.mark.parametrize("field", [
        ["--expr", "tanh(x1 + 0.5*x2*x3) + 0.3*sin(x2)", "--dim", "3", "--grid", "9"],
        ["--builtin", "mixture", "--dim", "2", "--grid", "32"],
    ], ids=["expr", "builtin"])
    def test_traced_run_writes_its_report(self, field, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        spans, out = tmp_path / "spans.json", tmp_path / "r.json"
        proc = subprocess.run(
            [sys.executable, self.TRACER, str(spans), "run-0", "--", *field,
             "--checks", "uno,dos", "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert [e["name"] for e in read_report(out)["checks"]] == ["uno", "dos"]
        assert read_report(spans)["spans"]


class TestConfigFile:
    def test_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid=512\nchecks=uno\nbuiltin=coordinate\n")
        out = tmp_path / "r.json"
        # flag overrides file value for grid; file supplies the rest
        code = main(["--config", str(cfg), "--grid", "256", "--out", str(out)])
        assert code == 0
        entry = read_report(out)["checks"][0]
        assert entry["N"] == 256
        assert entry["name"] == "uno"

    def test_file_only(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nbuiltin=monotone1d\nchecks=uno\nequality=true\n")
        assert main(["--config", str(cfg)]) == 0

    def test_bad_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grids=512\n")
        assert main(["--config", str(cfg), "--expr", "x1"]) == 2

    def test_missing_file(self, capsys):
        assert main(["--config", "/nonexistent/run.cfg", "--expr", "x1"]) == 2

    @pytest.mark.parametrize("line,message", [
        ("equality=maybe", "equality must be one of"),
        ("gri=64", "unknown config key 'gri'"),  # flags abbreviate, file keys do not
        ("config=other.cfg", "unknown config key 'config'"),
        ("dim=4", "invalid choice"),
        ("grid", "expected key=value"),
    ])
    def test_invalid_line_is_two(self, tmp_path, capsys, line, message):
        out = tmp_path / "never.json"
        flags = config_flags(tmp_path, f"builtin=coordinate\n{line}\n")
        assert main([*flags, "--checks", "uno", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_param_merges_per_key(self, tmp_path):
        out = tmp_path / "r.json"
        flags = config_flags(tmp_path, "builtin=mixture\nparam=m=1.0;c1=2.0\n")
        main([*flags, "--param", "m=1.1", "--grid", "64", "--checks", "uno",
              "--out", str(out)])
        field = read_report(out)["checks"][0]["field"]
        assert field == "mixture(w1=1.0,w2=0.6,c1=2.0,c2=2.0,m=1.1)"

    # each key once, as a file line and as the flags it stands for
    PARITY = [
        ("expr=exp(-x1^2)", ["--expr", "exp(-x1^2)"]),
        ("builtin=gaussian_bump", ["--builtin", "gaussian_bump"]),
        ("param=m=1.1;c1=0.9", ["--param", "m=1.1", "--param", "c1=0.9"]),
        ("dim=2", ["--dim", "2"]),
        ("grid=48", ["--grid", "48"]),
        ("sgrid=128", ["--sgrid", "128"]),
        ("checks=dos,mt,orlicz", ["--checks", "dos,mt,orlicz"]),
        ("intervals=0.2,0.3;0.5,0.9", ["--intervals", "0.2,0.3;0.5,0.9"]),
        ("norms=lp:2,lorentz:2", ["--norms", "lp:2,lorentz:2"]),
        ("tol=1e-3", ["--tol", "1e-3"]),
        ("equality=Yes", ["--equality"]),
        ("out={out}", ["--out", "{out}"]),
        ("curves={curves}", ["--curves", "{curves}"]),
    ]
    BASE = {"builtin": "mixture", "grid": "32", "sgrid": "64",
            "checks": "uno,norm,interval", "out": "{out}", "curves": "{curves}"}

    @pytest.mark.parametrize("line,flags", PARITY, ids=[p[0].split("=")[0] for p in PARITY])
    def test_file_line_matches_flag(self, tmp_path, capsys, line, flags):
        key = line.split("=")[0]
        base = [f"--{k}={v}" for k, v in self.BASE.items()
                if k != key and not (key == "expr" and k == "builtin")]
        curves = tmp_path / "curves"
        reports = []
        for source in ("file", "flags"):
            paths = {"out": tmp_path / f"{source}.json", "curves": curves}
            fill = [arg.format(**paths) for arg in base]
            if source == "file":
                argv = [*config_flags(tmp_path, line.format(**paths) + "\n"), *fill]
            else:
                argv = [*fill, *(arg.format(**paths) for arg in flags)]
            assert main(argv) in (0, 1)
            text = paths["out"].read_text()
            reports.append((re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', text),
                            capsys.readouterr().out))
        assert reports[0] == reports[1]


class TestGeneratedExpressions:
    """Any expression of the grammar exits 0..3 without a traceback, and
    every report it writes is strict JSON."""

    @given(text=expressions())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_check_exits_cleanly(self, tmp_path, capsys, text):
        out = tmp_path / "r.json"
        if out.exists():
            out.unlink()
        code = main(["--expr", text, "--dim", "2", "--grid", "16", "--sgrid", "64",
                     "--checks", ",".join(cli.CHECK_TOKENS), "--out", str(out)])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in capsys.readouterr().err
        assert out.exists() == (code in (0, 1))
        if out.exists():
            strict_report(out)


class TestCorpus:
    def test_list(self, capsys):
        assert main(["corpus", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("coordinate", "monotone1d", "gaussian_bump"):
            assert name in out

    def test_describe(self, capsys):
        assert main(["corpus", "describe", "coordinate"]) == 0
        assert "identically 1" in capsys.readouterr().out

    def test_describe_unknown(self, capsys):
        assert main(["corpus", "describe", "wat"]) == 2
