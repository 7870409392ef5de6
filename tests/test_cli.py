"""CLI contract: flags, exit codes, report schema, atomic emission."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from gausym import cli, expr, majorize, verify
from gausym.cli import main
from gausym.fields import builtin_field
from gausym.gaussian import equal_measure_grid

from conftest import expressions

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

    def test_bad_expression(self, capsys):
        assert main(["--expr", "x1*", "--checks", "uno"]) == 2
        assert "offset 3" in capsys.readouterr().err

    def test_bad_builtin(self, capsys):
        assert main(["--builtin", "nope"]) == 2

    def test_bad_param(self, capsys):
        assert main(["--builtin", "gaussian_bump", "--param", "c=-2"]) == 2
        assert main(["--builtin", "gaussian_bump", "--param", "c"]) == 2

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

    @pytest.mark.parametrize("flags", [
        ["--checks", "interval", "--intervals", "0.1,nan"],
        ["--checks", "norm", "--norms", "lp:nan"],
        ["--checks", "norm", "--norms", "lorentz:nan"],
        ["--checks", "norm", "--norms", "marcinkiewicz:nan"],
        ["--checks", "norm", "--norms", "lorentz:inf"],
        ["--checks", "uno", "--tol", "-1"],
        ["--checks", "uno", "--tol=-1e-300"],
        "tol=-1",
    ], ids=["interval-nan", "lp-nan", "lorentz-nan", "marcinkiewicz-nan", "lorentz-inf",
            "tol-negative", "tol-tiny-negative", "file-tol-negative"])
    def test_nan_or_negative_value_is_two(self, tmp_path, capsys, monkeypatch, flags):
        def refuse(*args, **kwargs):
            raise AssertionError("analysis built for an invalid configuration")

        monkeypatch.setattr(cli, "analyze", refuse)
        if isinstance(flags, str):
            flags = ["--checks", "uno", *config_flags(tmp_path, flags + "\n")]
        out = tmp_path / "never.json"
        code = main(["--builtin", "coordinate", "--grid", "32", "--sgrid", "64",
                     *flags, "--out", str(out)])
        assert code == 2
        assert "error" in capsys.readouterr().err
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
        expected = [(r.check_name, r.passed, r.max_violation, r.tolerance) for r in rows]
        for study in verify.convergence_study(a, ["uno", "dos", "mt"], [4, 16]):
            row_tol = max(max(study.violations), 1e-12)
            expected += [
                (f"converge:{study.check_name}[N={n}]", study.passed, v, row_tol)
                for n, v in zip(study.Ns, study.violations)
            ]
        return expected

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

        def counting_derivative(p, x1, n_bins):
            points.append(len(x1))
            return original(p, x1, n_bins)

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
        labels, passes, builds, pieces = set(), [], [], []
        call, init, norm = (majorize.YoungFunction.__call__, verify.Analysis.__init__,
                            verify.ri_norm)

        def counting_call(self, t):
            labels.add(self.label)
            passes.append(np.size(t) / pieces[-1])
            return call(self, t)

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
        assert 2 <= sum(passes) <= 24 and labels == {"expsq(20)"}


class TestExpressionGradient:
    def test_one_evaluation_per_analysis(self, tmp_path, monkeypatch):
        """A parsed field's values and gradient come from one forward-mode
        pass per block of grid rows: ``expr.jet`` runs once per block, on
        240 rows of 17 cells and then the 49 rows left of 17^2, and
        ``expr.evaluate`` never runs on the CLI path."""

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
                     "--grid", "17", "--checks", "uno,dos", "--out", str(out)])
        assert code == 0
        assert builds == [17**3] and calls == [(240, 17), (49, 17)]


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
