"""Command-line front end: run inequality checks and manage the corpus.

Usage:
    gausym --expr "exp(-x1^2)" --dim 1 --grid 1024 --checks uno,dos --out r.json
    gausym --builtin monotone1d --checks dos --equality
    gausym corpus list
    gausym corpus describe coordinate
    gausym --config run.cfg --grid 256

``_build_parser`` alone defines the options.  Each ``key=value`` line of
a ``--config`` file is parsed as the flag ``--key`` (``equality`` takes
1/true/yes or 0/false/no; ``param=a=1;b=2`` is two ``--param`` flags)
before the command line, so the command line wins per option and per
``--param`` key.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad
configuration (a negative or non-finite --tol, an --sgrid below 8 or
above the cell budget ``gaussian.DEFAULT_CELL_BUDGET``, an --intervals
value that is not a union of ordered, disjoint pairs a < b in [0, 1], a
NaN bound included, whatever the checks, a NaN norm exponent,
lorentz:inf included, a --norms value that names no norm, a --param next
to --expr, an --out path in a missing directory or naming a directory, a
--curves path naming an existing file), refused before any work, or a
field whose value or gradient is not finite on the grid, 3 runtime
failure while checking, a report holding a non-finite number, a report
or curve file that cannot be written, or (through the console script,
which flushes stdout and stderr and then exits with os._exit) output
that cannot be written, its reader gone.
Report files are written atomically (temp file + rename), so a crash
never leaves a partial report behind; they get the mode the umask gives
(0644 under umask 022).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .errors import GausymError, NonFiniteFieldError
from .fields import builtin_field, corpus_names, describe_field, parse_field
from .gaussian import DEFAULT_CELL_BUDGET, equal_measure_grid
from .majorize import DEFAULT_NORM_FAMILY, parse_norm
from .verify import CHECKS, IneqReport, analyze, require_known, run_checks, validate_intervals

CHECK_TOKENS = tuple(CHECKS)

EQUALITY_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


class ConfigError(Exception):
    pass


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _param(text: str) -> tuple[str, float]:
    key, _, value = text.partition("=")
    try:
        return key.strip(), float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected K=V with a number V, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausym",
        description="Rearrangement-inequality checks under the Gaussian measure.",
    )
    parser.add_argument("--expr", help="field expression in x1..xn")
    parser.add_argument("--builtin", help="builtin field name (see 'gausym corpus list')")
    parser.add_argument("--param", type=_param, action="append", default=[], metavar="K=V",
                        help="builtin field parameter, repeatable (the last value of a K wins)")
    parser.add_argument("--dim", type=int, choices=(1, 2, 3), default=1)
    parser.add_argument("--grid", type=int, default=1024, metavar="N", help="cells per axis")
    parser.add_argument("--sgrid", type=int, default=4096, metavar="M",
                        help="s-grid size (default %(default)s)")
    parser.add_argument("--checks", default="uno,dos",
                        help=f"comma list from {{{','.join(CHECK_TOKENS)}}}")
    parser.add_argument("--intervals", default="0.1,0.2;0.6,0.7",
                        help="finite union 'a,b[;c,d]...' for the interval check")
    parser.add_argument("--norms", default="",
                        help="comma list of norm specs, e.g. lp:2,lorentz:2")
    parser.add_argument("--tol", type=_tolerance, help="tolerance override for all checks")
    parser.add_argument("--equality", action="store_true",
                        help="two-sided comparison (equality cases)")
    parser.add_argument("--out", help="JSON report path")
    parser.add_argument("--curves", help="directory for per-check CSV curves")
    parser.add_argument("--config", help="flat key=value config file (flags win)")
    return parser


def _config_argv(path: str, keys) -> list[str]:
    """The flags a config file stands for; ``keys`` are the option names."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    argv = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key not in keys or key == "config":
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key == "equality":
            if value.lower() not in EQUALITY_WORDS:
                raise ConfigError(f"{path}:{lineno}: equality must be one of "
                                  f"{'/'.join(EQUALITY_WORDS)}, got {value!r}")
            argv += ["--equality"] if EQUALITY_WORDS[value.lower()] else []
        elif key == "param":
            argv += [f"--param={item}" for item in value.split(";")]
        else:
            argv.append(f"--{key}={value}")
    return argv


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse the flags after those of the --config file, if one is given."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    return parser.parse_args(_config_argv(args.config, vars(args)) + argv)


def _validate(cfg: dict) -> dict:
    if cfg["grid"] < 2:
        raise ConfigError("grid must be ≥ 2")
    if cfg["sgrid"] < 8:
        raise ConfigError("sgrid must be >= 8")
    if cfg["sgrid"] > DEFAULT_CELL_BUDGET:
        raise ConfigError(f"sgrid must be <= {DEFAULT_CELL_BUDGET}, the cell budget")
    if (cfg["expr"] is None) == (cfg["builtin"] is None):
        raise ConfigError("exactly one of --expr or --builtin is required")
    if cfg["expr"] is not None and cfg["param"]:
        raise ConfigError("--param applies to --builtin fields only")
    out, curves = cfg["out"], cfg["curves"]
    if out and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise ConfigError(f"--out {out!r}: no such directory")
    if out and os.path.isdir(out):
        raise ConfigError(f"--out {out!r} is a directory")
    if curves and os.path.exists(curves) and not os.path.isdir(curves):
        raise ConfigError(f"--curves {curves!r} is not a directory")
    tokens = [t.strip() for t in str(cfg["checks"]).split(",") if t.strip()]
    require_known(tokens)
    if not tokens:
        raise ConfigError("no checks requested")
    cfg["check_tokens"] = tokens
    pairs = [part.split(",") for part in cfg["intervals"].split(";") if part.strip()]
    cfg["interval_list"] = validate_intervals(pairs)
    cfg["norm_list"] = list(DEFAULT_NORM_FAMILY)
    if cfg["norms"]:
        cfg["norm_list"] = [parse_norm(s) for s in cfg["norms"].split(",") if s.strip()]
        if not cfg["norm_list"]:
            raise ConfigError("no norms given")
    return cfg


def _build_field(cfg: dict):
    if cfg["expr"] is not None:
        return parse_field(cfg["expr"], cfg["dim"])
    return builtin_field(cfg["builtin"], dict(cfg["param"]) or None, dim=cfg["dim"])


def _atomic_write(path: str, payload: str):
    # a unique temp file beside the target, created with mode 0o666 so
    # that the umask applies: the rename keeps the temp file's mode
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".gausym-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _safe_name(text: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in text)


def curve_csv(s_grid, lhs, rhs) -> str:
    """CSV text of one curve: the header ``s,lhs,rhs``, then one row per
    point, each value as ``%.17g`` (round-trips a double).  One ``%`` over
    the flat values formats the whole curve in C, with the bytes that
    ``format(x, ".17g")`` gives row by row."""
    flat = np.stack((s_grid, lhs, rhs), axis=1).ravel().tolist()
    return "s,lhs,rhs\n" + "%.17g,%.17g,%.17g\n" * len(s_grid) % tuple(flat)


def write_report(reports: list[IneqReport], out: Optional[str], curves_dir: Optional[str]):
    """Write the JSON report to ``out`` (stdout when None) and, with
    ``curves_dir``, each report's curve to ``<check>__<field>.csv`` there
    (``curve_csv``; characters other than letters, digits and ``._-``
    become ``_``), recorded as the entry's ``curves_file``.  The report is
    encoded before any file is written, so one refused for a non-finite
    number (``ValueError``) leaves nothing behind; files are written
    atomically, the curves first."""
    entries = []
    for report in reports:
        entry = report.entry()
        if curves_dir:
            fname = f"{_safe_name(report.check_name)}__{_safe_name(report.field_label)}.csv"
            entry["curves_file"] = os.path.join(curves_dir, fname)
        entries.append(entry)
    payload = {"version": 1, "checks": entries}
    text = json.dumps(payload, indent=2, allow_nan=False)
    if curves_dir:
        os.makedirs(curves_dir, exist_ok=True)
        for entry, r in zip(entries, reports):
            _atomic_write(entry["curves_file"], curve_csv(r.s_grid, r.lhs_curve, r.rhs_curve))
    if out:
        _atomic_write(out, text + "\n")
    else:
        print(text)


def _corpus_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="gausym corpus")
    sub = parser.add_subparsers(dest="action", required=True)
    sub.add_parser("list")
    describe = sub.add_parser("describe")
    describe.add_argument("name")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.action == "list":
        for name in corpus_names():
            summary = describe_field(name).splitlines()[2].strip()
            print(f"{name}  -  {summary}")
        return 0
    try:
        print(describe_field(args.name))
    except GausymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "corpus":
        return _corpus_main(argv[1:])
    try:
        cfg = _validate(vars(_parse_args(argv)))
        field = _build_field(cfg)
        grid = equal_measure_grid(cfg["dim"], cfg["grid"])
    except SystemExit as exc:  # argparse has printed usage and the error
        return int(exc.code or 0)
    except (ConfigError, GausymError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        tokens = cfg["check_tokens"]
        reports = run_checks(
            analyze(field, grid, cfg["sgrid"], tokens), tokens, tol=cfg["tol"],
            equality=cfg["equality"], norms=cfg["norm_list"], intervals=cfg["interval_list"],
        )
    except NonFiniteFieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GausymError, ArithmeticError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    try:
        write_report(reports, cfg["out"], cfg["curves"])
    except ValueError as exc:  # strict JSON refuses NaN and infinities
        print(f"runtime error: report holds a non-finite number: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"runtime error: cannot write report: {exc}", file=sys.stderr)
        return 3
    failed = [r for r in reports if not r.passed]
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        print(
            f"[{status}] {report.check_name} field={report.field_label} "
            f"N={report.N} M={report.M} violation={report.max_violation:.3e} "
            f"tol={report.tolerance:.3e}"
        )
    return 1 if failed else 0


def entry():
    """The console script: ``main``, then stdout and stderr flushed, then
    an immediate exit with main's code, which skips the interpreter's
    teardown.  Output that cannot be written, its reader gone, exits 3
    with a runtime error line where stderr still takes one."""
    try:
        code = main()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when started with that fd closed
                stream.flush()
    except OSError as exc:  # main handles those of the files it writes
        code = 3
        try:
            print(f"runtime error: cannot write output: {exc}", file=sys.stderr, flush=True)
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    entry()
