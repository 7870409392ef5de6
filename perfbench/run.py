"""gausym benchmark: end-to-end CLI metrics, or a traced per-layer profile.

Usage (from the root of a source checkout; the package is run from src/):

    python3 perfbench/run.py --workload allchecks-2d --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 10      # every workload

Untraced (--trace 0): for --seconds, repeat a round of the calibration
kernel (calibrate.py), one set-up probe (setup_probe.py) and one run of the
gausym CLI as a child process, one child at a time (closed loop, one
client).  Reports wall_s, cpu_s and peak_rss_mb (medians over runs; CPU and
memory from each child's own os.wait4 rusage), setup_s (median over
probes), ok_frac and checks_pass_frac.  The three times are scaled to the
reference machine's speed by the calibration kernel.

Traced (--trace 1): alternate an untraced CLI child with a traced one
(tracing.py, which calls gausym.cli.main in-process under span-recording
wrappers) and report the per-layer metrics and trace.overhead_s.

Every run's output is checked (checker.py).  Human-readable lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Outputs go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

import calibrate
import checker
import tracing
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))

# One BLAS/OpenMP thread per child, so that runs compare across machines
# with different core counts and idle cores do not inflate a run.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
MIN_ROUNDS = 5  # set-up probe + CLI run rounds per run, even past --seconds
MIN_TRACED_ROUNDS = 2  # two traced runs, so their counts can be compared
DEADLINE_S = 170.0  # no child is allowed to run past this, from start
CLI = "from gausym.cli import entry; entry()"


@dataclass(frozen=True)
class ChildRun:
    exit_code: int | None  # None: killed or timed out
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv: list, log_path: str, timeout_s: float) -> ChildRun:
    """Run one child to completion; CPU time and peak RSS are its own, from
    os.wait4 (RUSAGE_CHILDREN would keep the high-water mark of all)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(timeout_s, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return ChildRun(
        exit_code=None if os.WIFSIGNALED(status) else proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


class BenchRun:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.perf_counter()
        self.dir = os.path.join(OUT, workload.name)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.report_path = os.path.join(self.dir, "report.json")
        self.curves_dir = os.path.join(self.dir, "curves")
        self.cli_args = workload.cli_args(seed, self.report_path, self.curves_dir)
        self.reference = None  # output of the first CLI run
        self.first_report = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def _child(self, argv, tag):
        return run_child(argv, os.path.join(self.dir, f"{tag}.log"), self.remaining())

    def setup_probe(self) -> ChildRun:
        spec = json.dumps(self.workload.field(self.seed))
        argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), spec,
                str(self.workload.dim), str(self.workload.grid)]
        run = self._child(argv, "setup")
        if run.exit_code != 0:
            raise RuntimeError(f"setup probe failed with {run.exit_code}; see {self.dir}/setup.log")
        return run

    def _collect(self):
        """Read and remove what the last CLI run wrote: (report, all output)."""
        report = None
        if os.path.exists(self.report_path):
            with open(self.report_path, "rb") as fh:
                report = fh.read()
            os.remove(self.report_path)
        output = [report or b""]
        if os.path.isdir(self.curves_dir):
            for name in sorted(os.listdir(self.curves_dir)):
                with open(os.path.join(self.curves_dir, name), "rb") as fh:
                    output += [name.encode(), fh.read()]
            shutil.rmtree(self.curves_dir)
        return report, b"\0".join(output)

    def _check(self, run: ChildRun, tag: str) -> bool:
        report, output = self._collect()
        found = checker.problems(self.workload, run.exit_code, report, output, self.reference)
        if self.reference is None and not found:
            self.reference, self.first_report = output, report
        self.attempted += 1
        if found:
            self.failed += 1
            self.problems.append(f"{tag} run {self.attempted}: {'; '.join(found)}")
        return not found

    def cli_run(self) -> ChildRun:
        run = self._child([sys.executable, "-c", CLI, *self.cli_args], "cli")
        self._check(run, "cli")
        return run

    def traced_run(self, index: int):
        spans_path = os.path.join(self.dir, f"spans-{index}.json")
        run_id = f"{self.workload.name}-s{self.seed}-{index}"
        argv = [sys.executable, os.path.join(HERE, "tracing.py"), spans_path, run_id,
                "--", *self.cli_args]
        run = self._child(argv, "traced")
        if not self._check(run, "traced") or not os.path.exists(spans_path):
            return run, None
        with open(spans_path, encoding="utf-8") as fh:
            return run, tracing.layer_metrics(json.load(fh))


def _percentile_line(name: str, values: list, unit: str) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"  {name}: median {statistics.median(values):.4f} {unit} over n={n}"
    pct = 100 * (n - 10) // n if n > 10 else 0
    if pct > 50:
        rank = math.ceil(n * pct / 100)  # nearest rank: n - rank >= 10
        text += f", p{pct} {sorted(values)[rank - 1]:.4f} {unit}"
    else:
        text += " (too few samples for a tail percentile with ten beyond it)"
    return text


def _rounds(s: BenchRun, seconds: float, minimum: int, one_round):
    """Repeat one_round for about ``seconds``, and at least ``minimum``
    times: a round starts only while the median round still fits."""
    durations = []
    t0 = time.perf_counter()
    while len(durations) < minimum or (
        time.perf_counter() - t0 + statistics.median(durations) <= seconds
    ):
        if s.remaining() <= 0:
            break
        start = time.perf_counter()
        one_round()
        durations.append(time.perf_counter() - start)


def measure(workload, seed: int, seconds: float):
    s = BenchRun(workload, seed)
    s.setup_probe()  # untimed: byte-compiles the package on a fresh checkout
    kernels, setups, runs = [], [], []

    def one_round():
        # the calibration kernel and the set-up probes are spread over the
        # window like the CLI runs, so all medians see the same machine
        kernels.append(calibrate.kernel_seconds())
        setups.append(s.setup_probe().wall_s)
        runs.append(s.cli_run())

    _rounds(s, seconds, MIN_ROUNDS, one_round)
    walls = [r.wall_s for r in runs]

    def calibrated(values):
        # each value against the kernel time of its own round
        return statistics.median(v / k for v, k in zip(values, kernels)) * calibrate.REFERENCE_S

    metrics = {
        "wall_s": (calibrated(walls), "s"),
        "cpu_s": (calibrated([r.cpu_s for r in runs]), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in runs), "MB"),
        "setup_s": (calibrated(setups), "s"),
        "ok_frac": ((s.attempted - s.failed) / s.attempted, "fraction"),
        "checks_pass_frac": (
            checker.pass_fraction(s.first_report) if s.first_report else 0.0, "fraction"),
    }
    lines = [
        "  measured, before calibration:",
        _percentile_line("wall_s", walls, "s"),
        _percentile_line("cpu_s", [r.cpu_s for r in runs], "s"),
        _percentile_line("setup_s", setups, "s"),
        _percentile_line("kernel_s", kernels, "s"),
        f"  times below: median over rounds of (time / kernel_s of the round)"
        f" x {calibrate.REFERENCE_S} s reference kernel time",
    ]
    return s, metrics, lines


def profile(workload, seed: int, seconds: float):
    s = BenchRun(workload, seed)
    s.setup_probe()  # untimed: byte-compiles the package on a fresh checkout
    plain, traced, layers = [], [], []

    def one_round():
        plain.append(s.cli_run())
        run, metrics = s.traced_run(len(traced))
        traced.append(run)
        if metrics is not None:
            layers.append(metrics)

    _rounds(s, seconds, MIN_TRACED_ROUNDS, one_round)
    result = {}
    if layers:
        for name in layers[0]:
            values = [m[name] for m in layers]
            if tracing.unit_of(name) == "s":
                result[name] = (statistics.median(values), "s")
            elif name in tracing.INEXACT_COUNTS:
                result[name] = (statistics.median_low(values), tracing.unit_of(name))
            else:
                if len(set(values)) != 1:
                    s.problems.append(f"count {name} differs between traced runs: {values}")
                result[name] = (values[0], tracing.unit_of(name))
    # paired differences cancel the machine's slow drift between rounds
    overhead = statistics.median(t.wall_s - p.wall_s for p, t in zip(plain, traced))
    result["trace.overhead_s"] = (overhead, "s")
    lines = [f"  traced runs: {len(traced)}, untraced runs: {len(plain)}"]
    return s, result, lines


def environment_line() -> str:
    versions = []
    for dist in ("numpy", "scipy"):
        try:
            versions.append(f"{dist} {metadata.version(dist)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{dist} missing")
    threads = " ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
    return (f"# nproc {os.cpu_count()}, python {platform.python_version()}, "
            f"{', '.join(versions)}, {threads}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gausym", "__init__.py")):
        print(f"error: no gausym package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before the calibration kernel loads numpy
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(environment_line())
    attempted = failed = 0
    problems = []
    metrics = {}
    for name in names:
        run = profile if args.trace else measure
        bench, values, lines = run(WORKLOADS[name], args.seed, args.seconds)
        print(f"{name} (seed {args.seed}, {'traced' if args.trace else 'untraced'}):")
        for line in lines:
            print(line)
        for metric, (value, unit) in values.items():
            print(f"  {metric} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
        attempted += bench.attempted
        failed += bench.failed
        problems += [f"{name}: {p}" for p in bench.problems]
    for problem in problems:
        print(f"INCORRECT {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
