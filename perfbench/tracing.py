"""Span tracing of the gausym CLI, installed from outside the program's source.

Run as a child process:

    python3 perfbench/tracing.py <spans.json> <run-id> -- <gausym CLI args...>

It imports ``gausym.cli``, rebinds every function that ``gausym.cli``,
``gausym.verify``, ``gausym.symmetrize`` and ``gausym.rearrange`` import
from a sibling module to a span-recording wrapper, and calls
``gausym.cli.main(argv)`` in-process.  Module attributes are looked up at
call time, so rebinding them is enough.  A few more hooks cover calls that
do not cross an import: ``expr.evaluate`` (called as ``_expr.evaluate`` by
parsed fields), the ``_CONVERGENT_CHECKS`` dispatch table of
``convergence_study``, the user field's evaluator, the CLI's own
config and report-writing steps, and a call counter on
``YoungFunction.__call__``.  Spans stay in memory and are written once,
when the run ends; the process exits with main's exit code.

``layer_metrics`` turns the spans into the per-layer metrics.  A layer's
self time is its span durations minus the time covered by child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import os
import sys
import time
from collections import Counter

BOUNDARY_MODULES = ("cli", "verify", "symmetrize", "rearrange")

# verify check function -> CLI check token
CHECK_TOKENS = {
    "verify.check_reformulated": "uno",
    "verify.check_polya_szego": "dos",
    "verify.check_norm_inequality": "norm",
    "verify.check_mazya_talenti": "mt",
    "verify.check_interval_bound": "interval",
    "verify.check_orlicz_equality": "orlicz",
    "verify.convergence_study": "converge",
}
NORM_KINDS = ("lp", "lorentz", "marcinkiewicz", "orlicz")
SORTS = ("rearrange.lebesgue_rearrangement", "rearrange.decreasing_rearrangement")
SPECIAL_FUNCTIONS = ("gaussian.Phi", "gaussian.Phi_inv", "gaussian.phi")
SYMMETRIZED_PREFIX = "symmetrized["
# Counts that do not repeat exactly: the report holds measured runtime_ms.
INEXACT_COUNTS = ("cli.report_bytes",)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    """Records spans in call order; a span's parent is the index of the span
    that was open when it started."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, attrs=None, post=None):
        """Wrapper recording a span per call.  ``attrs(args, kwargs, result)``
        gives the span's attributes; ``post(result)`` replaces the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "run_id": self.run_id,
                    "parent": self._stack[-1] if self._stack else None, "attrs": {}}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            return post(result) if post is not None else result

        return traced

    def count(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str):
        payload = {"spans": self.spans, "counts": dict(self.counts)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _report_attrs(args, kwargs, result):
    reports = _arg(args, kwargs, 0, "reports")
    out = _arg(args, kwargs, 1, "out")
    curves_dir = _arg(args, kwargs, 2, "curves_dir")
    return {
        "report_bytes": os.path.getsize(out) if out else 0,
        "curve_rows": sum(len(r.s_grid) for r in reports) if curves_dir else 0,
    }


# Per-span attributes: work counts taken where the work happens.
SPAN_ATTRS = {
    "gaussian.equal_measure_grid": lambda a, k, r: {"cells": int(r.num_cells)},
    "fields.gradient_norm": lambda a, k, r: {
        "label": _arg(a, k, 0, "field").label, "points": int(len(r))},
    "rearrange.lebesgue_rearrangement": lambda a, k, r: {"elems": int(r.num_pieces)},
    "rearrange.decreasing_rearrangement": lambda a, k, r: {
        "elems": int(_arg(a, k, 1, "grid").num_cells)},
    "majorize.ri_norm": lambda a, k, r: {"kind": _arg(a, k, 1, "X").kind},
    # dense (thresholds x cells) float64 hinge matrix, computed from sizes
    "verify.check_orlicz_equality": lambda a, k, r: {
        "hinge_bytes": len(r.s_grid) * int(_arg(a, k, 1, "grid").num_cells) * 8},
}


def install(tracer: Tracer):
    """Rebind the module-boundary functions of gausym to traced wrappers."""
    from gausym import cli, expr, majorize, verify

    def with_traced_evaluator(field):
        points = lambda a, k, r: {"points": int(len(a[0]))}  # noqa: E731
        return dataclasses.replace(
            field, evaluator=tracer.wrap("fields.evaluator", field.evaluator, points)
        )

    for short in BOUNDARY_MODULES:
        module = sys.modules[f"gausym.{short}"]
        for attr, obj in list(vars(module).items()):
            origin = getattr(obj, "__module__", "")
            if not inspect.isfunction(obj) or not origin.startswith("gausym.") \
                    or origin == module.__name__:
                continue
            span_name = f"{origin.rsplit('.', 1)[1]}.{obj.__name__}"
            post = with_traced_evaluator if span_name in (
                "fields.builtin_field", "fields.parse_field") else None
            setattr(module, attr, tracer.wrap(span_name, obj, SPAN_ATTRS.get(span_name), post))

    expr.evaluate = tracer.wrap(
        "expr.evaluate", expr.evaluate, lambda a, k, r: {"points": int(len(r))}
    )
    checks = getattr(verify, "_CONVERGENT_CHECKS", {})
    for token, fn in list(checks.items()):
        name = f"verify.{fn.__name__}"
        checks[token] = tracer.wrap(name, fn, SPAN_ATTRS.get(name))
    for attr in ("_build_parser", "_merge_config", "_validate"):
        if hasattr(cli, attr):
            setattr(cli, attr, tracer.wrap("cli.config", getattr(cli, attr)))
    cli.write_report = tracer.wrap("cli.write_report", cli.write_report, _report_attrs)
    young = majorize.YoungFunction
    young.__call__ = tracer.count("majorize.young_calls", young.__call__)
    return tracer.wrap("cli.main", cli.main)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    layer_metric = metric.split(".")[1]
    if layer_metric.endswith("_s"):
        return "s"
    if metric == "verify.hinge_bytes":
        return "bytes_computed"  # from array sizes, not measured
    return "bytes" if layer_metric.endswith("_bytes") else "count"


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced run: self times in seconds and counts."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    self_time = Counter()
    calls = Counter()
    work = Counter()
    check_time = Counter()
    for i, span in enumerate(spans):
        name, parent, attrs = span["name"], span["parent"], span["attrs"]
        duration = span["end"] - span["start"]
        own = duration - child[i]
        key = name
        if name == "fields.gradient_norm" and attrs["label"].startswith(SYMMETRIZED_PREFIX):
            key = "symmetrize.gradient_norm"
        elif name == "majorize.ri_norm":
            key = f"majorize.ri_norm.{attrs['kind']}"
        self_time[key] += own
        calls[key] += 1
        for field, value in attrs.items():
            if isinstance(value, int):
                work[f"{key}:{field}"] += value
        top_level = parent is None or spans[parent]["name"] != "verify.convergence_study"
        if name in CHECK_TOKENS and top_level:
            check_time[CHECK_TOKENS[name]] += duration

    def total(*names):
        return sum(self_time[n] for n in names)

    m = {
        "gaussian.grid_s": total("gaussian.equal_measure_grid"),
        "gaussian.iso_profile_s": total("gaussian.iso_profile"),
        "gaussian.special_s": total(*SPECIAL_FUNCTIONS),
        "gaussian.cells": work["gaussian.equal_measure_grid:cells"],
        "fields.eval_s": total("fields.evaluator"),
        "fields.grad_s": total("fields.gradient_norm"),
        "fields.points_evaluated": work["fields.evaluator:points"],
        "expr.evaluate_s": total("expr.evaluate"),
        "expr.evaluate_calls": calls["expr.evaluate"],
        "rearrange.sort_s": total(*SORTS),
        "rearrange.sort_calls": sum(calls[n] for n in SORTS),
        "rearrange.sorted_elems": sum(work[f"{n}:elems"] for n in SORTS),
        "rearrange.bin_count_s": total("rearrange.derivative_bin_count"),
        "symmetrize.build_s": total("symmetrize.symmetrized_field"),
        "symmetrize.grad_s": total("symmetrize.gradient_norm"),
        "symmetrize.grad_points": work["symmetrize.gradient_norm:points"],
    }
    for kind in NORM_KINDS:
        m[f"majorize.norm_s.{kind}"] = self_time[f"majorize.ri_norm.{kind}"]
    m["majorize.young_calls"] = trace["counts"].get("majorize.young_calls", 0)
    m["verify.pipeline_builds"] = calls["rearrange.derivative_bin_count"]
    for token in CHECK_TOKENS.values():
        m[f"verify.check_s.{token}"] = check_time[token]
    m["verify.self_s"] = sum(t for n, t in self_time.items() if n.startswith("verify."))
    m["verify.hinge_bytes"] = work["verify.check_orlicz_equality:hinge_bytes"]
    m["cli.config_s"] = total("cli.config")
    m["cli.write_s"] = total("cli.write_report")
    m["cli.report_bytes"] = work["cli.write_report:report_bytes"]
    m["cli.curve_rows"] = work["cli.write_report:curve_rows"]
    return m


def main(argv: list) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracing.py <spans.json> <run-id> -- <gausym args...>", file=sys.stderr)
        return 2
    out, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    traced_main = install(tracer)
    try:
        return traced_main(cli_args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
