"""Benchmark workloads: seeded CLI arguments and the report rows each must produce.

Seed 0 gives the reference configurations exactly.  Any other seed draws
the field parameters from fixed ranges around them, so a performance claim
can be re-checked on inputs that were not used while it was written.  The
ranges keep the work per run (grid, checks, norm family) unchanged; only
the field's shape moves.  The program itself only sees the generated
command-line arguments.

Why each workload exists, and which layers it bypasses, is recorded in
README.md next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NORM_LABELS = (
    "lp:1", "lp:1.5", "lp:2", "lp:4", "lp:inf",
    "lorentz:2", "marcinkiewicz:2", "orlicz:expsq",
)


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    grid: int
    checks: tuple
    curves: bool
    rows: tuple  # report row names, in report order

    def field(self, seed: int) -> dict:
        """Field source for this seed: {"builtin": name, "params": {...}} or
        {"expr": text}."""
        return _FIELDS[self.name](random.Random(seed) if seed else None)

    def cli_args(self, seed: int, out: str, curves_dir: str) -> list:
        src = self.field(seed)
        if "expr" in src:
            args = ["--expr", src["expr"]]
        else:
            args = ["--builtin", src["builtin"]]
            for key, value in src["params"].items():
                args += ["--param", f"{key}={value}"]
        args += ["--dim", str(self.dim), "--grid", str(self.grid),
                 "--checks", ",".join(self.checks), "--out", out]
        if self.curves:
            args += ["--curves", curves_dir]
        return args


def _draw(rng, low: float, high: float) -> float:
    return round(rng.uniform(low, high), 3)


def _mixture(rng) -> dict:
    if rng is None:
        return {"builtin": "mixture", "params": {}}
    return {"builtin": "mixture", "params": {
        "m": _draw(rng, 1.1, 1.3), "c1": _draw(rng, 0.9, 1.1), "c2": _draw(rng, 1.8, 2.2),
    }}


def _poly_tanh(rng) -> dict:
    if rng is None:
        return {"builtin": "poly_tanh", "params": {}}
    return {"builtin": "poly_tanh", "params": {
        "a": _draw(rng, 0.8, 1.2), "b": _draw(rng, 0.2, 0.4),
    }}


def _expr(rng) -> dict:
    if rng is None:
        return {"expr": "tanh(x1 + 0.5*x2*x3) + 0.3*sin(x2)"}
    k1, k2, k3 = _draw(rng, 0.8, 1.2), _draw(rng, 0.4, 0.6), _draw(rng, 0.2, 0.4)
    return {"expr": f"tanh({k1}*x1 + {k2}*x2*x3) + {k3}*sin(x2)"}


_FIELDS = {"allchecks-2d": _mixture, "dense-1d": _poly_tanh, "expr-3d": _expr}

_NORM_ROWS = tuple(f"norm:{label}" for label in NORM_LABELS)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "allchecks-2d", 2, 512,
            ("uno", "dos", "norm", "mt", "interval", "orlicz", "converge"), True,
            ("uno", "dos", *_NORM_ROWS, "mt", "interval", "orlicz")
            + tuple(f"converge:{c}[N={n}]" for c in ("uno", "dos", "mt") for n in (32, 128, 512)),
        ),
        Workload(
            "dense-1d", 1, 1048576, ("uno", "norm", "mt", "interval"), False,
            ("uno", *_NORM_ROWS, "mt", "interval"),
        ),
        Workload("expr-3d", 3, 125, ("uno", "dos"), False, ("uno", "dos")),
    )
}
