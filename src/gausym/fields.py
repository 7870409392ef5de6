"""Scalar test fields on R^n: builtin corpus and parsed expressions.

A ScalarField is its jet: one pass that returns the values and the exact
gradient.  It takes the coordinates as one array per axis, broadcasting
together: the columns of a batch of points, or a grid's row coordinates,
on which a term that depends on the leading axes alone is evaluated once
per row.  The builtin corpus is restricted to fields that are Lipschitz
on the effective support of the Gaussian measure, since the inequality
checks sample gradients everywhere mass lives.  Every builtin's jet is
closed form and every parsed expression's is the forward-mode
``expr.jet``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameterError, UnknownFieldError

# per-axis coordinate arrays that broadcast together
Coords = tuple[np.ndarray, ...]


@dataclass(frozen=True)
class ScalarField:
    """Scalar field given by its jet.

    ``jet`` maps ``dim`` per-axis coordinate arrays that broadcast
    together to the values, broadcastable to their common shape, and a
    tuple of the ``dim`` partials, each broadcastable to that shape, from
    one pass; an axis the field ignores gets a scalar 0.0.  ``smooth`` is
    False for fields with gradient jump sets (e.g. expressions using abs);
    checks either reject those or double their tolerances.
    """

    dim: int
    label: str
    jet: Callable[[Coords], tuple[np.ndarray, Coords]]
    smooth: bool = True
    # the jet's values; nothing in the package calls it: it is kept for
    # perfbench/tracing.py, which wraps it through dataclasses.replace
    evaluator: Optional[Callable[[Coords], np.ndarray]] = None

    def __post_init__(self):
        if self.evaluator is None:
            jet = self.jet
            object.__setattr__(self, "evaluator", lambda xs: jet(xs)[0])


def partials_norm(partials: Coords, out: np.ndarray) -> np.ndarray:
    """Euclidean norm of broadcastable partials, written into ``out`` of
    their common shape: the squares summed in axis order, then the square
    root, the bits of ``np.linalg.norm`` over the stacked partials.  A
    scalar 0.0 partial adds an exact 0 and is skipped."""
    first, *rest = [d for d in partials if np.ndim(d) or d != 0.0] or [0.0]
    np.multiply(first, first, out=out)
    for d in rest:
        out += d * d
    return np.sqrt(out, out=out)


# ---------------------------------------------------------------------------
# Builtin corpus
# ---------------------------------------------------------------------------


def _merge_params(name: str, defaults: dict, params: Optional[dict]) -> dict:
    merged = dict(defaults)
    for key, value in (params or {}).items():
        if key not in defaults:
            raise InvalidParameterError(
                f"field {name!r} accepts {sorted(defaults)}, got {key!r}"
            )
        merged[key] = float(value)
    for key, value in merged.items():
        if not np.isfinite(value):
            raise InvalidParameterError(f"parameter {key}={value} must be finite")
    return merged


def _axis_sum(terms) -> np.ndarray:
    """The terms added in axis order, broadcasting."""
    return sum(terms[1:], terms[0])


def _coordinate(p: dict, dim: int) -> ScalarField:
    axis = int(p["axis"])
    if not 1 <= axis <= dim:
        raise InvalidParameterError(f"axis {axis} out of range for dim {dim}")

    def jet(xs):
        return xs[axis - 1], tuple(1.0 if k == axis - 1 else 0.0 for k in range(dim))

    return ScalarField(dim, f"coordinate(axis={axis})", jet)


def _halfspace(p: dict, dim: int) -> ScalarField:
    a, width = p["a"], p["width"]
    if width <= 0:
        raise InvalidParameterError("width must be positive")

    def jet(xs):
        u = np.tanh((xs[0] - a) / width)
        return 0.5 * (1.0 - u), (-0.5 * (1.0 - u * u) / width,) + (0.0,) * (dim - 1)

    return ScalarField(dim, f"halfspace_indicator_smooth(a={a},width={width})", jet)


def _gaussian_bump(p: dict, dim: int) -> ScalarField:
    c = p["c"]
    if c <= 0:
        raise InvalidParameterError("c must be positive")

    def jet(xs):
        v = np.exp(-c * _axis_sum([x * x for x in xs]))
        return v, tuple(-2.0 * c * x * v for x in xs)

    return ScalarField(dim, f"gaussian_bump(c={c})", jet)


def _mixture(p: dict, dim: int) -> ScalarField:
    w1, w2, c1, c2, m = p["w1"], p["w2"], p["c1"], p["c2"], p["m"]
    if c1 <= 0 or c2 <= 0:
        raise InvalidParameterError("bump widths c1, c2 must be positive")

    def jet(xs):
        # offsets from the two centers: they differ on the first axis only
        d1 = (xs[0] - m, *xs[1:])
        d2 = (xs[0] + m, *xs[1:])
        g1 = np.exp(-c1 * _axis_sum([d * d for d in d1]))
        g2 = np.exp(-c2 * _axis_sum([d * d for d in d2]))
        grad = tuple(-2.0 * c1 * w1 * a * g1 - 2.0 * c2 * w2 * b * g2 for a, b in zip(d1, d2))
        return w1 * g1 + w2 * g2, grad

    return ScalarField(dim, f"mixture(w1={w1},w2={w2},c1={c1},c2={c2},m={m})", jet)


def _poly_tanh(p: dict, dim: int) -> ScalarField:
    a, b = p["a"], p["b"]
    w = 0.5 ** np.arange(dim)

    def jet(xs):
        # w[0] = 1: the first axis enters unscaled
        u = _axis_sum([xs[0]] + [wk * x for wk, x in zip(w[1:], xs[1:])])
        # u*u*u, not u**3: np.power may take a slow element-wise path for
        # negative bases, whose results need not mirror those for positive
        # ones bit for bit
        t = np.tanh(a * u + b * (u * u * u))
        g = (1.0 - t * t) * (a + 3.0 * b * u * u)
        return t, (g, *(g * wk for wk in w[1:]))

    return ScalarField(dim, f"poly_tanh(a={a},b={b})", jet)


def _monotone1d(p: dict, dim: int) -> ScalarField:
    a = p["a"]
    if a <= 0:
        raise InvalidParameterError("a must be positive")

    def jet(xs):
        v = np.exp(-a * xs[0])
        return v, (-a * v,) + (0.0,) * (dim - 1)

    return ScalarField(dim, f"monotone1d(a={a})", jet)


_BUILTINS = {
    "coordinate": (
        _coordinate,
        {"axis": 1.0},
        "f(x) = x_axis, the linear coordinate field; the gradient norm "
        "|grad f| is identically 1.",
    ),
    "halfspace_indicator_smooth": (
        _halfspace,
        {"a": 0.0, "width": 0.25},
        "Smoothed half-space indicator 0.5*(1 - tanh((x1-a)/width)): close "
        "to 1 for x1 << a and 0 for x1 >> a, nonincreasing in x1.",
    ),
    "gaussian_bump": (
        _gaussian_bump,
        {"c": 1.0},
        "Radial bump exp(-c*|x|^2) with analytic gradient -2c x f(x).",
    ),
    "mixture": (
        _mixture,
        {"w1": 1.0, "w2": 0.6, "c1": 1.0, "c2": 2.0, "m": 1.2},
        "Two Gaussian bumps centered at +-m along the first axis with "
        "weights w1, w2 and widths c1, c2.",
    ),
    "poly_tanh": (
        _poly_tanh,
        {"a": 1.0, "b": 0.3},
        "tanh(a*u + b*u^3) with u a fixed weighted sum of coordinates; "
        "bounded with bounded analytic gradient.",
    ),
    "monotone1d": (
        _monotone1d,
        {"a": 1.0},
        "f(x) = exp(-a*x1), nonnegative and strictly decreasing in x1: a "
        "fixed point of first-coordinate symmetrization.",
    ),
}


def corpus_names() -> list[str]:
    return sorted(_BUILTINS)


def _builtin(name: str) -> tuple:
    """The corpus entry (builder, defaults, description) of ``name``."""
    if name not in _BUILTINS:
        raise UnknownFieldError(
            f"unknown field {name!r}; available: {', '.join(corpus_names())}"
        )
    return _BUILTINS[name]


def builtin_field(name: str, params: Optional[dict] = None, dim: int = 1) -> ScalarField:
    """Construct a field from the builtin corpus.

    Unknown names raise UnknownFieldError; parameters outside the family's
    signature or domain raise InvalidParameterError.
    """
    builder, defaults, _ = _builtin(name)
    return builder(_merge_params(name, defaults, params), dim)


def describe_field(name: str) -> str:
    _, defaults, text = _builtin(name)
    params = ", ".join(f"{k}={v:g}" for k, v in sorted(defaults.items()))
    return f"{name}\n  parameters: {params}\n  {text}"


def parse_field(expression: str, dim: int) -> ScalarField:
    """Parse an expression into a field with its exact gradient.

    The jet is ``expr.jet``: one forward-mode pass over the AST, giving
    the values and the partials.  Where a derivative is unbounded or the
    chain rule meets inf * 0 (sqrt(abs(x1)) at x1 = 0) it is not finite,
    and ``verify.analyze`` refuses the field.  The label is the canonical
    serialized form, which re-parses to a field that agrees everywhere.
    Fields whose expression uses abs() are flagged non-smooth.
    The parser is imported here, so a run on builtin fields never loads it.
    """
    from . import expr as _expr

    ast = _expr.parse_expression(expression, dim)

    def jet(xs):
        return _expr.jet(ast, xs)

    return ScalarField(dim, _expr.serialize(ast), jet, smooth=not _expr.uses_abs(ast))
