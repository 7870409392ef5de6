"""Scalar test fields on R^n: builtin corpus, parsed expressions, gradients.

A ScalarField wraps a vectorized evaluator (m, dim) -> (m,) together with
its jet, which returns the values and the exact gradient from one pass.
The builtin corpus is restricted to fields that are Lipschitz on the
effective support of the Gaussian measure, since the inequality checks
sample gradients everywhere mass lives.  Every builtin's jet is closed
form and every parsed expression's is the forward-mode ``expr.jet``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expr as _expr
from .errors import InvalidParameterError, UnknownFieldError


def as_points(x, dim: int) -> np.ndarray:
    """Coerce a point or batch of points to shape (m, dim)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1) if dim > 1 else arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise InvalidParameterError(
            f"points must have shape (m, {dim}), got {np.shape(x)}"
        )
    return arr


@dataclass(frozen=True)
class ScalarField:
    """Evaluable scalar field with its exact gradient.

    ``evaluator`` maps a batch of shape (m, dim) to the m values; ``jet``
    maps it to the values, equal to the evaluator's bit for bit, and the
    (m, dim) partials, from one pass.  ``smooth`` is False for fields with
    gradient jump sets (e.g. expressions using abs); checks either reject
    those or double their tolerances.
    """

    dim: int
    label: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    jet: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    smooth: bool = True

    def __call__(self, points) -> np.ndarray:
        pts = as_points(points, self.dim)
        return np.asarray(self.evaluator(pts), dtype=float)

    def value(self, point) -> float:
        return float(self(point)[0])


def gradient_at(field: ScalarField, x) -> np.ndarray:
    """Gradient rows for each point."""
    return np.asarray(field.jet(as_points(x, field.dim))[1], dtype=float)


def gradient_norm(field: ScalarField, x) -> np.ndarray:
    """Euclidean norm of the gradient at each point."""
    return np.linalg.norm(gradient_at(field, x), axis=1)


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


def _coordinate(p: dict, dim: int) -> ScalarField:
    axis = int(p["axis"])
    if not 1 <= axis <= dim:
        raise InvalidParameterError(f"axis {axis} out of range for dim {dim}")

    def jet(X):
        g = np.zeros_like(X)
        g[:, axis - 1] = 1.0
        return X[:, axis - 1].copy(), g

    return ScalarField(dim, f"coordinate(axis={axis})", lambda X: X[:, axis - 1].copy(), jet)


def _halfspace(p: dict, dim: int) -> ScalarField:
    a, width = p["a"], p["width"]
    if width <= 0:
        raise InvalidParameterError("width must be positive")

    def f(X):
        return 0.5 * (1.0 - np.tanh((X[:, 0] - a) / width))

    def jet(X):
        g = np.zeros_like(X)
        u = np.tanh((X[:, 0] - a) / width)
        g[:, 0] = -0.5 * (1.0 - u * u) / width
        return 0.5 * (1.0 - u), g

    return ScalarField(dim, f"halfspace_indicator_smooth(a={a},width={width})", f, jet)


def _gaussian_bump(p: dict, dim: int) -> ScalarField:
    c = p["c"]
    if c <= 0:
        raise InvalidParameterError("c must be positive")

    def f(X):
        return np.exp(-c * np.sum(X * X, axis=1))

    def jet(X):
        v = f(X)
        return v, -2.0 * c * X * v[:, None]

    return ScalarField(dim, f"gaussian_bump(c={c})", f, jet)


def _mixture(p: dict, dim: int) -> ScalarField:
    w1, w2, c1, c2, m = p["w1"], p["w2"], p["c1"], p["c2"], p["m"]
    if c1 <= 0 or c2 <= 0:
        raise InvalidParameterError("bump widths c1, c2 must be positive")

    def parts(X):
        d1 = X.copy()
        d1[:, 0] -= m
        d2 = X.copy()
        d2[:, 0] += m
        g1 = np.exp(-c1 * np.sum(d1 * d1, axis=1))
        g2 = np.exp(-c2 * np.sum(d2 * d2, axis=1))
        return d1, d2, g1, g2

    def f(X):
        _, _, g1, g2 = parts(X)
        return w1 * g1 + w2 * g2

    def jet(X):
        d1, d2, g1, g2 = parts(X)
        grad = -2.0 * c1 * w1 * d1 * g1[:, None] - 2.0 * c2 * w2 * d2 * g2[:, None]
        return w1 * g1 + w2 * g2, grad

    return ScalarField(dim, f"mixture(w1={w1},w2={w2},c1={c1},c2={c2},m={m})", f, jet)


def _poly_tanh(p: dict, dim: int) -> ScalarField:
    a, b = p["a"], p["b"]
    w = 0.5 ** np.arange(dim)

    def f(X):
        u = X @ w
        return np.tanh(a * u + b * u**3)

    def jet(X):
        u = X @ w
        t = np.tanh(a * u + b * u**3)
        return t, ((1.0 - t * t) * (a + 3.0 * b * u * u))[:, None] * w[None, :]

    return ScalarField(dim, f"poly_tanh(a={a},b={b})", f, jet)


def _monotone1d(p: dict, dim: int) -> ScalarField:
    a = p["a"]
    if a <= 0:
        raise InvalidParameterError("a must be positive")

    def f(X):
        return np.exp(-a * X[:, 0])

    def jet(X):
        v = f(X)
        g = np.zeros_like(X)
        g[:, 0] = -a * v
        return v, g

    return ScalarField(dim, f"monotone1d(a={a})", f, jet)


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


def builtin_field(name: str, params: Optional[dict] = None, dim: int = 1) -> ScalarField:
    """Construct a field from the builtin corpus.

    Unknown names raise UnknownFieldError; parameters outside the family's
    signature or domain raise InvalidParameterError.
    """
    if name not in _BUILTINS:
        raise UnknownFieldError(
            f"unknown field {name!r}; available: {', '.join(corpus_names())}"
        )
    builder, defaults, _ = _BUILTINS[name]
    return builder(_merge_params(name, defaults, params), dim)


def describe_field(name: str) -> str:
    if name not in _BUILTINS:
        raise UnknownFieldError(
            f"unknown field {name!r}; available: {', '.join(corpus_names())}"
        )
    _, defaults, text = _BUILTINS[name]
    params = ", ".join(f"{k}={v:g}" for k, v in sorted(defaults.items()))
    return f"{name}\n  parameters: {params}\n  {text}"


def parse_field(expression: str, dim: int) -> ScalarField:
    """Parse an expression into a field with its exact gradient.

    The jet is ``expr.jet``: one forward-mode pass over the AST, giving
    the values and the column-major partials.  Where a derivative is unbounded or the chain
    rule meets inf * 0 (sqrt(abs(x1)) at x1 = 0) it is not finite, and
    ``verify.analyze`` refuses the field.  The label is the canonical
    serialized form, which re-parses to an evaluator that agrees
    everywhere.  Fields whose expression uses abs() are flagged non-smooth.
    """
    ast = _expr.parse_expression(expression, dim)
    label = _expr.serialize(ast)

    def f(X, _ast=ast):
        return _expr.evaluate(_ast, X)

    def jet(X, _ast=ast):
        return _expr.jet(_ast, X)

    return ScalarField(dim, label, f, jet, smooth=not _expr.uses_abs(ast))
