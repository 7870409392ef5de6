"""Scalar test fields on R^n: builtin corpus, parsed expressions, gradients.

A ScalarField wraps a vectorized evaluator (m, dim) -> (m,) together with
an optional analytic gradient.  The builtin corpus is restricted to fields
that are Lipschitz on the effective support of the Gaussian measure, since
the inequality checks sample gradients everywhere mass lives.  Every
builtin carries a closed-form gradient and every parsed expression the
exact forward-mode gradient of ``expr.gradient``, so central finite
differences serve only fields built without one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expr as _expr
from .errors import InvalidParameterError, UnknownFieldError

# Central-difference step: cube root of machine epsilon balances truncation
# against round-off for second-order stencils.
FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


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
    """Evaluable scalar field with gradient access.

    ``evaluator`` and ``gradient`` act on batches of shape (m, dim);
    ``gradient`` may be None, in which case central finite differences
    are used.  ``smooth`` is False for fields with gradient jump sets
    (e.g. expressions using abs); checks either reject those or double
    their tolerances.
    """

    dim: int
    label: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    smooth: bool = True

    @property
    def gradient_mode(self) -> str:
        return "analytic" if self.gradient is not None else "finite-difference"

    def __call__(self, points) -> np.ndarray:
        pts = as_points(points, self.dim)
        return np.asarray(self.evaluator(pts), dtype=float)

    def value(self, point) -> float:
        return float(self(point)[0])


def gradient_at(field: ScalarField, x) -> np.ndarray:
    """Gradient rows for each point: analytic when available, otherwise
    central differences with per-axis step h = eps^(1/3) * (1 + |x_i|)."""
    pts = as_points(x, field.dim)
    if field.gradient is not None:
        return np.asarray(field.gradient(pts), dtype=float)
    return finite_difference_gradient(field, pts)


def finite_difference_gradient(field: ScalarField, pts: np.ndarray) -> np.ndarray:
    out = np.empty_like(pts)
    # one working copy, column-major so each shifted axis is contiguous;
    # per axis it holds x+h, then x-h, then x again
    work = np.array(pts, order="F")
    for axis in range(field.dim):
        x = pts[:, axis]
        h = FD_STEP * (1.0 + np.abs(x))
        col = work[:, axis]
        np.add(x, h, out=col)
        # an evaluator may return a view of its input (e.g. the field x1)
        hi = np.array(field.evaluator(work))
        np.subtract(x, h, out=col)
        out[:, axis] = (hi - field.evaluator(work)) / (2.0 * h)
        col[:] = x
    return out


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

    def grad(X):
        g = np.zeros_like(X)
        g[:, axis - 1] = 1.0
        return g

    return ScalarField(dim, f"coordinate(axis={axis})", lambda X: X[:, axis - 1].copy(), grad)


def _halfspace(p: dict, dim: int) -> ScalarField:
    a, width = p["a"], p["width"]
    if width <= 0:
        raise InvalidParameterError("width must be positive")

    def f(X):
        return 0.5 * (1.0 - np.tanh((X[:, 0] - a) / width))

    def grad(X):
        g = np.zeros_like(X)
        u = np.tanh((X[:, 0] - a) / width)
        g[:, 0] = -0.5 * (1.0 - u * u) / width
        return g

    return ScalarField(dim, f"halfspace_indicator_smooth(a={a},width={width})", f, grad)


def _gaussian_bump(p: dict, dim: int) -> ScalarField:
    c = p["c"]
    if c <= 0:
        raise InvalidParameterError("c must be positive")

    def f(X):
        return np.exp(-c * np.sum(X * X, axis=1))

    def grad(X):
        return -2.0 * c * X * f(X)[:, None]

    return ScalarField(dim, f"gaussian_bump(c={c})", f, grad)


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

    def grad(X):
        d1, d2, g1, g2 = parts(X)
        return -2.0 * c1 * w1 * d1 * g1[:, None] - 2.0 * c2 * w2 * d2 * g2[:, None]

    return ScalarField(dim, f"mixture(w1={w1},w2={w2},c1={c1},c2={c2},m={m})", f, grad)


def _poly_tanh(p: dict, dim: int) -> ScalarField:
    a, b = p["a"], p["b"]
    w = 0.5 ** np.arange(dim)

    def f(X):
        u = X @ w
        return np.tanh(a * u + b * u**3)

    def grad(X):
        u = X @ w
        t = np.tanh(a * u + b * u**3)
        return ((1.0 - t * t) * (a + 3.0 * b * u * u))[:, None] * w[None, :]

    return ScalarField(dim, f"poly_tanh(a={a},b={b})", f, grad)


def _monotone1d(p: dict, dim: int) -> ScalarField:
    a = p["a"]
    if a <= 0:
        raise InvalidParameterError("a must be positive")

    def f(X):
        return np.exp(-a * X[:, 0])

    def grad(X):
        g = np.zeros_like(X)
        g[:, 0] = -a * np.exp(-a * X[:, 0])
        return g

    return ScalarField(dim, f"monotone1d(a={a})", f, grad)


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

    The gradient is ``expr.gradient``: one forward-mode pass over the AST,
    returned column-major.  Where a derivative is unbounded or the chain
    rule meets inf * 0 (sqrt(abs(x1)) at x1 = 0) it is not finite, and
    ``verify.analyze`` refuses the field.  The label is the canonical
    serialized form, which re-parses to an evaluator that agrees
    everywhere.  Fields whose expression uses abs() are flagged non-smooth.
    """
    ast = _expr.parse_expression(expression, dim)
    label = _expr.serialize(ast)

    def f(X, _ast=ast):
        return _expr.evaluate(_ast, X)

    def grad(X, _ast=ast):
        return _expr.gradient(_ast, X)

    return ScalarField(dim, label, f, gradient=grad, smooth=not _expr.uses_abs(ast))
