"""Scalar test fields on R^n: builtin corpus and parsed expressions.

A ScalarField is its jet: one pass that returns the values and the exact
gradient.  It takes the coordinates as one array per axis, broadcasting
together: the columns of a batch of points, or a grid's row coordinates,
on which a term that depends on the leading axes alone is evaluated once
per row.  The builtin corpus is restricted to fields that are Lipschitz
on the effective support of the Gaussian measure, since the inequality
checks sample gradients everywhere mass lives.  Every builtin is a named
expression: a template with its parameters written in, parsed like
``--expr``, so every field's jet is the forward-mode ``expr.jet``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expr
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

    One of the package's three dataclasses (each costs about a millisecond
    to create at import): perfbench/tracing.py rebuilds a field through
    ``dataclasses.replace``.
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


# a norm peaking below this may have lost its squares to underflow
_TINY_NORM = 2.0 ** -500


def _root_sum_squares(parts: list, out: np.ndarray):
    """sqrt(sum of d * d) over ``parts``, in order, into ``out``."""
    first, *rest = parts
    np.multiply(first, first, out=out)
    for d in rest:
        out += d * d
    np.sqrt(out, out=out)


def partials_norm(partials: Coords, out: np.ndarray) -> np.ndarray:
    """Euclidean norm of broadcastable partials, written into ``out`` of
    their common shape.  A scalar 0.0 partial adds an exact 0 and is
    skipped.  A lone partial's norm is its absolute value, the bits of
    sqrt(d * d) wherever d * d neither overflows nor underflows.  Several
    partials have their squares summed in axis order, then the square
    root, the bits of ``np.linalg.norm`` over the stacked partials; where
    that peaks at inf, or below ``_TINY_NORM`` with a partial nonzero, a
    square over- or underflowed, and the norm is taken again on the
    partials scaled by a power of two (exactly) to a largest magnitude
    in [1/2, 1), then scaled back."""
    parts = [d for d in partials if np.ndim(d) or d != 0.0] or [0.0]
    if len(parts) == 1:
        return np.abs(parts[0], out=out)
    with np.errstate(over="ignore", under="ignore"):
        _root_sum_squares(parts, out)
        peak = float(np.max(out))
        if peak == np.inf or peak < _TINY_NORM:
            top = max(float(np.max(np.abs(d))) for d in parts)
            if 0.0 < top < np.inf:
                exponent = math.frexp(top)[1]
                _root_sum_squares([np.ldexp(d, -exponent) for d in parts], out)
                np.ldexp(out, exponent, out=out)
    return out


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


# name -> (expression template, defaults, positivity, description).  The
# template is filled with each parameter's repr, which round-trips, and
# with ``rest`` (the squares of the axes after the first) and ``u`` (the
# fixed weighted sum of coordinates) for the requested dim.  Positivity
# is the phrase a refusal names, then the parameters that must be > 0.
_BUILTINS = {
    "coordinate": (
        "x{axis}",
        {"axis": 1.0},
        (),
        "f(x) = x_axis, the linear coordinate field; the gradient norm "
        "|grad f| is identically 1.",
    ),
    "halfspace_indicator_smooth": (
        "0.5*(1-tanh((x1-{a})/{width}))",
        {"a": 0.0, "width": 0.25},
        ("width", "width"),
        "Smoothed half-space indicator 0.5*(1 - tanh((x1-a)/width)): close "
        "to 1 for x1 << a and 0 for x1 >> a, nonincreasing in x1.",
    ),
    "gaussian_bump": (
        "exp(-{c}*(x1^2{rest}))",
        {"c": 1.0},
        ("c", "c"),
        "Radial bump exp(-c*|x|^2) with analytic gradient -2c x f(x).",
    ),
    "mixture": (
        "{w1}*exp(-{c1}*((x1-{m})^2{rest}))+{w2}*exp(-{c2}*((x1+{m})^2{rest}))",
        {"w1": 1.0, "w2": 0.6, "c1": 1.0, "c2": 2.0, "m": 1.2},
        ("bump widths c1, c2", "c1", "c2"),
        "Two Gaussian bumps centered at +-m along the first axis with "
        "weights w1, w2 and widths c1, c2.",
    ),
    "poly_tanh": (
        "tanh({a}*({u})+{b}*({u})^3)",
        {"a": 1.0, "b": 0.3},
        (),
        "tanh(a*u + b*u^3) with u a fixed weighted sum of coordinates; "
        "bounded with bounded analytic gradient.",
    ),
    "monotone1d": (
        "exp(-{a}*x1)",
        {"a": 1.0},
        ("a", "a"),
        "f(x) = exp(-a*x1), nonnegative and strictly decreasing in x1: a "
        "fixed point of first-coordinate symmetrization.",
    ),
}


def corpus_names() -> list[str]:
    return sorted(_BUILTINS)


def _builtin(name: str) -> tuple:
    """The corpus entry (template, defaults, positivity, description) of
    ``name``."""
    if name not in _BUILTINS:
        raise UnknownFieldError(
            f"unknown field {name!r}; available: {', '.join(corpus_names())}"
        )
    return _BUILTINS[name]


def builtin_field(name: str, params: Optional[dict] = None, dim: int = 1) -> ScalarField:
    """Construct a field from the builtin corpus: its expression template
    with the parameters written in, through the parser's jet, labelled
    ``name(key=value,...)``.

    Unknown names raise UnknownFieldError; parameters outside the family's
    signature or domain raise InvalidParameterError.
    """
    template, defaults, positive, _ = _builtin(name)
    p = _merge_params(name, defaults, params)
    if "axis" in p:
        if not (p["axis"].is_integer() and 1 <= p["axis"] <= dim):
            raise InvalidParameterError(f"axis must be an integer in 1..{dim}, got {p['axis']!r}")
        p["axis"] = int(p["axis"])
    if positive and min(p[k] for k in positive[1:]) <= 0:
        raise InvalidParameterError(f"{positive[0]} must be positive")
    source = template.format(
        **{k: repr(v) for k, v in p.items()},
        rest="".join(f"+x{k}^2" for k in range(2, dim + 1)),
        # the weights 0.5^(k-1), exact: the first axis enters unscaled
        u="+".join(["x1"] + [f"{0.5 ** (k - 1)!r}*x{k}" for k in range(2, dim + 1)]),
    )
    label = ",".join(f"{k}={v}" for k, v in p.items())
    return _expression_field(expr.parse_expression(source, dim), dim, f"{name}({label})")


def describe_field(name: str) -> str:
    _, defaults, _, text = _builtin(name)
    params = ", ".join(f"{k}={v:g}" for k, v in sorted(defaults.items()))
    return f"{name}\n  parameters: {params}\n  {text}"


def _expression_field(ast, dim: int, label: str) -> ScalarField:
    """The field of a parsed expression: its jet is ``expr.jet``, and it
    is flagged non-smooth when the expression uses abs()."""
    def jet(xs):
        return expr.jet(ast, xs)

    return ScalarField(dim, label, jet, smooth=not expr.uses_abs(ast))


def parse_field(expression: str, dim: int) -> ScalarField:
    """Parse an expression into a field with its exact gradient.

    The jet is ``expr.jet``: one forward-mode pass over the AST, giving
    the values and the partials.  Where a derivative is unbounded or the
    chain rule meets inf * 0 (sqrt(abs(x1)) at x1 = 0) it is not finite,
    and ``verify.analyze`` refuses the field.  The label is the canonical
    serialized form, which re-parses to a field that agrees everywhere.
    Fields whose expression uses abs() are flagged non-smooth.
    """
    ast = expr.parse_expression(expression, dim)
    return _expression_field(ast, dim, expr.serialize(ast))
