"""Closed-form oracles: the true error of an analysis' curves on a field
whose continuum curves are known.

``monotone1d``, f = e^(-a x1), has f*(t) = e^(-a Phi_inv(t)), and its
surrogate (-f*)' I equals (|grad f|)* = a f*, so the cumulatives of both
are a e^(a^2/2) Phi(Phi_inv(t) + a), which is a e^(a^2/2) at t = 1.
The Gaussian measure is rotation invariant, so the same field rotated
onto the diagonal of 3-d space has the same curves.
Errors are the max over the t-grid (M = 4096), as fractions of that
scale, and may not grow past 1.25 times their measured values: a change
that makes either curve worse fails here.  The exact curve is built in
doubles from gausym's ``Phi`` and ``Phi_inv``, and is itself checked
against 40-digit mpmath.
"""

import math

import mpmath
import numpy as np
import pytest

from gausym import Phi, Phi_inv, analyze, builtin_field, equal_measure_grid, parse_field

A = 1.0
SCALE = A * math.exp(A * A / 2.0)
SLACK = 1.25


def exact_curve(t: np.ndarray) -> np.ndarray:
    """Both cumulatives' continuum value at each t in (0, 1), in doubles
    from gausym's own ``Phi`` and ``Phi_inv``."""
    return SCALE * Phi(Phi_inv(t) + A)


def assert_within_slack(analysis, lhs_error, rhs_error):
    """Each cumulative's max error over the t-grid, as a fraction of
    scale, at most ``SLACK`` times its measured value."""
    t = analysis.t_grid
    exact = np.append(exact_curve(t[:-1]), SCALE)
    lhs = float(np.max(np.abs(analysis.surr_prof.cumulative(t) - exact))) / SCALE
    rhs = float(np.max(np.abs(analysis.grad_cum - exact))) / SCALE
    assert lhs <= SLACK * lhs_error, lhs
    assert rhs <= SLACK * rhs_error, rhs


# (log2 N, surrogate cumulative error, (|grad f|)* cumulative error),
# measured on the field's default a = 1
@pytest.mark.parametrize("log_n, lhs_error, rhs_error", [
    (12, 1.08e-2, 6.87e-4),
    (16, 1.51e-3, 6.94e-5),
    (20, 1.89e-4, 6.73e-6),
])
def test_monotone1d_cumulatives(log_n, lhs_error, rhs_error):
    analysis = analyze(builtin_field("monotone1d"), equal_measure_grid(1, 2**log_n), 4096, ["uno"])
    assert_within_slack(analysis, lhs_error, rhs_error)


# f = e^(-(x1 + x2 + x3) / sqrt(3)) is monotone1d's field rotated to the
# diagonal, so its curves are monotone1d's: (N, the two errors as above)
@pytest.mark.parametrize("N, lhs_error, rhs_error", [
    (16, 1.232e-1, 4.589e-2),
    (32, 6.942e-2, 2.471e-2),
    (64, 3.859e-2, 1.325e-2),
])
def test_rotated_3d_cumulatives(N, lhs_error, rhs_error):
    field = parse_field("exp(-(x1+x2+x3)*0.5773502691896258)", 3)
    analysis = analyze(field, equal_measure_grid(3, N), 4096, ["uno"])
    assert_within_slack(analysis, lhs_error, rhs_error)


def test_exact_curve_matches_mpmath():
    """The oracle itself, against 40-digit mpmath (``ncdf`` and
    ``erfinv``) on every 64th point of the t-grid, its last point short
    of 1, and 1e-6 from either end.  The largest relative gap measured
    is 2.7e-15."""
    t = np.concatenate((np.arange(1, 4096, 64) / 4096, [4095 / 4096, 1e-6, 1.0 - 1e-6]))
    with mpmath.workdps(40):
        a = mpmath.mpf(A)
        scale = a * mpmath.exp(a * a / 2)
        gaps = []
        for x, c in zip(t.tolist(), exact_curve(t).tolist()):
            quantile = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(x) - 1)
            gaps.append(abs(mpmath.mpf(c) / (scale * mpmath.ncdf(quantile + a)) - 1))
        gap = float(max(gaps))
    assert gap <= 1e-13, gap
