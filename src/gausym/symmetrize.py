"""First-coordinate Gaussian symmetrization of a rearranged field.

The symmetrization of f is the field depending on x1 only that shares the
decreasing rearrangement of f: the profile p evaluated at Phi(x1).  It is
built from bin averages of p, interpolated linearly in s = Phi(x1), so
its gradient norm is the interpolant's slope times phi(x1): a discrete
(-p)'(s) * I(s).  The analysis reads only that gradient,
``symmetrized_derivative``, and takes the bin averages from p's
cumulative at the bin edges.
"""

from __future__ import annotations

import math

import numpy as np

from .gaussian import midpoint_quantiles, phi


def symmetrized_derivative(means: np.ndarray, x1) -> np.ndarray:
    """d/dx1 of the symmetrized field at each x1 of an array, which is
    also minus its gradient norm.  The field is the linear interpolant, in
    s = Phi(x1), of ``means``, a profile's averages over len(means)
    uniform bins (the analysis takes its ``m_d`` derivative bins), between
    the bin midpoints; its derivative is the interpolant's slope times
    phi(x1), 0 outside the outermost slope nodes."""
    n_bins = means.size
    # The slopes are taken on the means scaled by a power of two (exactly)
    # to a top in [1/2, 1), and the result is scaled back, as
    # ``fields.partials_norm`` does: a slope, up to n_bins times the top,
    # may overflow where its product with phi(x1) does not.
    exponent = math.frexp(float(np.max(means)))[1]
    scaled = np.ldexp(means, -exponent)
    # nonincreasing bin means: round-off on the cumulative is clamped; the
    # 0.0 at each end is the slope below the first node and from the last
    slopes = np.zeros(n_bins + 1)
    np.minimum((scaled[1:] - scaled[:-1]) * n_bins, 0.0, out=slopes[1:-1])
    # Slopes are looked up among the nodes' x1 images, not by mapping x1
    # back to s: a point on a node is then the same float as the node,
    # and which slope it takes does not depend on round-off in Phi.
    out = slopes[np.searchsorted(midpoint_quantiles(n_bins), x1, side="right")]
    out *= phi(x1)
    return np.ldexp(out, exponent, out=out)
