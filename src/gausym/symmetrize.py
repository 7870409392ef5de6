"""First-coordinate Gaussian symmetrization of a rearranged field.

The symmetrization of f is the field depending on x1 only that shares the
decreasing rearrangement of f: the profile p evaluated at Phi(x1).  It is
built from bin averages of p, interpolated linearly in s = Phi(x1), so
its gradient norm is the interpolant's slope times phi(x1): a discrete
(-p)'(s) * I(s).  The analysis reads only that gradient,
``symmetrized_derivative``.
"""

from __future__ import annotations

import numpy as np

from .gaussian import midpoint_quantiles, phi
from .rearrange import Profile


def _bin_means(p: Profile, n_bins: int) -> np.ndarray:
    """Cell averages of p over n_bins uniform bins, differenced off
    ``p.cumulative`` at the bin edges."""
    cum = p.cumulative(np.arange(n_bins + 1) / n_bins)
    return (cum[1:] - cum[:-1]) * n_bins


def symmetrized_derivative(p: Profile, x1, n_bins: int) -> np.ndarray:
    """d/dx1 of the symmetrized field at each x1 of an array, which is
    also minus its gradient norm.  The field is the linear interpolant, in
    s = Phi(x1), of p's averages over ``n_bins`` uniform bins (the
    analysis passes its derivative-bin count ``m_d``) between the bin
    midpoints; its derivative is the interpolant's slope times phi(x1),
    0 outside the outermost slope nodes."""
    means = _bin_means(p, n_bins)
    # nonincreasing bin means: round-off on the cumulative is clamped; the
    # 0.0 at each end is the slope below the first node and from the last
    slopes = np.zeros(n_bins + 1)
    np.minimum((means[1:] - means[:-1]) * n_bins, 0.0, out=slopes[1:-1])
    # Slopes are looked up among the nodes' x1 images, not by mapping x1
    # back to s: a point on a node is then the same float as the node,
    # and which slope it takes does not depend on round-off in Phi.
    out = slopes[np.searchsorted(midpoint_quantiles(n_bins), x1, side="right")]
    out *= phi(x1)
    return out
