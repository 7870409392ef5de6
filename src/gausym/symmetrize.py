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

from .gaussian import PASS_BLOCK, midpoint_quantiles, phi
from .rearrange import Profile


def _bin_means(p: Profile, n_bins: int) -> np.ndarray:
    """Cell averages of p over n_bins uniform bins.

    The bin edges' cumulative values equal ``p.cumulative(edges)`` bit for
    bit.  They are read off one running sum over p, taken ``PASS_BLOCK``
    pieces at a time, so p's whole ``prefix_mass`` is neither built nor
    cached.
    """
    edges = np.arange(n_bins + 1) / n_bins
    knots, values = p.knots, p.values
    idx = np.clip(np.searchsorted(knots, edges, side="left") - 1, 0, p.num_pieces - 1)
    mass = np.zeros(idx.size)  # p.prefix_mass[idx]; idx is nondecreasing
    total = -0.0  # x + -0.0 is x for every x, -0.0 included
    last = int(idx[-1])
    for start in range(0, last, PASS_BLOCK):
        stop = min(start + PASS_BLOCK, last)
        run = knots[start + 1:stop + 1] - knots[start:stop]
        run *= values[start:stop]
        run[0] += total
        np.cumsum(run, out=run)  # run[i] = p.prefix_mass[start + 1 + i]
        lo, hi = np.searchsorted(idx, (start, stop), side="right")
        mass[lo:hi] = run[idx[lo:hi] - start - 1]
        total = run[-1]
    cum = mass + values[idx] * (edges - knots[idx])
    return (cum[1:] - cum[:-1]) * n_bins


def symmetrized_derivative(p: Profile, x1, n_bins: int) -> np.ndarray:
    """d/dx1 of the symmetrized field at each x1 of an array, which is
    also minus its gradient norm.  The field is the linear interpolant, in
    s = Phi(x1), of p's averages over ``n_bins`` uniform bins (the
    analysis passes its derivative-bin count ``m_d``) between the bin
    midpoints; its derivative is the interpolant's slope times phi(x1),
    0 outside the outermost slope nodes."""
    means = _bin_means(p, n_bins)
    # nonincreasing bin means: round-off on the cumulative is clamped
    slopes = np.minimum((means[1:] - means[:-1]) * n_bins, 0.0)
    # Slopes are looked up among the nodes' x1 images, not by mapping x1
    # back to s: a point on a node is then the same float as the node,
    # and which slope it takes does not depend on round-off in Phi.
    idx = np.searchsorted(midpoint_quantiles(n_bins), x1, side="right") - 1
    inside = (idx >= 0) & (idx < len(slopes))
    out = np.zeros_like(x1)
    out[inside] = slopes[idx[inside]] * phi(x1[inside])
    return out
