"""First-coordinate Gaussian symmetrization of a rearranged field.

The symmetrization of f is the field depending on x1 only that shares the
decreasing rearrangement of f: the profile p evaluated at Phi(x1).  It is
built from bin averages of p, interpolated linearly in s = Phi(x1), so
its gradient norm is the interpolant's slope times phi(x1): a discrete
(-p)'(s) * I(s), the identity tested numerically by
``pointwise_identity_gap``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import NonSmoothFieldError
from .fields import ScalarField
from .gaussian import PASS_BLOCK, Phi, Phi_inv, midpoint_quantiles, phi
from .rearrange import Profile

if TYPE_CHECKING:
    from .verify import Analysis


def _bin_means(p: Profile, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell averages of p over n_bins uniform bins, placed at bin midpoints.

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
    means = (cum[1:] - cum[:-1]) * n_bins
    nodes = (np.arange(n_bins) + 0.5) / n_bins
    return nodes, means


def symmetrized_derivative(p: Profile, x1, n_bins: int) -> np.ndarray:
    """d/dx1 of ``symmetrized_field(p, dim, n_bins=n_bins)`` at each x1 of
    an array, which is also minus its gradient norm: the interpolant's
    slope times phi(x1), 0 outside the outermost slope nodes."""
    _, means = _bin_means(p, n_bins)
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


def symmetrized_field(p: Profile, dim: int = 1, *, n_bins: int) -> ScalarField:
    """Field x -> p(Phi(x1)), nonincreasing in x1, constant in x2..xn.

    The averages of p over ``n_bins`` uniform bins (the analysis passes
    its derivative-bin count ``m_d``) are interpolated linearly between
    the bin midpoints; the gradient is ``symmetrized_derivative``'s.
    Both read the x1 coordinates alone.
    """
    nodes, means = _bin_means(p, n_bins)

    def f_lin(xs, _nodes=nodes, _means=means):
        return np.interp(Phi(xs[0]), _nodes, _means)

    def jet_lin(xs):
        slope = symmetrized_derivative(p, xs[0], n_bins)
        return f_lin(xs), (slope,) + (0.0,) * (dim - 1)

    return ScalarField(dim, "symmetrized[linear]", f_lin, jet_lin, smooth=True)


def pointwise_identity_gap(analysis: Analysis) -> float:
    """Max interior discrepancy between the two gradient routes of the
    symmetrized field.

    Route one is the analysis' surrogate: bin averages of (-p)' * I on the
    derivative grid of ``m_d`` bins.  Route two is |grad| of the
    symmetrized field at x1 = Phi_inv(s), the bin midpoints, which are its
    slope nodes: the mean of its exact one-sided gradients there, the
    limit of central differences.  Compared on s in [0.05, 0.95] only:
    toward the endpoints I vanishes and Phi_inv blows up.  Shrinks under
    refinement for smooth fields.
    """
    field, surr = analysis.field, analysis.surr
    if not field.smooth:
        raise NonSmoothFieldError(
            f"pointwise identity check needs a smooth field, got {field.label!r}"
        )
    mask = (surr.s >= 0.05) & (surr.s <= 0.95)
    x1 = Phi_inv(surr.s[mask])
    # the slope right of each node, then the one left of it
    x1 = np.concatenate((x1, np.nextafter(x1, -np.inf)))
    right, left = np.split(np.abs(symmetrized_derivative(analysis.p, x1, analysis.m_d)), 2)
    return float(np.max(np.abs(surr.values[mask] - 0.5 * (right + left))))
