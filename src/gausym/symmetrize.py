"""First-coordinate Gaussian symmetrization of a rearranged field.

The symmetrization of f is the field depending on x1 only that shares the
decreasing rearrangement of f: evaluate the rearrangement profile at
Phi(x1).  Its gradient norm is (-p)'(s) * I(s) at s = Phi(x1), the
identity tested numerically by ``pointwise_identity_gap``.
"""

from __future__ import annotations

import numpy as np

from .errors import NonSmoothFieldError
from .fields import ScalarField, finite_difference_gradient
from .gaussian import GaussianGrid, Phi, Phi_inv, iso_profile, midpoint_quantiles, phi
from .rearrange import (
    Profile,
    decreasing_rearrangement,
    derivative_bin_count,
    neg_derivative,
)


def _bin_means(p: Profile, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell averages of p over n_bins uniform bins, placed at bin midpoints."""
    edges = np.arange(n_bins + 1) / n_bins
    cum = p.cumulative(edges)
    means = (cum[1:] - cum[:-1]) * n_bins
    nodes = (np.arange(n_bins) + 0.5) / n_bins
    return nodes, means


def symmetrized_field(
    p: Profile,
    dim: int = 1,
    interpolation: str = "step",
    n_bins: int | None = None,
) -> ScalarField:
    """Field x -> p(Phi(x1)), nonincreasing in x1, constant in x2..xn.

    ``step`` evaluates the profile directly and matches the discrete
    rearrangement exactly; its a.e. derivative is 0, so gradient checks
    use ``linear``, which interpolates bin averages of p between the
    midpoints of ``n_bins`` uniform bins (default: min(4096, pieces))
    and carries the analytic slope-times-density gradient.
    """
    if interpolation == "step":

        def f_step(X, _p=p):
            return _p(Phi(X[:, 0]))

        return ScalarField(dim, "symmetrized[step]", f_step, gradient=None, smooth=False)

    if interpolation != "linear":
        raise ValueError(f"interpolation must be 'step' or 'linear', got {interpolation!r}")

    B = n_bins if n_bins is not None else min(4096, max(8, p.num_pieces))
    nodes, means = _bin_means(p, B)
    # nonincreasing bin means: round-off on the cumulative is clamped
    slopes = np.minimum((means[1:] - means[:-1]) * B, 0.0)

    def f_lin(X, _nodes=nodes, _means=means):
        return np.interp(Phi(X[:, 0]), _nodes, _means)

    # Slopes are looked up among the nodes' x1 images, not by mapping x1
    # back to s: a grid point on a node is then the same float as the node,
    # and which slope it takes does not depend on round-off in Phi.
    x_nodes = midpoint_quantiles(B)

    def grad_lin(X, _x_nodes=x_nodes, _slopes=slopes):
        x1 = X[:, 0]
        idx = np.searchsorted(_x_nodes, x1, side="right") - 1
        inside = (idx >= 0) & (idx < len(_slopes))
        g = np.zeros_like(X)
        g[inside, 0] = _slopes[idx[inside]] * phi(x1[inside])
        return g

    return ScalarField(dim, "symmetrized[linear]", f_lin, gradient=grad_lin, smooth=True)


def pointwise_identity_gap(field: ScalarField, grid: GaussianGrid, M: int) -> float:
    """Max interior discrepancy between the two gradient routes of the
    symmetrized field.

    Route one samples (-p)'(s) * I(s) with difference quotients on the
    uniform grid; route two measures |grad| of the linear-interpolated
    symmetrized field by central finite differences at x1 = Phi_inv(s).
    Compared on s in [0.05, 0.95] only: toward the endpoints I vanishes
    and Phi_inv blows up, amplifying finite-difference noise.  Shrinks
    under refinement for smooth fields.
    """
    if not field.smooth:
        raise NonSmoothFieldError(
            f"pointwise identity check needs a smooth field, got {field.label!r}"
        )
    p = decreasing_rearrangement(field, grid)
    m_d = derivative_bin_count(p, M, min_block=grid.num_cells // grid.cells_per_axis)
    d = neg_derivative(p, m_d)
    surrogate = d.values * iso_profile(d.s)

    fo = symmetrized_field(p, dim=grid.dim, interpolation="linear", n_bins=m_d)
    mask = (d.s >= 0.05) & (d.s <= 0.95)
    pts = np.zeros((int(np.count_nonzero(mask)), grid.dim))
    pts[:, 0] = Phi_inv(d.s[mask])
    fd_norm = np.linalg.norm(finite_difference_gradient(fo, pts), axis=1)
    return float(np.max(np.abs(surrogate[mask] - fd_norm)))


def symmetrization_preserves_rearrangement(field: ScalarField, grid: GaussianGrid) -> float:
    """Sup distance between the rearrangement of the symmetrized field and
    the original rearrangement, sampled at cell midpoints.

    The step-mode symmetrization re-samples the profile through the grid,
    so the gap is bounded by the profile's variation across one cell row.
    """
    p = decreasing_rearrangement(field, grid)
    fo = symmetrized_field(p, dim=grid.dim, interpolation="step")
    p2 = decreasing_rearrangement(fo, grid)
    mid = (np.arange(p.num_pieces) + 0.5) / p.num_pieces
    return float(np.max(np.abs(p2(mid) - p(mid))))
