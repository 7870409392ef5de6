"""Standard Gaussian special functions, the isoperimetric profile, and
equal-measure grids on R^n.

All probabilistic quantities refer to the standard Gaussian measure: the
density phi, the distribution function Phi, its inverse Phi_inv, and the
isoperimetric profile I(t) = phi(Phi_inv(t)).

Convention
----------
``iso_profile`` implements the Gaussian isoperimetric function

    I(t) = phi(Phi_inv(t)),   I(0) = I(1) = 0,

the minimal Gaussian boundary measure among sets of measure t.  Everything
downstream (surrogate gradients, inequality checks) uses this convention.
It satisfies I'' = -1/I and I'(t) = -Phi_inv(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .errors import CellBudgetError, DomainError

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Probabilities are clamped into [P_LO, P_HI] before inversion: P_LO keeps
# Phi_inv finite, P_HI is one ulp below 1.  Exact 0/1 stay invalid inputs.
P_LO = 1e-300
P_HI = 1.0 - 1e-16

# Default ceiling on the total cell count of an equal-measure grid.
DEFAULT_CELL_BUDGET = 2_000_000


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _scalar_or_array(arr, scalar):
    return float(arr) if scalar else arr


def phi(x):
    """Standard normal density (2*pi)^(-1/2) * exp(-x^2/2).

    Accepts scalars or arrays; returns the matching shape.
    """
    arr, scalar = _as_float_array(x)
    out = np.exp(-0.5 * arr * arr) / SQRT_2PI
    return _scalar_or_array(out, scalar)


def Phi(x):
    """Standard normal distribution function.

    Strictly increasing, Phi(-x) = 1 - Phi(x).  Evaluated through the
    complementary error function, accurate to a few ulp in both tails.
    """
    arr, scalar = _as_float_array(x)
    out = _sp.ndtr(arr)
    return _scalar_or_array(out, scalar)


def Phi_inv(p):
    """Quantile function of the standard normal.

    Raises DomainError for p <= 0 or p >= 1; interior values are clamped
    to [1e-300, 1 - 1e-16] before inversion.  The rational initial guess
    is polished with one Halley step using phi/Phi, so the residual
    |Phi(Phi_inv(p)) - p| stays at rounding level for p in
    [1e-10, 1 - 1e-10].
    """
    arr, scalar = _as_float_array(p)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("Phi_inv requires probabilities strictly inside (0, 1)")
    pc = np.clip(arr, P_LO, P_HI)
    x = _sp.ndtri(pc)
    # Halley refinement of F(x) = Phi(x) - p:  F' = phi, F'' = -x*phi.
    f = _sp.ndtr(x) - pc
    d = np.exp(-0.5 * x * x) / SQRT_2PI
    with np.errstate(divide="ignore", invalid="ignore"):
        step = (f / d) / (1.0 + x * f / (2.0 * d))
    step = np.where(np.isfinite(step), step, 0.0)
    out = x - step
    return _scalar_or_array(out, scalar)


def iso_profile(t):
    """Gaussian isoperimetric profile I(t) = phi(Phi_inv(t)).

    Symmetric about 1/2 with maximum phi(0) there; returns 0 at t = 0 and
    t = 1 (continuity).  Inputs are clipped into [0, 1], so no errors.
    """
    arr, scalar = _as_float_array(t)
    tc = np.clip(arr, 0.0, 1.0)
    out = np.zeros_like(tc)
    inner = (tc > 0.0) & (tc < 1.0)
    if np.any(inner):
        x = _sp.ndtri(np.clip(tc[inner], P_LO, P_HI))
        out[inner] = np.exp(-0.5 * x * x) / SQRT_2PI
    return _scalar_or_array(out, scalar)


@dataclass(frozen=True)
class GaussianGrid:
    """Equal-measure discretization of R^n under the standard Gaussian.

    Per axis the cell boundaries sit at quantiles Phi_inv(k/N) and the
    representative of cell k at the measure midpoint Phi_inv((k+1/2)/N),
    so every one of the N^dim product cells carries measure N^(-dim)
    exactly by construction.
    """

    dim: int
    cells_per_axis: int
    representatives: np.ndarray  # shape (num_cells, dim)
    cell_measure: float

    @property
    def num_cells(self) -> int:
        return self.representatives.shape[0]

    @property
    def axis_points(self) -> np.ndarray:
        """The N per-axis representatives Phi_inv((k+1/2)/N), read off x1."""
        return self.representatives[:: self.num_cells // self.cells_per_axis, 0]

    @property
    def measures(self) -> np.ndarray:
        return np.full(self.num_cells, self.cell_measure)

    def axis_boundaries(self) -> np.ndarray:
        """Per-axis cell boundaries Phi_inv(k/N), k = 0..N (+-inf at ends)."""
        n = self.cells_per_axis
        inner = Phi_inv(np.arange(1, n) / n) if n > 1 else np.empty(0)
        return np.concatenate(([-np.inf], np.atleast_1d(inner), [np.inf]))

    def integrate(self, values: np.ndarray) -> float:
        """Quadrature sum(values * cell_measure) over the grid."""
        return float(np.sum(np.asarray(values, dtype=float)) * self.cell_measure)


def equal_measure_grid(dim: int, N: int, max_cells: int = DEFAULT_CELL_BUDGET) -> GaussianGrid:
    """Build the equal-measure quantile grid with N cells per axis.

    dim must be 1, 2 or 3 and N >= 2; N^dim may not exceed max_cells.
    Deterministic for fixed (dim, N).
    """
    if dim not in (1, 2, 3):
        raise DomainError(f"dim must be 1, 2 or 3, got {dim}")
    if N < 2:
        raise DomainError(f"cells per axis must be >= 2, got {N}")
    total = N**dim
    if total > max_cells:
        raise CellBudgetError(
            f"grid would need {total} cells, exceeding the budget of {max_cells}"
        )
    axis = Phi_inv((np.arange(N) + 0.5) / N)
    if dim == 1:
        reps = axis.reshape(-1, 1)
    else:
        mesh = np.meshgrid(*([axis] * dim), indexing="ij")
        reps = np.stack([m.ravel() for m in mesh], axis=1)
    reps.setflags(write=False)
    return GaussianGrid(
        dim=dim,
        cells_per_axis=N,
        representatives=reps,
        cell_measure=1.0 / total,
    )
