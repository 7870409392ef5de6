"""Standard Gaussian special functions, the isoperimetric profile, and
equal-measure grids on R^n.

All probabilistic quantities refer to the standard Gaussian measure: the
density phi, the distribution function Phi, its inverse Phi_inv, and the
isoperimetric profile I(t) = phi(Phi_inv(t)).  Everything is numpy (and
libm's erfc): the quantile function is Wichura's rational approximation,
Algorithm AS 241 (PPND16), Applied Statistics 37 (1988) 477-484, accurate
to about 1e-16 relative without a polishing step.  Both kernels run a
block at a time; a block wholly inside AS 241's central region
|t - 1/2| <= 0.425, or wholly inside one of its near tails, skips the
clamps and region masks and runs the same arithmetic on whole buffers,
so every result keeps its bits.

Convention
----------
``iso_profile`` implements the Gaussian isoperimetric function

    I(t) = phi(Phi_inv(t)),   I(0) = I(1) = 0,

the minimal Gaussian boundary measure among sets of measure t.  Everything
downstream (surrogate gradients, inequality checks) uses this convention.
It satisfies I'' = -1/I and I'(t) = -Phi_inv(t).

Grid axes come from ``midpoint_quantiles``, which computes the lower half
and mirrors it, so every axis is odd bit for bit and the mirrored cells of
a symmetric field carry exactly equal values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CellBudgetError, DomainError
from .rearrange import PASS_BLOCK

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Probabilities are clamped into [P_LO, P_HI] before inversion: P_LO keeps
# Phi_inv finite, P_HI is one ulp below 1.  Exact 0/1 stay invalid inputs.
P_LO = 1e-300
P_HI = 1.0 - 1e-16

# Ceiling on the total cell count of an equal-measure grid.
DEFAULT_CELL_BUDGET = 2_000_000

# Cells per block when ``verify.Analysis`` samples a field: it takes
# max(1, BLOCK_CELLS // row_cells) whole grid rows at a time, at most this
# many cells.  Each float64 temporary of a block is then at most 64 KiB,
# below glibc's default 128 KiB mmap threshold, so it is reused from the
# heap instead of being mapped and faulted in afresh, and each block pays
# one jet dispatch.  Whole CLI runs of the three benchmark workloads
# (``perfbench/workloads.py``, seed 0; x86-64 Linux, 2 cores, CPython
# 3.11, numpy 2.4; medians of 20, ``ru_minflt`` from ``os.wait4``) read,
# at 4096, 8192 and 16384 cells a block: `expr-3d` 7.57k, 7.65k and 7.90k
# minor faults and 512, 489 and 481 ms; `dense-1d` 13.5k, 13.5k and 13.7k
# faults and 457, 470 and 474 ms; `allchecks-2d` 9.32k, 9.26k and 9.90k
# faults and 386, 390 and 401 ms (walls within about 20 ms of noise).
# The sampling loop alone of `expr-3d`, in-process, took 57-63, 46-49
# and 41-54 ms; that of `allchecks-2d` 10.0-10.6, 5.9-6.6 and 8.5-9.1 ms.
# Earlier, 65536-cell blocks took 11.4k faults on `expr-3d` and sampling
# the whole grid at once 10-11k.  A float64 temporary of a
# ``PASS_BLOCK``-element running-sum block is 128 KiB, exactly that
# threshold, so it too comes from the heap only because freeing a mapped
# grid-sized array, such as the analysis' array of f*'s single-cell drops,
# raises the threshold: counting those drops a block at a time instead
# took the `expr-3d` run from 2.8k to 11.2k-11.7k faults inside
# ``cli.main``.
BLOCK_CELLS = 8192

# AS 241 (PPND16) coefficients, highest degree first: numerator and
# denominator of the central region |p - 1/2| <= 0.425 in r = 0.180625 - q^2,
# and of the two tail regions in r = sqrt(-log(min(p, 1 - p))) - 1.6 (r <= 5)
# or - 5 (beyond).
_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_NEAR_TAIL = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0),
)
_FAR_TAIL = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)

_erfc = np.frompyfunc(math.erfc, 1, 1)


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _scalar_or_array(arr, scalar):
    return float(arr) if scalar else arr


def _rational(r: np.ndarray, coeffs) -> np.ndarray:
    """num(r) / den(r) by Horner's rule, in place on two buffers."""
    num_c, den_c = coeffs
    num = np.full_like(r, num_c[0])
    den = np.full_like(r, den_c[0])
    for a, b in zip(num_c[1:], den_c[1:]):
        num *= r
        num += a
        den *= r
        den += b
    num /= den
    return num


def _blocked(kernel, arr: np.ndarray) -> np.ndarray:
    """``kernel`` applied to PASS_BLOCK-element slices of ``arr`` (in C
    order), gathered into one new array of its shape.  The kernel acts
    elementwise, so the result does not depend on the block size."""
    flat = np.ravel(arr)
    out = np.empty(flat.shape)
    for start in range(0, flat.size, PASS_BLOCK):
        stop = start + PASS_BLOCK
        out[start:stop] = kernel(flat[start:stop])
    return out.reshape(np.shape(arr))


def _ppnd16(p: np.ndarray) -> np.ndarray:
    """AS 241 quantiles of probabilities inside (0, 1); any shape, one
    block at a time."""
    return _blocked(_ppnd16_block, p)


def _all_central(q: np.ndarray) -> bool:
    """Whether every |q| <= 0.425, the central region of AS 241 in
    q = p - 1/2; a NaN fails it."""
    return bool(q.min() >= -0.425 and q.max() <= 0.425)


def _central(q: np.ndarray) -> np.ndarray:
    """AS 241 quantiles from q = p - 1/2 of the central region, the
    masked path's arithmetic; q is overwritten and returned."""
    r = q * q
    np.subtract(0.180625, r, out=r)
    q *= _rational(r, _CENTRAL)
    return q


def _near_tail(p: np.ndarray, q: np.ndarray):
    """AS 241 quantiles of a block wholly inside one tail, |q| > 0.425,
    with every r <= 5: the masked path's arithmetic on whole buffers, or
    None when the block is not such a block.  There r <= 5 keeps
    min(p, 1 - p) above e^-25, so the clamp to [P_LO, P_HI] changes
    nothing."""
    lower = bool(q.max() < -0.425)
    if not (lower or q.min() > 0.425):
        return None
    # out-of-range p (never from this module's callers) gives r = inf or
    # NaN here and takes the masked path
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.log(p) if lower else np.log(np.subtract(1.0, p))
        np.negative(r, out=r)
        np.sqrt(r, out=r)
    if not r.max() <= 5.0:
        return None
    r -= 1.6
    x = _rational(r, _NEAR_TAIL)
    return np.negative(x, out=x) if lower else x


def _ppnd16_block(p: np.ndarray) -> np.ndarray:
    """AS 241 quantiles of probabilities inside (0, 1), clamped to
    [P_LO, P_HI] first.  A block wholly inside the central region, or
    wholly inside one tail with every r <= 5, where the clamp changes
    nothing, skips the clamp, the masks and the gathers."""
    q = p - 0.5
    if _all_central(q):
        return _central(q)
    x = _near_tail(p, q)
    return _ppnd16_masked(p) if x is None else x


def _ppnd16_masked(p: np.ndarray) -> np.ndarray:
    """AS 241 on any block: the clamp, then the central region and the
    two tail ranges by masks, gathers and scatters."""
    p = np.clip(p, P_LO, P_HI)
    q = p - 0.5
    out = np.empty_like(p)
    central = np.abs(q) <= 0.425
    out[central] = _central(q[central])
    tail = ~central
    if np.any(tail):
        pt = p[tail]
        # 1 - p is exact for p > 1/2 (Sterbenz), so both tails keep full accuracy
        r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
        x = np.empty_like(r)
        near = r <= 5.0
        x[near] = _rational(r[near] - 1.6, _NEAR_TAIL)
        x[~near] = _rational(r[~near] - 5.0, _FAR_TAIL)
        out[tail] = np.where(pt < 0.5, -x, x)
    return out


def phi(x):
    """Standard normal density (2*pi)^(-1/2) * exp(-x^2/2).

    Accepts scalars or arrays; returns the matching shape.
    """
    arr, scalar = _as_float_array(x)
    # in place on one array; scaling by -0.5 is exact, so these are the
    # bits of exp(-0.5 * arr * arr) / SQRT_2PI
    out = np.multiply(arr, arr, out=np.empty_like(arr))
    out *= -0.5
    np.exp(out, out=out)
    out /= SQRT_2PI
    return _scalar_or_array(out, scalar)


def Phi(x):
    """Standard normal distribution function.

    Strictly increasing, Phi(-x) = 1 - Phi(x).  Evaluated as
    erfc(-x/sqrt(2))/2 through libm, one element at a time: relative error
    below 3e-14 on [-8, 8] and 5e-13 down to x = -37, set by the rounding
    of x/sqrt(2).
    """
    arr, scalar = _as_float_array(x)
    out = 0.5 * np.asarray(_erfc(-arr / math.sqrt(2.0)), dtype=float)
    return _scalar_or_array(out, scalar)


def Phi_inv(p):
    """Quantile function of the standard normal.

    Raises DomainError unless 0 < p < 1 (NaN included); interior values are
    clamped to [1e-300, 1 - 1e-16] before inversion.  AS 241 keeps the
    relative error near 1e-16, so |Phi(Phi_inv(p)) - p| stays at rounding
    level for p in [1e-10, 1 - 1e-10].
    """
    arr, scalar = _as_float_array(p)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise DomainError("Phi_inv requires probabilities strictly inside (0, 1)")
    return _scalar_or_array(_ppnd16(arr), scalar)


def iso_profile(t):
    """Gaussian isoperimetric profile I(t) = phi(Phi_inv(t)).

    Symmetric about 1/2 with maximum phi(0) there; returns 0 at t = 0 and
    t = 1 (continuity).  Inputs are clipped into [0, 1], so no errors.
    """
    arr, scalar = _as_float_array(t)
    return _scalar_or_array(_blocked(_iso_profile_block, arr), scalar)


def _iso_profile_block(t: np.ndarray) -> np.ndarray:
    """I on a block: a block wholly inside (0, 1), where the clip changes
    nothing, skips it and the mask; a NaN fails that test."""
    if t.min() > 0.0 and t.max() < 1.0:
        return phi(_ppnd16_block(t))
    tc = np.clip(t, 0.0, 1.0)
    out = np.zeros_like(tc)
    inner = (tc > 0.0) & (tc < 1.0)
    if np.any(inner):
        out[inner] = phi(_ppnd16_block(tc[inner]))
    return out


def midpoint_quantiles(n: int) -> np.ndarray:
    """Cell-midpoint quantiles Phi_inv((k + 1/2)/n), k = 0..n-1.

    The lower half's AS 241 quantiles are written straight into the
    result, one ``PASS_BLOCK`` at a time, and mirrored in place with their
    signs flipped, so the result is odd bit for bit (the middle point of
    odd n is +0.0) and no temporary of the half's size is made.  (k +
    1/2)/n is one correctly rounded division, inside (0, 1/2), so equal
    fractions from different n give the same point, with the bits of
    ``Phi_inv`` on them.
    """
    out = np.empty(n)
    half = n // 2
    for start in range(0, half, PASS_BLOCK):
        stop = min(start + PASS_BLOCK, half)
        out[start:stop] = _ppnd16_block((np.arange(start, stop) + 0.5) / n)
    out[half:n - half] = 0.0
    np.negative(out[:half][::-1], out=out[n - half:])
    return out


@dataclass(frozen=True)
class GaussianGrid:
    """Equal-measure discretization of R^n under the standard Gaussian.

    Per axis the cell boundaries sit at quantiles Phi_inv(k/N) and the
    representative of cell k at the measure midpoint Phi_inv((k+1/2)/N)
    (``midpoint_quantiles``, odd bit for bit), so every one of the N^dim
    product cells carries measure N^(-dim) exactly by construction.

    The grid stores only the N axis points.  Cells are numbered in C order
    (the last coordinate varies fastest) and grouped into rows of
    ``row_cells`` cells: from dim 2 on, a row is the N cells along the
    last axis with the leading indices fixed; in dim 1 a row is one cell.
    ``rows(start, stop)`` gives the coordinates of a range of rows as one
    array per axis, which broadcast together to the cells in C order, so a
    caller can sample the grid one block of rows at a time and evaluate
    what depends on the leading axes once per row.

    It stays a frozen dataclass, one of the package's three: assigning to
    a field raises ``FrozenInstanceError``, as its tests expect.
    """

    dim: int
    cells_per_axis: int
    axis_points: np.ndarray  # the N per-axis representatives, read-only
    cell_measure: float

    @property
    def num_cells(self) -> int:
        return self.cells_per_axis**self.dim

    @property
    def row_cells(self) -> int:
        """Cells per row: N from dim 2 on, 1 in dim 1."""
        return self.cells_per_axis if self.dim > 1 else 1

    @property
    def num_rows(self) -> int:
        return self.num_cells // self.row_cells

    def rows(self, start: int, stop: int) -> tuple[np.ndarray, ...]:
        """Coordinates of rows start..stop-1, one array per axis.

        In dim 1 this is the slice of the axis points.  From dim 2 on, the
        leading axes come shaped (r, 1), read off one divmod of the r row
        indices, and the last axis is the (1, N) axis points; together they
        broadcast to the (r, N) cells in C order.
        """
        if self.dim == 1:
            return (self.axis_points[start:stop],)
        # row index -> digits of the leading axes, most significant first
        digits = [np.arange(start, stop)]
        for _ in range(self.dim - 2):
            digits[:1] = np.divmod(digits[0], self.cells_per_axis)
        return (*(self.axis_points[d][:, None] for d in digits), self.axis_points[None, :])


def equal_measure_grid(dim: int, N: int) -> GaussianGrid:
    """Build the equal-measure quantile grid with N cells per axis.

    dim must be 1, 2 or 3 and N >= 2; N^dim may not exceed DEFAULT_CELL_BUDGET.
    Deterministic for fixed (dim, N).
    """
    if dim not in (1, 2, 3):
        raise DomainError(f"dim must be 1, 2 or 3, got {dim}")
    if N < 2:
        raise DomainError(f"cells per axis must be >= 2, got {N}")
    total = N**dim
    if total > DEFAULT_CELL_BUDGET:
        raise CellBudgetError(
            f"grid would need {total} cells, exceeding the budget of {DEFAULT_CELL_BUDGET}"
        )
    axis = midpoint_quantiles(N)
    axis.setflags(write=False)
    return GaussianGrid(dim=dim, cells_per_axis=N, axis_points=axis, cell_measure=1.0 / total)
