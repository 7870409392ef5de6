"""Inequality and identity checks on rearranged gradients.

Every check compares curves built from the same objects: the decreasing
rearrangement f* of |f|, the rearranged |grad f|, and the surrogate
(-f*)' * I.  ``analyze(field, grid, M, checks)`` builds them once into an
``Analysis`` for the check tokens ``checks`` (every token by default),
and refuses a field whose values or gradients are not finite on the grid
(``NonFiniteFieldError``).  Each ``check_*`` takes an analysis plus its
own options and reads the field, grid and M from it.  ``CHECKS`` maps
each check token to the report rows it yields, and ``run_checks`` runs a
list of tokens on one analysis.  ``convergence_study(analysis, tokens)``
reruns the convergent checks among the tokens on coarser grids and
relabels each rung's row as a ``converge:<check>[N=n]`` row.

The field is sampled one block of whole grid rows at a time, about
``BLOCK_CELLS`` cells, by one call of the field's ``jet`` on the rows'
per-axis coordinates from ``GaussianGrid.rows``.  The jet gives the values
and partials together, each broadcast only over the axes it depends on,
and both are broadcast into cell order as they are stored: no array of
points or partials, and no temporary of the field's jet, spans the whole
grid.  The analysis keeps two grid-sized arrays, the values of ``p``
and ``grad_prof``, 16 bytes a cell:

- Level order is built only when ``mt`` is among the checks.  Only
  ``mt`` reads the cells in level order (decreasing |f|, ties by cell
  index), through the integral of |grad f| over the super-level set of
  measure t: the first round(tK) cells in that order.  One stable
  argsort of -|f| in cell order gives the order; -|f| gathered through
  it gives f*, the bits of a sort, so |f| is not sorted again.
- f*'s single-cell drops are taken once, as one grid-sized temporary:
  ``derivative_bin_count`` counts the levels from them, and with ``mt``
  one in-place partition of them gives the median positive drop that
  ``mt``'s fold reads, ``mt_median_drop``, the one float kept of them.
- The sampled |grad f| is sorted in place once nothing reads it in
  cell order any more (after ``mt``'s level sums), before the surrogate
  is built: the analysis runs on the calling thread alone.  Only max
  |grad f| is kept of the unsorted gradient.  Every profile of the
  analysis, ``p``, ``grad_prof``, ``surr_prof`` and ``sym_grad_prof``,
  is built by ``_sorted_profile``: its negated magnitudes sorted in
  place and taken as an equal-width profile, which keeps no knot or
  width array, without ``Profile``'s validating re-scans
  (``Profile.equal_width``), since the arrays were just sorted and are
  finite.
- Each cumulative, of |grad f| in level order, of the surrogate, of f*
  and of (|grad f|)*, is one running sum taken in pairwise-summed chunks
  (``rearrange.running_sum_at``), read only at the points the checks
  read; each value read depends on its index alone, not on what else is
  read.  The analysis keeps the arrays the checks compare: ``surr``,
  the surrogate's means on the ``m_d`` derivative bins; ``grad_cum``,
  (|grad f|)*'s cumulative at the t-grid, the rhs of ``uno`` and
  ``dos``, built by every analysis; and with ``mt`` ``mt_surr_cum`` and
  ``mt_grad_cum``, the other two cumulatives at the t-grid and then at
  ``mt``'s fold edges ``mt_edges``.

The symmetrized field's gradient is taken lazily, on first use by
``dos`` or ``orlicz``, from ``sym_means``, f*'s means on the derivative
bins differenced from ``p.cumulative`` at the bin edges, on the N axis
points alone (the field depends on x1 only), so its profile has N
pieces: in 1-d these are f*'s K pieces, and it adds its 8 bytes a cell
of values.

Each check compares two curves over a common grid on (0, 1) and reports
the worst signed violation against a tolerance.  The default tolerance
model budgets first-order quadrature error against the cell count and
finite-difference error against the derivative grid:

    tol(N, M) = 5 * sup|grad f| / sqrt(N) + 10 * sup_interior(surrogate) / M

where the surrogate is the profile-derivative-times-isoperimetric-profile
curve and its sup is estimated over s in [0.05, 0.95] (the raw sup can
diverge toward the endpoints).  Tolerances double for non-smooth fields.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, IntervalError, NonFiniteFieldError, NonSmoothFieldError
from .fields import ScalarField, partials_norm
from .gaussian import BLOCK_CELLS, GaussianGrid, equal_measure_grid, iso_profile
from .majorize import DEFAULT_NORM_FAMILY, HINGE_GRID_SIZE, RINorm, hinge_integrals, ri_norm
from .rearrange import Profile, derivative_bin_count, running_sum_at, uniform_knots, uniform_piece
from .symmetrize import symmetrized_derivative

VIOLATION_FLOOR = 1e-12


@dataclass(frozen=True)
class IneqReport:
    """Outcome of one check: LHS/RHS curves, worst violation, verdict.

    A dataclass, so that a row is rebuilt with ``dataclasses.replace``, as
    ``convergence_study`` and ``run_checks`` do."""

    check_name: str
    field_label: str
    dim: int
    N: int
    M: int
    s_grid: np.ndarray
    lhs_curve: np.ndarray
    rhs_curve: np.ndarray
    max_violation: float
    tolerance: float
    passed: bool
    runtime_ms: int
    extra: dict = dc_field(default_factory=dict)

    def entry(self) -> dict:
        """Flat report-schema entry (curves are emitted separately)."""
        return {
            "name": self.check_name,
            "field": self.field_label,
            "dim": self.dim,
            "N": self.N,
            "M": self.M,
            "tolerance": self.tolerance,
            "max_violation": self.max_violation,
            "pass": self.passed,
            "runtime_ms": self.runtime_ms,
        }


class Analysis:
    """Shared per-(field, grid, M) data: rearrangements and surrogate.

    Build it with ``analyze``; every check reads it and none modifies it.
    ``checks`` names the check tokens it serves (every token by default).
    Of the grid-sized arrays it keeps only the values of ``p`` and
    ``grad_prof``.  ``surr`` holds the surrogate's means on the ``m_d``
    derivative bins, and ``grad_cum`` the cumulative of ``grad_prof`` at
    the t-grid, both read-only; ``sym_means``, f*'s means on the same
    bins, is taken on first use by the symmetrized gradient.  The level
    order that only ``mt`` reads is built only when it is among the
    checks; then ``mt_surr_cum`` and ``mt_grad_cum`` hold the surrogate
    cumulative and the integral of |grad f| over the super-level set of
    measure t, both over the first round(tK) cells (the surrogate's at
    most K-1), for each t of the t-grid and then of ``mt_edges``, mt's
    fold edges, and ``mt_median_drop`` the median of f*'s positive
    single-cell drops (None when f* has none).  Without ``mt`` all four
    are None.
    """

    def __init__(
        self, field: ScalarField, grid: GaussianGrid, M: int,
        checks: Optional[Sequence[str]] = None,
    ):
        if M < 8:
            raise DomainError(f"s-grid needs M >= 8, got {M}")
        checks = tuple(CHECKS) if checks is None else tuple(checks)
        require_known(checks)
        self.field = field
        self.grid = grid
        self.M = M
        K, row = grid.num_cells, grid.row_cells
        # whole rows, about BLOCK_CELLS cells a block (it gives the reason)
        vals, grads = np.empty(K), np.empty(K)
        step = max(1, BLOCK_CELLS // row)
        for start in range(0, grid.num_rows, step):
            stop = min(start + step, grid.num_rows)
            xs = grid.rows(start, stop)
            shape = np.broadcast(*xs).shape
            values, partials = field.jet(xs)
            np.abs(values, out=vals[start * row:stop * row].reshape(shape))
            partials_norm(partials, grads[start * row:stop * row].reshape(shape))
        _require_finite(field, grid, "|f|", vals, np.max(vals))
        self.grad_max = float(np.max(grads))
        _require_finite(field, grid, "|grad f|", grads, self.grad_max)
        # -|f| ascending is |f| decreasing, and its stable order the level order
        np.negative(vals, out=vals)
        order = np.argsort(vals, kind="stable") if "mt" in checks else None
        self.p = _sorted_profile(vals, order)
        del vals
        # f* is nonincreasing and its zeros are +0.0: every drop is >= +0.0
        drops = self.p.values[:-1] - self.p.values[1:]
        self.m_d = derivative_bin_count(drops, self.p.values[0], M, K // grid.cells_per_axis)
        self.mt_median_drop = _median_positive(drops) if order is not None else None
        del drops
        self.t_grid = np.arange(1, M + 1) / M
        self.mt_edges = self.mt_surr_cum = self.mt_grad_cum = None
        # the last knot adds no drop, so the surrogate there is that at K-1
        at = uniform_piece(uniform_knots(self.m_d), K, side="right")
        if order is not None:
            # bins four derivative bins wide (check_mazya_talenti gives the reason)
            bins = max(8, min(self.m_d, K // 16) // 4)
            self.mt_edges = np.arange(bins + 1) / bins
            # both mt sides cut at the first round(tK) cells
            mt_at = np.rint(np.concatenate((self.t_grid, self.mt_edges)) * K).astype(np.intp)
            self.mt_grad_cum = _read_only(_level_grad_at(grads, order, grid.cell_measure, mt_at))
            at = np.concatenate((at, np.minimum(mt_at, K - 1)))
            del order
        # nothing reads |grad f| in cell order any more: sort it in place
        np.negative(grads, out=grads)
        self.grad_prof = _sorted_profile(grads)
        surr_cum = _surrogate_at(self.p, self.m_d, at)
        self.grad_cum = _read_only(self.grad_prof.cumulative(self.t_grid))
        self.surr = _read_only(np.diff(surr_cum[:self.m_d + 1]) * self.m_d)
        if self.mt_edges is not None:
            self.mt_surr_cum = _read_only(surr_cum[self.m_d + 1:])
        self.surr_prof = _sorted_profile(-self.surr)

    @cached_property
    def sym_means(self) -> np.ndarray:
        """f*'s means on the ``m_d`` derivative bins, read-only: differenced
        from ``p.cumulative`` at the bin edges."""
        return _read_only(np.diff(self.p.cumulative(uniform_knots(self.m_d))) * self.m_d)

    @cached_property
    def sym_grad_prof(self) -> Profile:
        """Rearranged |grad| of the linear symmetrized field on the grid.

        The field depends on x1 alone, so its gradient is taken on the N
        axis points, and the profile has N pieces of width 1/N: each
        sorted value stands for the N^(dim-1) cells of its x1 slab.  In
        1-d those are the grid's cells.  It is built from ``sym_means``.  A
        non-smooth field has none: its checks are refused
        (``NonSmoothFieldError``).
        """
        if not self.field.smooth:
            raise NonSmoothFieldError(f"check needs a smooth field, got {self.field.label!r}")
        neg = symmetrized_derivative(self.sym_means, self.grid.axis_points)
        np.negative(np.abs(neg, out=neg), out=neg)
        return _sorted_profile(neg)

    def tolerance(self, override: Optional[float]) -> float:
        if override is not None:
            return float(override)
        s = (np.arange(self.m_d) + 0.5) / self.m_d
        interior = self.surr[(s >= 0.05) & (s <= 0.95)]
        peak = float(np.max(interior)) if interior.size else 0.0
        # divided before multiplied, so that a sup near the top of the
        # double range still gives a finite tolerance
        c1 = self.grad_max / math.sqrt(self.grid.cells_per_axis)
        tol = 5.0 * c1 + 10.0 * (peak / self.M)
        return tol if self.field.smooth else 2.0 * tol


def _read_only(x: np.ndarray) -> np.ndarray:
    x.setflags(write=False)
    return x


def _median_positive(drops: np.ndarray) -> Optional[float]:
    """``np.median`` of the positive entries of ``drops`` (each >= +0.0),
    the same value bit for bit, or None when there is none.  Those are
    the n nonzero entries, so their median is the order statistic of
    ``drops`` itself at ranks zeros + (n-1)//2 and zeros + n//2: one
    in-place partition, which reorders ``drops``, finds it.  (np.median
    itself imports numpy.ma on first use, about 10 ms.)"""
    n = int(np.count_nonzero(drops))
    if n == 0:
        return None
    lo, hi = drops.size - n + (n - 1) // 2, drops.size - n + n // 2
    drops.partition((lo, hi))
    return float(drops[hi] if lo == hi else (drops[lo] + drops[hi]) / 2.0)


def _level_grad_at(grads: np.ndarray, order: np.ndarray, cell_measure: float, at):
    """Integral of |grad f| over the first k cells in level order, for
    each k of ``at``, in any order: |grad f| in cell order gathered
    through ``order`` a block at a time."""

    def cell_masses(start, stop):
        run = np.take(grads, order[start:stop])
        run *= cell_measure
        return run

    return running_sum_at(cell_masses, at)


def _sorted_profile(neg: np.ndarray, order: Optional[np.ndarray] = None) -> Profile:
    """The equal-width profile of nonnegative values given negated and
    NaN-free: ``neg`` sorted in place and negated back, read-only, so the
    profile keeps it uncopied.  Every zero comes back +0.0, so the values
    equal those gathered in their stable decreasing argsort order, bit for
    bit: given that order (``np.argsort(neg, kind="stable")``), they are
    gathered through it into a new array instead of sorted again."""
    if order is None:
        neg.sort()
    else:
        neg = np.take(neg, order)
    np.negative(neg, out=neg)
    neg.setflags(write=False)
    return Profile.equal_width(neg)


def _surrogate_at(p: Profile, m_d: int, at: np.ndarray) -> np.ndarray:
    """Integral of the surrogate measure over (0, knots[k]], for each k of
    ``at``, in any order, each below K.

    The measure (-dp) * I puts at each drop of the step profile its size
    times I at the center of the stretch it stands for, capped at the
    derivative-bin width 1/m_d: a genuine isolated drop after a flat keeps
    its own location, while dense drops get the unbiased midpoint.
    Surrogate samples are bin averages of this measure, so they stay inside
    the range of (-p)' * I even where both factors vary quickly within a
    bin.  Built as one running sum, to which a knot without a drop adds
    an exact 0.
    """
    values = p.values
    last_at = 0.0

    def drops(start, stop):
        nonlocal last_at
        # at knots[start + 1:stop + 1]
        mass = np.subtract(values[start:stop], values[start + 1:stop + 1])
        idx = np.flatnonzero(mass > 0.0)
        if idx.size:
            at = p.knot(idx + (start + 1))
            prev = np.concatenate(([last_at], at[:-1]))
            shift = 0.5 * np.minimum(at - prev, 1.0 / m_d)
            mass[idx] *= iso_profile(at - shift)
            last_at = at[-1]
        return mass

    return running_sum_at(drops, at)


def _require_finite(
    field: ScalarField, grid: GaussianGrid, name: str, arr: np.ndarray, peak: float
):
    """Raise NonFiniteFieldError naming the first grid point where ``arr``
    (the field's ``name`` sampled on the grid's cells) is not finite.
    ``peak`` is ``np.max(arr)``, which propagates NaN, so the array is
    scanned only when it is not finite."""
    if math.isfinite(peak):
        return
    i = int(np.argmin(np.isfinite(arr)))
    digits = np.unravel_index(i, (grid.cells_per_axis,) * grid.dim)
    x = ", ".join(f"{c:.17g}" for c in grid.axis_points[list(digits)])
    raise NonFiniteFieldError(
        f"field {field.label!r} is not finite on the grid: {name} = {arr[i]} at x = ({x})"
    )


def analyze(
    field: ScalarField, grid: GaussianGrid, M: int, checks: Optional[Sequence[str]] = None
) -> Analysis:
    """Build the shared analysis of ``field`` on ``grid`` with an M-point
    t-grid, for the check tokens ``checks`` (every token by default)."""
    return Analysis(field, grid, M, checks)


def _finish(
    name: str,
    analysis: Analysis,
    s_grid: np.ndarray,
    lhs: np.ndarray,
    rhs: np.ndarray,
    tol: float,
    equality: bool,
    t_start: float,
    extra: Optional[dict] = None,
    fold_violation: Optional[float] = None,
) -> IneqReport:
    diff = lhs - rhs
    violation = float(np.max(np.abs(diff))) if equality else float(np.max(diff))
    if fold_violation is not None:
        violation = max(violation, fold_violation)
    return IneqReport(
        check_name=name,
        field_label=analysis.field.label,
        dim=analysis.grid.dim,
        N=analysis.grid.cells_per_axis,
        M=len(s_grid),
        s_grid=s_grid,
        lhs_curve=lhs,
        rhs_curve=rhs,
        max_violation=violation,
        tolerance=tol,
        passed=bool(violation <= tol),
        runtime_ms=int(round((time.perf_counter() - t_start) * 1000.0)),
        extra=extra or {},
    )


def check_polya_szego(
    analysis: Analysis, equality: bool = False, tol: Optional[float] = None
) -> IneqReport:
    """Cumulative gradient rearrangement of the symmetrized field against
    that of the field itself: LHS(t) <= RHS(t) on the t-grid.

    Equality mode (for fields already decreasing in x1) bounds |LHS-RHS|.
    """
    return _against_grad_cum("dos", analysis, "sym_grad_prof", equality, tol)


def check_reformulated(
    analysis: Analysis, equality: bool = False, tol: Optional[float] = None
) -> IneqReport:
    """Cumulative comparison of the rearranged surrogate (-f*)' * I against
    the rearranged gradient: LHS(t) <= RHS(t) on the t-grid."""
    return _against_grad_cum("uno", analysis, "surr_prof", equality, tol)


def _against_grad_cum(name: str, analysis: Analysis, profile: str, equality: bool, tol):
    """The cumulative at the t-grid of the analysis' profile named
    ``profile`` against ``grad_cum``; the profile is read inside the timed
    span, so a lazy one (``sym_grad_prof``) is built there."""
    t0 = time.perf_counter()
    t = analysis.t_grid
    lhs = getattr(analysis, profile).cumulative(t)
    rhs = analysis.grad_cum
    return _finish(name, analysis, t, lhs, rhs, analysis.tolerance(tol), equality, t0)


def check_norm_inequality(
    analysis: Analysis,
    norms: Sequence[RINorm] = DEFAULT_NORM_FAMILY,
    tol: Optional[float] = None,
) -> list[IneqReport]:
    """Norm-by-norm domination of the rearranged surrogate by the
    rearranged gradient across the implemented r.i. family."""
    tol_value = analysis.tolerance(tol)
    reports = []
    for X in norms:
        t_norm = time.perf_counter()
        lhs = np.array([ri_norm(analysis.surr_prof, X)])
        rhs = np.array([ri_norm(analysis.grad_prof, X)])
        reports.append(_finish(
            f"norm:{X.label}", analysis, np.array([1.0]), lhs, rhs, tol_value, False, t_norm
        ))
    return reports


def check_mazya_talenti(analysis: Analysis, tol: Optional[float] = None) -> IneqReport:
    """Maz'ya-Talenti bound in cumulative form: for every grid t, the
    integral of (-f*)' * I over (0, t] must stay below the integral of
    |grad f| over the super-level set of measure t.  Both are taken over
    the first round(tK) cells: the surrogate's over f*'s first pieces,
    and |grad f|'s in level order.  In the continuum that set differs from
    {|f| > f*(t)} only within a level set, where grad f = 0 almost
    everywhere.

    The pointwise form is folded into the verdict on bins four derivative
    bins wide (narrower, the edge levels' lattice error outgrows the slack
    of nearly isoperimetric tails) whose profile drop exceeds 10x the
    median positive single-cell drop, which the analysis keeps.
    """
    t0 = time.perf_counter()
    p, t, edges = analysis.p, analysis.t_grid, analysis.mt_edges
    if edges is None:
        raise DomainError("check 'mt' needs an analysis built with 'mt' among its checks")
    lhs, l_edge = np.split(analysis.mt_surr_cum, (t.size,))
    rhs, r_edge = np.split(analysis.mt_grad_cum, (t.size,))
    bins = edges.size - 1
    drops = p(edges[:-1]) - p(edges[1:])
    median = analysis.mt_median_drop
    value_range = float(p.values[0] - p.values[-1])
    if median is not None:
        # strictly decreasing at scale, yet still resolved: a bin losing
        # more than 10% of the whole range is not a derivative estimate
        eligible = (drops > 10.0 * median) & (drops <= 0.1 * value_range)
    else:
        eligible = np.zeros(bins, bool)
    extra = {"pointwise_eligible_bins": int(np.count_nonzero(eligible))}
    fold = None
    if np.any(eligible):
        lhs_slope = (l_edge[1:] - l_edge[:-1])[eligible] * bins
        rhs_slope = (r_edge[1:] - r_edge[:-1])[eligible] * bins
        fold = float(np.max(lhs_slope - rhs_slope))
        extra["pointwise_violation"] = fold
    return _finish("mt", analysis, t, lhs, rhs, analysis.tolerance(tol), False, t0, extra, fold)


def validate_intervals(intervals) -> np.ndarray:
    try:
        arr = np.asarray(intervals, dtype=float).reshape(-1, 2)
    except (TypeError, ValueError):
        raise IntervalError(f"intervals must be pairs (a, b), got {intervals!r}") from None
    if arr.size == 0:
        raise IntervalError("need at least one interval")
    # each test is written so that a NaN bound fails it
    if not (np.all(arr[:, 0] >= 0.0) and np.all(arr[:, 1] <= 1.0)):
        raise IntervalError("intervals must lie within [0, 1]")
    if not np.all(arr[:, 0] < arr[:, 1]):
        raise IntervalError("each interval needs a < b")
    if not np.all(arr[1:, 0] >= arr[:-1, 1]):
        raise IntervalError("intervals must be disjoint and ordered")
    return arr


def check_interval_bound(
    analysis: Analysis, intervals, tol: Optional[float] = None
) -> IneqReport:
    """Surrogate mass on a finite union E of disjoint intervals against the
    gradient rearrangement integrated over (0, |E|).

    Checked in running form: every truncation E intersected with (0, t] is
    itself a finite union, so the comparison holds along the whole curve,
    with t = 1 giving the bound for E itself.
    """
    arr = validate_intervals(intervals)
    t0 = time.perf_counter()
    a, b = arr[:, 0], arr[:, 1]
    t = analysis.t_grid
    # the integral over (0, t] of the surrogate's bin-constant extension,
    # its bins' masses summed (the sum of the means could overflow)
    cum = np.concatenate(([0.0], np.cumsum(analysis.surr / analysis.m_d)))
    edges = analysis.surr_prof.knots
    clamped = np.clip(t[None, :], a[:, None], b[:, None])
    lhs = np.sum(np.interp(clamped, edges, cum) - np.interp(a, edges, cum)[:, None], axis=0)
    cut = np.sum(np.maximum(np.minimum(t[None, :], b[:, None]) - a[:, None], 0.0), axis=0)
    rhs = analysis.grad_prof.cumulative(cut)
    extra = {"intervals": arr.tolist(), "total_length": float(np.sum(b - a))}
    return _finish(
        "interval", analysis, t, lhs, rhs, analysis.tolerance(tol), False, t0, extra
    )


def check_orlicz_equality(analysis: Analysis, tol: Optional[float] = None) -> IneqReport:
    """Change-of-variables identity tested as an equality over the hinge
    family: for each of ``HINGE_GRID_SIZE`` thresholds c evenly spaced on
    [0, sup of the surrogate], the uniform-grid integral of
    (surrogate - c)+ must match the Gaussian-grid integral of
    (|grad of the symmetrized field| - c)+.

    Both sides are hinge integrals of rearranged (already sorted)
    profiles, evaluated by prefix sums."""
    t0 = time.perf_counter()
    c_grid = np.linspace(0.0, analysis.surr_prof.sup, HINGE_GRID_SIZE)
    lhs = hinge_integrals(analysis.surr_prof, c_grid)
    rhs = hinge_integrals(analysis.sym_grad_prof, c_grid)
    return _finish(
        "orlicz", analysis, c_grid, lhs, rhs, analysis.tolerance(tol), True, t0,
        {"c_max": float(c_grid[-1])},
    )


# checks whose violation a refinement study follows across grid sizes
CONVERGENT_TOKENS = ("uno", "dos", "mt")


def convergence_study(analysis: Analysis, tokens: Sequence[str]) -> list[IneqReport]:
    """Refinement study: rerun checks over increasing per-axis cell counts
    and fit the empirical decay order of the positive violations.

    The checks studied are the convergent ones among the check tokens
    ``tokens`` (``CONVERGENT_TOKENS``), or ``uno`` if none is.
    ``analysis``, of N cells per axis, is the finest rung; below it come
    rungs of N/16 and N/4 cells per axis, each at least 2 and below N:
    grids of the same dimension, analysed with the same field and M, one
    analysis per rung for every check studied.

    Violations must not increase along refinement beyond a factor-1.5
    slack; violations at or below the round-off floor count as converged,
    and fewer than two positive entries give order +inf.

    Returns one ``converge:<check>[N=n]`` row per check and rung, rungs
    ascending within each check: the rung's own row of the check,
    relabelled, so it keeps its violation, N, M and check time.  The rows
    of a check share its verdict, its order (``extra["empirical_order"]``)
    and, as their tolerance, its worst violation (at least
    ``VIOLATION_FLOOR``), so the schema stays numeric.
    """
    grid, N = analysis.grid, analysis.grid.cells_per_axis
    checks = [t for t in tokens if t in CONVERGENT_TOKENS] or ["uno"]
    Ns = [n for n in sorted({max(2, N // 16), max(2, N // 4)}) if n < N] + [N]
    rungs = [
        analyze(analysis.field, equal_measure_grid(grid.dim, n), analysis.M, checks)
        for n in Ns[:-1]
    ] + [analysis]
    rows = []
    for name in checks:
        run = CHECKS[name]
        reports = [run(a, tol=None, equality=False)[0] for a in rungs]
        violations = [r.max_violation for r in reports]
        positive = [max(v, 0.0) for v in violations]
        nonincreasing = all(
            later <= max(1.5 * earlier, VIOLATION_FLOOR)
            for earlier, later in zip(positive, positive[1:])
        )
        fit_pts = [
            (math.log(n), math.log(v)) for n, v in zip(Ns, positive) if v > VIOLATION_FLOOR
        ]
        if len(fit_pts) < 2:
            order = math.inf
        else:
            xs, ys = zip(*fit_pts)
            order = -float(np.polyfit(xs, ys, 1)[0])
        worst = max(max(violations), VIOLATION_FLOOR)
        rows += [replace(
            r, check_name=f"converge:{name}[N={r.N}]", s_grid=np.array([1.0]),
            lhs_curve=np.array([r.max_violation]), rhs_curve=np.array([0.0]),
            tolerance=worst, passed=nonincreasing, extra={"empirical_order": order},
        ) for r in reports]
    return rows


# check token -> the report rows it yields from one analysis; each entry
# names the options of ``run_checks`` that it reads
CHECKS = {
    "uno": lambda a, tol, equality, **_: [check_reformulated(a, equality, tol)],
    "dos": lambda a, tol, equality, **_: [check_polya_szego(a, equality, tol)],
    "norm": lambda a, tol, norms, **_: check_norm_inequality(a, norms, tol),
    "mt": lambda a, tol, **_: [check_mazya_talenti(a, tol)],
    "interval": lambda a, tol, intervals, **_: [check_interval_bound(a, intervals, tol)],
    "orlicz": lambda a, tol, **_: [check_orlicz_equality(a, tol)],
    "converge": lambda a, tol, tokens, **_: [
        row if tol is None else replace(row, tolerance=tol)
        for row in convergence_study(a, tokens)
    ],
}


def require_known(tokens: Sequence[str]):
    """DomainError naming the valid tokens if some of ``tokens`` is not a
    check token."""
    unknown = [t for t in tokens if t not in CHECKS]
    if unknown:
        raise DomainError(f"unknown checks {unknown}; choose from {','.join(CHECKS)}")


def run_checks(
    analysis: Analysis,
    tokens: Sequence[str],
    *,
    tol: Optional[float] = None,
    equality: bool = False,
    norms: Sequence[RINorm] = DEFAULT_NORM_FAMILY,
    intervals=None,
) -> list[IneqReport]:
    """The report rows of the checks ``tokens`` name, in order, all read
    from one analysis.  ``tol`` overrides every check's tolerance,
    ``equality`` makes uno and dos two-sided, ``norms`` is the family the
    norm check runs, and ``intervals`` the union the interval check needs."""
    require_known(tokens)
    options = dict(tol=tol, equality=equality, norms=norms, intervals=intervals, tokens=tokens)
    return [row for token in tokens for row in CHECKS[token](analysis, **options)]
