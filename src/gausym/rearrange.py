"""Decreasing step profiles on (0, 1] and the sorts that build them.

A Profile is the nonincreasing right-continuous step function on (0, 1]
given by sorted values and the knots between their pieces; its
super-level measures are the distribution function of whatever it
rearranges.  A GridCurve holds raw samples on a uniform grid (the
surrogate) that need not be monotone and becomes a Profile only once its
values are sorted.  Sampling a field and sorting |f| and |grad f| into
profiles is done once per run, by ``verify.Analysis``; this module knows
nothing of fields or grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, WeightSumError

_KNOT_SNAP = 1e-12


def _frozen(x) -> np.ndarray:
    """``x`` as a read-only float array: itself when it already is one that
    owns its data, otherwise a read-only copy."""
    arr = np.asarray(x, dtype=float)
    if arr.flags.writeable or not arr.flags.owndata:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


def uniform_knots(n: int) -> np.ndarray:
    """The knots k/n, k = 0..n, of n pieces of width 1/n, read-only."""
    knots = np.arange(n + 1, dtype=float)
    knots /= n
    knots.setflags(write=False)
    return knots


@dataclass(frozen=True)
class Profile:
    """Nonincreasing step function on (0, 1].

    ``values[k]`` is taken on the half-open interval (knots[k], knots[k+1]];
    evaluation at 0 returns the right limit values[0].  Construction
    asserts the monotonicity invariant, snapping violations within
    round-off and rejecting anything larger.

    Both arrays are stored read-only.  An array that is already read-only
    and owns its data is shared, not copied, so profiles on the same knots
    (the analysis' equal-width ``uniform_knots``) hold one knot array; any
    other input is copied, so a caller that later writes to its own array
    does not change the profile.  ``prefix_mass`` and ``widths`` are
    computed once, on first use, so the r.i. norms, which read the widths
    on every call, do not each allocate and fault in a fresh array.
    """

    knots: np.ndarray  # length K+1, knots[0] = 0, knots[-1] = 1, increasing
    values: np.ndarray  # length K, nonincreasing

    def __post_init__(self):
        knots = _frozen(self.knots)
        values = _frozen(self.values)
        if knots.ndim != 1 or values.ndim != 1 or len(knots) != len(values) + 1:
            raise DomainError("profile needs K+1 knots for K values")
        if len(values) == 0:
            raise DomainError("profile needs at least one piece")
        if abs(knots[0]) > _KNOT_SNAP or abs(knots[-1] - 1.0) > _KNOT_SNAP:
            raise DomainError("profile knots must start at 0 and end at 1")
        if knots[0] != 0.0 or np.signbit(knots[0]) or knots[-1] != 1.0:
            knots = knots.copy()
            knots[0] = 0.0
            knots[-1] = 1.0
            knots.setflags(write=False)
        if np.any(knots[1:] <= knots[:-1]):
            raise DomainError("profile knots must be strictly increasing")
        # max |value| without a profile-sized temporary; NaN propagates
        scale = 1.0 + float(np.maximum(abs(values.max()), abs(values.min())))
        if math.isnan(scale):
            raise DomainError("profile values must not be NaN")
        if np.any(values[1:] > values[:-1]):
            if np.any(np.diff(values) > _KNOT_SNAP * scale):
                raise DomainError("profile values must be nonincreasing")
            values = np.minimum.accumulate(values)
            values.setflags(write=False)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    @property
    def num_pieces(self) -> int:
        return len(self.values)

    @cached_property
    def widths(self) -> np.ndarray:
        widths = np.diff(self.knots)
        widths.setflags(write=False)
        return widths

    @cached_property
    def prefix_mass(self) -> np.ndarray:
        """Integral of the step function over (0, knots[k]], k = 0..K."""
        mass = np.empty(len(self.knots))
        mass[0] = 0.0
        tail = mass[1:]
        np.subtract(self.knots[1:], self.knots[:-1], out=tail)
        tail *= self.values
        np.cumsum(tail, out=tail)
        mass.setflags(write=False)
        return mass

    @property
    def sup(self) -> float:
        return float(self.values[0])

    def __call__(self, s) -> np.ndarray:
        s_arr = np.asarray(s, dtype=float)
        idx = np.searchsorted(self.knots, s_arr, side="left") - 1
        idx = np.clip(idx, 0, self.num_pieces - 1)
        out = self.values[idx]
        return out if s_arr.ndim else float(out)

    def cumulative(self, t) -> np.ndarray:
        """Exact integral over (0, t] of the step function."""
        t_arr = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.knots, t_arr, side="left") - 1, 0, self.num_pieces - 1)
        out = self.prefix_mass[idx] + self.values[idx] * (t_arr - self.knots[idx])
        return out if t_arr.ndim else float(out)

    def total_integral(self) -> float:
        return float(np.sum(self.values * self.widths))

    def super_level_measure(self, level: float) -> float:
        """Lebesgue measure of {s : profile(s) > level}; exact on knot data."""
        count = np.searchsorted(-self.values, -level, side="left")
        return float(self.knots[count])

    def scaled(self, factor: float) -> "Profile":
        if factor < 0:
            raise DomainError("scaling factor must be nonnegative")
        return Profile(self.knots, self.values * factor)

    @classmethod
    def constant(cls, c: float) -> "Profile":
        return cls(np.array([0.0, 1.0]), np.array([abs(float(c))]))


@dataclass(frozen=True)
class GridCurve:
    """Samples of a function at midpoints (j+1/2)/M of a uniform grid."""

    s: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if s.shape != values.shape or s.ndim != 1:
            raise DomainError("grid curve needs matching 1-d s and values")
        s.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return len(self.s)

    def cumulative(self, t) -> np.ndarray:
        """Integral over (0, t] of the bin-constant extension of the samples."""
        m = self.size
        edges = np.arange(m + 1) / m
        cum = np.concatenate(([0.0], np.cumsum(self.values) / m))
        t_arr = np.asarray(t, dtype=float)
        out = np.interp(t_arr, edges, cum)
        return out if t_arr.ndim else float(out)


def lebesgue_rearrangement(samples) -> Profile:
    """Decreasing rearrangement of weighted samples on (0, 1).

    ``samples`` is a sequence of (weight, value) pairs; weights must be
    positive and sum to 1 within 1e-12.
    """
    arr = np.asarray(list(samples) if not isinstance(samples, np.ndarray) else samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise WeightSumError("samples must be nonempty (weight, value) pairs")
    weights, values = arr[:, 0], arr[:, 1]
    # written so that NaN weights fail both tests
    if not np.all(weights > 0.0):
        raise WeightSumError("weights must be positive")
    total = float(np.sum(weights))
    if not abs(total - 1.0) <= 1e-12:
        raise WeightSumError(f"weights sum to {total!r}, expected 1 within 1e-12")
    order = np.argsort(-values, kind="stable")  # ties keep input order
    knots = np.concatenate(([0.0], np.cumsum(weights[order])))
    knots[-1] = 1.0
    return Profile(knots, values[order])


def derivative_bin_count(p: Profile, M: int, min_block: int = 1) -> int:
    """Largest derivative-grid size <= M whose bins average over at least
    two value blocks of the profile.

    Sorted |f| values cluster in blocks: symmetric fields tie in exact
    pairs, fields constant along extra axes tie in whole columns, and on
    a dim-dimensional grid a level set of a smooth field crosses about
    one shell of cells, so ``min_block`` should be the shell size
    N^(dim-1).  Difference quotients on bins finer than a block alternate
    between zero and spikes.
    """
    K = p.num_pieces
    # levels an ulp apart (imperfect float symmetry of mirrored cells)
    # count as tied
    tol = 1e-12 * (1.0 + abs(float(p.values[0])))
    distinct = 1 + int(np.count_nonzero(np.diff(p.values) < -tol))
    block = max(K / distinct, float(min_block))
    divisor = 1 if block < 1.5 else int(np.ceil(2.0 * block))
    return max(8, min(M, K // divisor))
