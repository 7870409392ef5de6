"""Decreasing step profiles on (0, 1] and the sorts that build them.

A Profile is the nonincreasing right-continuous step function on (0, 1]
given by sorted values and the knots between their pieces; its
super-level measures are the distribution function of whatever it
rearranges.  Sampling a field and sorting |f| and |grad f| into
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

# Elements per block of a running sum over a sorted grid-sized array (a
# profile's cumulative, the analysis' cumulatives of |grad f| in level
# order and of the surrogate) and of the Gaussian kernels behind
# ``Phi_inv`` and ``iso_profile``.  Each block costs a few Python-level
# steps: the surrogate of a 125^3 grid took about 131 ms in blocks of
# 4096 and 74 ms in blocks of 16384, against 88 ms as one whole-array
# build, and ``iso_profile`` on its 125^3 midpoints, whose blocks mostly
# take the central fast path, 74-82 ms in blocks of 4096 against 49-55 ms
# in blocks of 16384 or 65536 (x86-64 Linux, numpy 2.4).  A float64
# temporary of a block is 128 KiB, glibc's default mmap threshold
# (``gaussian.BLOCK_CELLS`` gives what that costs).
PASS_BLOCK = 16384


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
    does not change the profile.  ``widths`` are computed once, on first
    use, so the r.i. norms, which read the widths on every call, do not
    each allocate and fault in a fresh array.  No prefix of the integral
    is kept: ``cumulative`` reads it off a running sum taken
    ``PASS_BLOCK`` pieces at a time.
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

    @classmethod
    def _trusted(cls, knots: np.ndarray, values: np.ndarray) -> "Profile":
        """A profile on arrays its caller has just built, taken as they
        are: read-only ``uniform_knots`` and nonincreasing NaN-free values.
        ``__post_init__`` would scan both again, each time with a
        temporary of their size; only ``verify.Analysis`` calls this."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "knots", knots)
        object.__setattr__(profile, "values", values)
        return profile

    @property
    def num_pieces(self) -> int:
        return len(self.values)

    @cached_property
    def widths(self) -> np.ndarray:
        widths = np.diff(self.knots)
        widths.setflags(write=False)
        return widths

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
        """Exact integral over (0, t] of the step function.

        The integral up to the knot below each t is read off one running
        sum of the pieces' masses, up to the largest knot read, with the
        bits of a whole-array cumsum; no array of the profile's size is
        kept."""
        knots, values = self.knots, self.values
        t_arr = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(knots, t_arr, side="left") - 1, 0, self.num_pieces - 1)

        def masses(start, stop):
            run = knots[start + 1:stop + 1] - knots[start:stop]
            run *= values[start:stop]
            return run

        mass = running_sum_at(masses, idx.ravel()).reshape(idx.shape)
        out = mass + values[idx] * (t_arr - knots[idx])
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


def running_sum_at(increments, at: np.ndarray) -> np.ndarray:
    """The running sums S[j] of a sequence, the sum of its elements
    0..j-1, at the indices ``at``, in any order and with repeats.

    ``increments(start, stop)`` returns elements start..stop-1 as a fresh
    array, and is called ``PASS_BLOCK`` elements at a time, in order, up
    to the largest index read.  Each block's carry is added to its first
    element before its in-place cumsum, so every S[j] has the bits of one
    whole-array cumsum, and no array of the sequence's length is built.
    """
    order = np.argsort(at, kind="stable")
    at = at[order]
    out = np.zeros(at.size)
    total = -0.0  # x + -0.0 is x for every x, -0.0 included
    last = int(at.max(initial=0))
    for start in range(0, last, PASS_BLOCK):
        stop = min(start + PASS_BLOCK, last)
        run = increments(start, stop)
        run[0] += total
        np.cumsum(run, out=run)  # run[i] = S[start + 1 + i]
        lo, hi = np.searchsorted(at, (start, stop), side="right")
        out[order[lo:hi]] = run[at[lo:hi] - start - 1]
        total = run[-1]
    return out


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


def derivative_bin_count(drops: np.ndarray, top: float, M: int, min_block: int = 1) -> int:
    """Largest derivative-grid size <= M whose bins average over at least
    two value blocks of a profile, given its K - 1 drops
    ``values[:-1] - values[1:]`` and its largest value ``top``.

    Sorted |f| values cluster in blocks: symmetric fields tie in exact
    pairs, fields constant along extra axes tie in whole columns, and on
    a dim-dimensional grid a level set of a smooth field crosses about
    one shell of cells, so ``min_block`` should be the shell size
    N^(dim-1).  Difference quotients on bins finer than a block alternate
    between zero and spikes.
    """
    K = drops.size + 1
    # levels an ulp apart (imperfect float symmetry of mirrored cells)
    # count as tied
    tol = 1e-12 * (1.0 + abs(float(top)))
    distinct = 1 + int(np.count_nonzero(drops > tol))
    block = max(K / distinct, float(min_block))
    divisor = 1 if block < 1.5 else int(np.ceil(2.0 * block))
    return max(8, min(M, K // divisor))
