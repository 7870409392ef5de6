"""Decreasing step profiles on (0, 1] and the sorts that build them.

A Profile is the nonincreasing right-continuous step function on (0, 1]
given by sorted values and the knots between their pieces, or, for
pieces of equal width, by the values alone; its super-level measures
are the distribution function of whatever it rearranges.  Sampling a
field and sorting |f| and |grad f| into profiles is done once per run,
by ``verify.Analysis``; this module knows nothing of fields or grids.
"""

from __future__ import annotations

import math
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
# (``gaussian.BLOCK_CELLS`` gives what that costs).  A running sum takes
# its blocks a whole number of ``SUM_CHUNK`` chunks long, and its bits do
# not depend on this size.
PASS_BLOCK = 16384

# Elements per chunk of a running sum (``running_sum_at``): each chunk is
# summed pairwise and the chunk sums are carried serially, so the
# round-off grows with K / SUM_CHUNK, where a serial cumsum's grows with
# K.  A read inside a chunk sums that chunk again up to itself.  On 1.95M
# doubles read at 4096 points (12288) the running sum took 2.4 (3.1) ms in
# chunks of 64, 2.0 (2.7) in chunks of 256 and 2.4 (5.1) in chunks of
# 2048, against 5.9 ms for one whole-array cumsum (x86-64 Linux,
# numpy 2.4).
SUM_CHUNK = 256


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


def uniform_piece(t, n: int, side: str = "left"):
    """``np.searchsorted(uniform_knots(n), t, side) - 1`` clipped into
    0..n-1, the same integers, without the knot array: the piece of n
    equal ones that holds each t, (k/n, (k+1)/n] on the left side and
    [k/n, (k+1)/n) on the right.

    The count of knots below t (or at most t) is ceil(t n) up to one
    either way, and one step against the knots k/n either side makes it
    exact."""
    t = np.asarray(t, dtype=float)
    counted = np.less if side == "left" else np.less_equal
    k = np.ceil(t * n)
    k += counted(k / n, t)
    k -= ~counted((k - 1.0) / n, t)
    # fmin and fmax take a NaN t to the last piece, as searchsorted does
    return np.fmax(np.fmin(k, n), 1.0).astype(np.intp) - 1


class Profile:
    """Nonincreasing step function on (0, 1].

    ``values[k]`` is taken on the half-open interval (knots[k], knots[k+1]];
    evaluation at 0 returns the right limit values[0].

    ``Profile(knots, values)`` stores both arrays read-only and asserts
    the monotonicity invariant, snapping violations within round-off and
    rejecting anything larger.  An array that is already read-only and
    owns its data is shared, not copied; any other input is copied, so a
    caller that later writes to its own array does not change the
    profile.  Its ``widths`` are computed once, on first use, so the r.i.
    norms, which read the widths on every call, do not each allocate and
    fault in a fresh array.

    ``Profile.equal_width(values)`` stores the values alone: its n pieces
    have the scalar width 1/n, and every lookup of its knots k/n computes
    them, with the bits of ``uniform_knots(n)``.  Its ``knots`` property
    builds that array afresh on each read, for the few readers that want
    it.  Neither form keeps a prefix of the integral: ``cumulative`` reads
    it off a running sum (``running_sum_at``).
    """

    def __init__(self, knots, values):
        knots = _frozen(knots)
        values = _frozen(values)
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
        self._knots = knots
        self.values = values

    @classmethod
    def equal_width(cls, values: np.ndarray) -> "Profile":
        """The profile of len(values) pieces of equal width on values its
        caller has just built, taken as they are: read-only, nonincreasing
        and NaN-free.  The constructor would scan them again, with a
        temporary of their size.  ``verify.Analysis`` builds its four
        profiles this way: ``p``, ``grad_prof``, ``surr_prof`` and
        ``sym_grad_prof``; ``scaled`` keeps a profile of this form in it."""
        profile = object.__new__(cls)
        profile._knots = None
        profile.values = values
        return profile

    @property
    def num_pieces(self) -> int:
        return len(self.values)

    @property
    def knots(self) -> np.ndarray:
        """The K+1 knots, read-only; built on each read for an equal-width
        profile."""
        return uniform_knots(self.num_pieces) if self._knots is None else self._knots

    def knot(self, k):
        """knots[k], for an index or an integer array of them."""
        return k / self.num_pieces if self._knots is None else self._knots[k]

    @property
    def widths(self):
        """The pieces' widths: the scalar 1/n for an equal-width profile."""
        return 1.0 / self.num_pieces if self._knots is None else self._knot_widths

    @cached_property
    def _knot_widths(self) -> np.ndarray:
        widths = np.diff(self._knots)
        widths.setflags(write=False)
        return widths

    @property
    def sup(self) -> float:
        return float(self.values[0])

    def _piece(self, t: np.ndarray):
        """The piece (knots[k], knots[k+1]] holding each t, clipped into
        0..K-1."""
        if self._knots is None:
            return uniform_piece(t, self.num_pieces)
        return np.clip(np.searchsorted(self._knots, t, side="left") - 1, 0, self.num_pieces - 1)

    def __call__(self, s) -> np.ndarray:
        s_arr = np.asarray(s, dtype=float)
        out = self.values[self._piece(s_arr)]
        return out if s_arr.ndim else float(out)

    def masses(self, start: int, stop: int) -> np.ndarray:
        """The masses, value times width, of pieces start..stop-1, as a
        fresh array."""
        if self._knots is None:
            return self.values[start:stop] * self.widths
        run = self._knots[start + 1:stop + 1] - self._knots[start:stop]
        run *= self.values[start:stop]
        return run

    def cumulative(self, t) -> np.ndarray:
        """Exact integral over (0, t] of the step function.

        The integral up to the knot below each t is read off one running
        sum of the pieces' masses, up to the largest knot read; no array
        of the profile's size is kept."""
        t_arr = np.asarray(t, dtype=float)
        idx = self._piece(t_arr)
        mass = running_sum_at(self.masses, np.ravel(idx)).reshape(np.shape(idx))
        out = mass + self.values[idx] * (t_arr - self.knot(idx))
        return out if t_arr.ndim else float(out)

    def super_level_measure(self, level: float) -> float:
        """Lebesgue measure of {s : profile(s) > level}; exact on knot data."""
        return float(self.knot(np.searchsorted(-self.values, -level, side="left")))

    def scaled(self, factor: float) -> "Profile":
        """The profile times ``factor`` >= 0, on the same knots: an
        equal-width profile stays one."""
        if factor < 0:
            raise DomainError("scaling factor must be nonnegative")
        if self._knots is not None:
            return Profile(self._knots, self.values * factor)
        # a nonnegative factor keeps the values nonincreasing; a NaN factor,
        # or 0 times an infinite value, makes a NaN that max propagates
        values = self.values * factor
        if math.isnan(values.max()):
            raise DomainError("profile values must not be NaN")
        values.setflags(write=False)
        return Profile.equal_width(values)


def running_sum_at(increments, at: np.ndarray) -> np.ndarray:
    """The running sums S[j] of a sequence, the sum of its elements
    0..j-1, at the indices ``at``, in any order and with repeats.

    The sequence is cut into chunks of ``SUM_CHUNK`` elements.  S[j] is
    the serial sum, from -0.0, of the pairwise sums of the chunks before
    j's, plus the pairwise sum of j's own chunk up to j; S[0] is +0.0.  A
    pairwise sum is that of ``np.add.reduceat``.  So S[j] depends on the
    sequence and j alone, not on the other indices read nor on
    ``PASS_BLOCK``, and chunks of one element give the bits of one
    whole-array cumsum.

    ``increments(start, stop)`` returns elements start..stop-1 as a fresh
    array.  It is called in order, a block of whole chunks, about
    ``PASS_BLOCK`` elements, at a time, up to the largest index read, and
    no array of the sequence's length is built.
    """
    reads, inverse = np.unique(at, return_inverse=True)
    last = int(reads[-1]) if reads.size else 0
    if last == 0:
        return np.zeros(at.size)
    chunk, offset = np.divmod(reads, SUM_CHUNK)
    inside = np.flatnonzero(offset)
    # a read inside a chunk adds the pairwise sum of that chunk from its
    # start up to the read: segments of np.add.reduceat between these cuts,
    # every other one discarded
    cuts = np.stack((chunk[inside] * SUM_CHUNK, reads[inside]), axis=-1).ravel()
    step = SUM_CHUNK * max(1, PASS_BLOCK // SUM_CHUNK)
    # each chunk, and with it each read's cuts, lies in one block
    bounds = 2 * np.searchsorted(cuts[::2], np.arange(0, last + step, step))
    sums, partial = [], []
    for k, start in enumerate(range(0, last, step)):
        stop = min(start + step, last)
        run = increments(start, stop)
        sums.append(np.add.reduceat(run, np.arange(0, stop - start, SUM_CHUNK)))
        block_cuts = cuts[bounds[k]:bounds[k + 1]] - start
        if block_cuts.size:
            if block_cuts[-1] == stop - start:  # that segment runs to the block's end
                block_cuts = block_cuts[:-1]
            partial.append(np.add.reduceat(run, block_cuts)[::2])
    # the serial carry before each chunk, from -0.0: x + -0.0 is x, -0.0 included
    carry = np.concatenate(([-0.0], *sums))
    np.cumsum(carry, out=carry)
    found = carry[chunk]
    if partial:
        found[inside] += np.concatenate(partial)
    if reads[0] == 0:
        found[0] = 0.0
    return found[inverse]


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


def derivative_bin_count(drops: np.ndarray, top: float, M: int, min_block: int) -> int:
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
    # count as tied; the floor is relative to the top, so that the count
    # does not depend on the field's units
    tol = 1e-12 * abs(float(top))
    distinct = 1 + int(np.count_nonzero(drops > tol))
    block = max(K / distinct, float(min_block))
    divisor = 1 if block < 1.5 else int(np.ceil(2.0 * block))
    return max(8, min(M, K // divisor))
