"""Profiles, distribution functions and rearrangements: the value sort
and the profiles an analysis builds."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausym import (
    DomainError,
    Phi,
    Phi_inv,
    Profile,
    RINorm,
    analyze,
    builtin_field,
    equal_measure_grid,
    parse_field,
    ri_norm,
)
from gausym import rearrange
from gausym.rearrange import (
    PASS_BLOCK,
    SUM_CHUNK,
    derivative_bin_count,
    running_sum_at,
    uniform_knots,
    uniform_piece,
)

from conftest import (
    assert_same_bits,
    constant_profile,
    cumulative_reference,
    jet_at,
    random_profile,
    rearrangement,
    representatives,
    sort_decreasing,
)

HALVES = Profile(np.array([3.0, 1.0]))


class TestProfile:
    def test_evaluation(self):
        assert HALVES(0.0) == 3.0  # right limit
        assert HALVES(0.25) == 3.0
        assert HALVES(0.5) == 3.0  # right-continuity convention: value on (0, 0.5]
        assert HALVES(0.7) == 1.0
        assert HALVES(1.0) == 1.0

    def test_cumulative(self):
        assert HALVES.cumulative(0.5) == 1.5
        assert HALVES.cumulative(0.75) == 1.75
        assert HALVES.cumulative(1.0) == 2.0

    def test_super_level_measure(self):
        assert HALVES.super_level_measure(2.0) == 0.5
        assert HALVES.super_level_measure(0.5) == 1.0
        assert HALVES.super_level_measure(3.0) == 0.0

    @pytest.mark.parametrize("values,match", [
        ([1.0, 3.0], "nonincreasing"),
        # an increase of 3e-12 against the snap's 1e-12 * (1 + max |value|)
        ([1.0, 1.0 + 3e-12], "nonincreasing"),
        ([np.nan, 1.0], "NaN"),
        ([1.0, np.nan], "NaN"),
        ([np.nan, np.inf, np.inf], "NaN"),
        ([], "1-d"),
        (3.0, "1-d"),
        ([[3.0, 1.0], [1.0, 0.0]], "1-d"),
    ], ids=["increasing", "past-the-snap", "nan-first", "nan-last", "nan-then-inf", "empty",
            "0-d", "2-d"])
    def test_refusals_on_values(self, values, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=match):
                Profile(np.array(values, dtype=float))

    def test_roundoff_snapped(self):
        p = Profile(np.array([1.0, 1.0 + 1e-15]))
        assert np.all(np.diff(p.values) <= 0)
        assert not p.values.flags.writeable

    def test_caller_arrays_copied_unless_read_only(self):
        values = np.array([3.0, 1.0])
        p = Profile(values)
        values[0] = 7.0
        assert_same_bits(p.values, np.array([3.0, 1.0]))
        assert not p.values.flags.writeable
        # a read-only array that owns its data is shared, a read-only view is not
        values.setflags(write=False)
        assert Profile(values).values is values
        assert Profile(values[:]).values is not values
        assert_same_bits(Profile([3, 1]).values, np.array([3.0, 1.0]))

    def test_width_is_one_over_n(self):
        for n in (1, 2, 3, 125**3):
            p = Profile.equal_width(np.zeros(n))
            assert p.widths == 1.0 / n and isinstance(p.widths, float)
            assert p.knot(n) == 1.0 and p.knot(np.array([0, 1]))[1] == 1.0 / n

    @pytest.mark.parametrize("block", [1, 3, 64, PASS_BLOCK])
    def test_cumulative_matches_whole_array_cumsum(self, block, monkeypatch):
        """The cumulative, read off a running sum ``block`` pieces at a
        time in chunks of 1, has the bits of one whole-array cumsum, on
        random profiles of repeated levels, and the profile caches nothing
        of it."""
        monkeypatch.setattr(rearrange, "PASS_BLOCK", block)
        monkeypatch.setattr(rearrange, "SUM_CHUNK", 1)
        rng = np.random.default_rng(block)
        for max_pieces in (8, 64, 300):
            p = random_profile(rng, max_pieces)
            knots = p.knots
            between = 0.5 * (knots[1:] + knots[:-1])
            unsorted = np.concatenate((between[::-3], knots[::2], [1.0, 0.0, knots[2], 1.0]))
            for t in (0.0, knots, between, 1.0, unsorted, np.float64(knots[3]),
                      np.array(between[-2]), np.empty(0), np.tile(between[:2], (3, 1))):
                got = p.cumulative(t)
                ref = cumulative_reference(p, t)
                if np.ndim(t) == 0:
                    assert isinstance(got, float)
                    got, ref = np.array(got), np.array(ref)
                assert_same_bits(got, ref)
            assert vars(p).keys() == {"values"}

    def test_equal_width_keeps_no_knots(self):
        values = np.array([3.0, 2.0, 2.0, 0.5, 0.0])
        values.setflags(write=False)
        p, ref = Profile.equal_width(values), Profile(values)
        assert p.values is values and ref.values is values and p.widths == 0.2
        assert_same_bits(p.knots, uniform_knots(5))
        assert not p.knots.flags.writeable and p.knots is not p.knots
        s = np.concatenate((p.knots, np.nextafter(p.knots, -1.0), [0.3, 0.9]))
        on_knots = [3.0, 3.0, 2.0, 2.0, 0.5, 0.0]  # right-continuous: (k/5, (k+1)/5]
        assert_same_bits(p(s), np.array(on_knots + on_knots + [2.0, 0.0]))
        for level, measure in ((3.0, 0.0), (2.5, 0.2), (2.0, 0.2), (1.0, 0.6), (0.0, 0.8),
                               (-1.0, 1.0)):
            assert p.super_level_measure(level) == measure
        assert vars(p) == {"values": values}

    def test_scaled_equal_width_profile_stays_equal_width(self):
        """Scaling a profile keeps no knot array, and gives the bits of the
        profile of the scaled values, also at 125^3 pieces, where
        np.diff(k/n) is not 1/n.  A negative factor and NaN values are
        refused."""
        values = np.sort(np.random.default_rng(3).gamma(2.0, 1.0, 125**3))[::-1]
        values.setflags(write=False)
        p = Profile.equal_width(values)
        got, ref = p.scaled(0.5), Profile.equal_width(np.ldexp(values, -1))
        assert vars(got).keys() == {"values"}
        t = np.linspace(0.0, 1.0, 4097)
        assert_same_bits(got.cumulative(t), ref.cumulative(t))
        for X in (RINorm("marcinkiewicz", 2.0), RINorm("lp", 1.5)):
            assert ri_norm(got, X) == ri_norm(ref, X), X.label
        with pytest.raises(DomainError, match="nonnegative"):
            p.scaled(-1.0)
        with pytest.raises(DomainError, match="NaN"):
            p.scaled(math.nan)
        top = np.array([np.inf, 1.0])
        top.setflags(write=False)
        with pytest.raises(DomainError, match="NaN"), np.errstate(invalid="ignore"):
            Profile.equal_width(top).scaled(0.0)


class TestDistributionFunction:
    """The Gaussian measure of {|f| > level} is the super-level measure of
    the decreasing rearrangement."""

    def test_full_mass(self):
        grid = equal_measure_grid(1, 512)
        coord = builtin_field("coordinate")
        assert rearrangement(coord, grid).super_level_measure(0.0) == 1.0

    def test_coordinate_level_one(self):
        grid = equal_measure_grid(1, 4096)
        coord = builtin_field("coordinate")
        # mpmath: 2*(1 - Phi(1)) = 0.31731050786291410283
        assert rearrangement(coord, grid).super_level_measure(1.0) == pytest.approx(
            0.3173105078629141, abs=3.0 / 4096
        )

    def test_above_max(self):
        grid = equal_measure_grid(1, 128)
        coord = builtin_field("coordinate")
        top = np.abs(jet_at(coord, representatives(grid))[0]).max()
        assert rearrangement(coord, grid).super_level_measure(top + 1.0) == 0.0

    def test_nonincreasing_in_level(self):
        grid = equal_measure_grid(1, 256)
        p = rearrangement(builtin_field("mixture"), grid)
        levels = np.linspace(0.0, 2.0, 40)
        vals = [p.super_level_measure(lam) for lam in levels]
        assert np.all(np.diff(vals) <= 0)

    def test_matches_profile_super_level(self):
        # the cell count of {|f| > lam} on the grid equals the Lebesgue
        # measure of the profile's super-level set, exactly on grid data
        grid = equal_measure_grid(1, 256)
        field = builtin_field("poly_tanh")
        vals = np.abs(jet_at(field, representatives(grid))[0])
        p = rearrangement(field, grid)
        for lam in (0.0, 0.1, 0.4, 0.73, 2.0):
            counted = np.count_nonzero(vals > lam) * grid.cell_measure
            assert counted == p.super_level_measure(lam)


class TestDecreasingRearrangement:
    def test_constant_field(self):
        grid = equal_measure_grid(1, 64)
        const = parse_field("2.5", 1)
        p = rearrangement(const, grid)
        assert np.all(p.values == 2.5)

    def test_indicator_like(self):
        grid = equal_measure_grid(1, 2048)
        f = builtin_field("halfspace_indicator_smooth", {"a": 0.3, "width": 0.01})
        p = rearrangement(f, grid)
        split = Phi(0.3)
        assert p(split - 0.05) > 0.99
        assert p(split + 0.05) < 0.01

    def test_coordinate_closed_form(self):
        for n in (1024, 4096):
            grid = equal_measure_grid(1, n)
            p = rearrangement(builtin_field("coordinate"), grid)
            s = np.linspace(0.25, 0.9, 500)
            assert np.max(np.abs(p(s) - Phi_inv(1 - s / 2))) <= 3.0 / n

    def test_relabeling_invariance(self):
        # measure-preserving relabeling of cells leaves the profile unchanged
        grid = equal_measure_grid(1, 256)
        field = builtin_field("gaussian_bump")
        p = rearrangement(field, grid)
        vals = np.abs(jet_at(field, representatives(grid))[0])
        rng = np.random.default_rng(3)
        shuffled = vals[rng.permutation(len(vals))]
        q = Profile(sort_decreasing(shuffled))
        assert np.array_equal(p.values, q.values)
        assert np.array_equal(p.knots, q.knots)


class TestEqualWeightSort:
    """The analysis sorts equal-measure cells by value; the sort must give
    the stable argsort's order bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.nan, np.inf, -np.inf]),
                st.floats(allow_nan=False),
            ),
            min_size=1,
            max_size=200,
        )
    )
    def test_matches_stable_argsort(self, vals):
        values = np.array(vals)
        ref = values[np.argsort(-values, kind="stable")]
        assert_same_bits(sort_decreasing(values), ref)

    def test_signed_zeros_keep_input_order(self):
        values = np.array([-0.0, 0.0, 1.0] * 400 + [0.0, -0.0])
        ref = values[np.argsort(-values, kind="stable")]
        assert_same_bits(sort_decreasing(values), ref)

    def test_holds_one_array_of_the_output_size(self):
        values = np.random.default_rng(5).random(2**20)
        tracemalloc.start()
        try:
            out = sort_decreasing(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.nbytes


def chunked_running_sums(x: np.ndarray, chunk: int, at) -> np.ndarray:
    """``running_sum_at``'s rule written out: S[0] = +0.0, and S[j] the
    serial sum, from -0.0, of the pairwise sums of the whole chunks before
    j, plus that of j's own chunk up to j; a pairwise sum is that of
    ``np.add.reduceat`` over one segment."""
    carry = [-0.0]  # before each chunk
    for k in range(int(np.max(at, initial=0)) // chunk):
        carry.append(carry[-1] + np.add.reduceat(x[k * chunk:(k + 1) * chunk], [0])[0])
    out = []
    for j in at:
        q, r = divmod(int(j), chunk)
        s = carry[q] if j else 0.0
        if r:
            s += np.add.reduceat(x[q * chunk:j], [0])[0]
        out.append(s)
    return np.array(out, dtype=float)


class TestRunningSumAt:
    """Running sums read at chosen indices, a block at a time, follow the
    chunked rule whatever the order of the indices, the other indices read
    and the block size; at a chunk of 1 they have the bits of a
    whole-array cumsum."""

    X = np.concatenate((
        [-0.0, -0.0, 2.5, -2.5, -0.0], np.random.default_rng(11).standard_normal(45)
    ))

    @pytest.mark.parametrize("block", [1, 3, 64])
    @pytest.mark.parametrize("at", [
        [0, 50, 7, 7, 3, 49, 0, 1, 50, 25, 2],
        [50, 0],
        list(range(51)),
        [4, 1, 2],
        [0, 0],
    ], ids=["unsorted-repeated", "n-then-0", "every-index", "signed-zeros", "zeros"])
    def test_matches_whole_array_cumsum(self, block, at, monkeypatch):
        monkeypatch.setattr(rearrange, "PASS_BLOCK", block)
        x, at = self.X, np.array(at, dtype=np.intp)
        cumsum = np.concatenate(([0.0], np.cumsum(x)))[at]
        for chunk in (1, 3, 8, 64):
            monkeypatch.setattr(rearrange, "SUM_CHUNK", chunk)
            calls = []

            def increments(start, stop):
                calls.append((start, stop))
                return x[start:stop].copy()

            got = running_sum_at(increments, at)
            assert_same_bits(got, chunked_running_sums(x, chunk, at))
            if chunk == 1:
                assert_same_bits(got, cumsum)
            # blocks of whole chunks in order, up to the largest index read
            last, step = int(at.max()), chunk * max(1, block // chunk)
            assert calls == [(s, min(s + step, last)) for s in range(0, last, step)]

    @pytest.mark.parametrize("chunk", [1, 7, SUM_CHUNK])
    def test_rows_follow_the_rule_whatever_else_is_read(self, chunk, monkeypatch):
        """Each S[j] is the same whichever other indices are read beside
        it and whatever the block size."""
        monkeypatch.setattr(rearrange, "SUM_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        x = rng.standard_normal((2, 2 * PASS_BLOCK + 77))
        at = rng.integers(0, x.shape[1] + 1, 300)
        for block in (5 * chunk, 1000, PASS_BLOCK):
            monkeypatch.setattr(rearrange, "PASS_BLOCK", block)
            for part in (at, at[:1], at[::7], at[-5:]):
                assert_same_bits(running_sum_at(lambda a, b: x[1, a:b].copy(), part),
                                 chunked_running_sums(x[1], chunk, part))

    @pytest.mark.parametrize("n", [2**10, 2**16, 2**20])
    def test_total_near_fsum(self, n):
        """The total is within (n / 256 + 20) u of the exact sum, relative
        to the sum of magnitudes (u = 2^-53, first order): at most 20
        roundings inside a pairwise-summed chunk of 256 (numpy runs 8
        serial accumulators over blocks of up to 128), and one for each
        chunk sum carried serially."""
        assert SUM_CHUNK == 256
        rng = np.random.default_rng(n)
        bound = (n / 256 + 20) * 2.0 ** -53
        for x in (rng.random(n), rng.standard_normal(n) * np.exp(4.0 * rng.standard_normal(n))):
            total = running_sum_at(lambda a, b: x[a:b].copy(), np.array([n]))[0]
            assert abs(total - math.fsum(x)) <= bound * math.fsum(np.abs(x))
        # on positive draws, about as close as one pairwise sum, far inside that bound
        x = rng.random(n)
        total = running_sum_at(lambda a, b: x[a:b].copy(), np.array([n]))[0]
        assert abs(total - math.fsum(x)) <= 1e-14 * math.fsum(x)


class TestUniformPiece:
    """The piece of t among n equal ones has the integers of searchsorted
    on ``uniform_knots(n)``, on every knot and one ulp either side."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 49, 125, 1000, 3**9, 2**20 + 7, 1953125])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_searchsorted(self, n, side):
        knots = uniform_knots(n)
        rng = np.random.default_rng(n)
        t = np.concatenate((
            knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
            rng.random(1000), [0.0, -0.0, 1.0, -1.0, 2.0, 1e-300, np.nan],
        ))
        ref = np.clip(np.searchsorted(knots, t, side=side) - 1, 0, n - 1)
        assert np.array_equal(uniform_piece(t, n, side), ref)
        assert uniform_piece(t[5], n, side) == ref[5]


def bin_count(p: Profile, M: int, min_block: int = 1) -> int:
    """derivative_bin_count on a profile's drops and largest value."""
    return derivative_bin_count(p.values[:-1] - p.values[1:], p.values[0], M, min_block)


class TestDerivativeBinCount:
    def test_distinct_values_keep_resolution(self):
        grid = equal_measure_grid(1, 1024)
        p = rearrangement(builtin_field("monotone1d"), grid)
        assert bin_count(p, 1024) == 1024

    def test_paired_values_coarsen(self):
        grid = equal_measure_grid(1, 1024)
        p = rearrangement(builtin_field("coordinate"), grid)
        assert bin_count(p, 1024) == 256  # pairs -> 4-cell bins

    def test_column_ties_coarsen(self):
        # 32 columns pair up into 16 distinct |x1| levels of 64 cells each
        grid = equal_measure_grid(2, 32)
        p = rearrangement(builtin_field("coordinate", dim=2), grid)
        assert bin_count(p, 4096) == 8

    def test_constant_floor(self):
        assert bin_count(constant_profile(1.0), 4096) == 8


class TestGradientRearrangement:
    def test_coordinate_is_constant_one(self):
        grid = equal_measure_grid(1, 128)
        p = analyze(builtin_field("coordinate"), grid, 128).grad_prof
        assert np.allclose(p.values, 1.0)

    def test_matches_manual_sort(self):
        grid = equal_measure_grid(1, 256)
        field = builtin_field("gaussian_bump")
        p = analyze(field, grid, 256).grad_prof
        grads = jet_at(field, representatives(grid))[1]
        manual = np.sort(np.linalg.norm(grads, axis=1))[::-1]
        assert np.array_equal(p.values, manual)


def equimeasurability_gap(field, grid, A) -> float:
    """|integral of A(|f|) over the grid - integral of A(f*) over (0,1)|:
    both sides sum the same multiset of values, so the gap is round-off."""
    vals = np.abs(jet_at(field, representatives(grid))[0])
    lhs = float(np.sum(A(vals)) * grid.cell_measure)
    p = rearrangement(field, grid)
    return abs(lhs - float(np.sum(A(p.values) * p.widths)))


class TestEquimeasurability:
    def test_square_young(self):
        grid = equal_measure_grid(1, 1024)
        field = builtin_field("gaussian_bump")
        assert equimeasurability_gap(field, grid, np.square) <= 1e-12

    def test_constant_field(self):
        grid = equal_measure_grid(1, 64)
        const = parse_field("1.25", 1)
        for A in (np.abs, lambda t: np.maximum(np.abs(t) - 0.5, 0.0)):
            assert equimeasurability_gap(const, grid, A) == 0.0

    def test_identity_young_grid_exact(self):
        grid = equal_measure_grid(1, 1024)
        coord = builtin_field("coordinate")
        assert equimeasurability_gap(coord, grid, np.abs) <= 1e-12
