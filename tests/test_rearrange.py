"""Profiles, distribution functions and rearrangements: the weighted
sort, the value sort, and the profiles an analysis builds."""

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
    WeightSumError,
    YoungFunction,
    analyze,
    builtin_field,
    equal_measure_grid,
    lebesgue_rearrangement,
    parse_field,
)
from gausym import rearrange
from gausym.rearrange import PASS_BLOCK, derivative_bin_count, running_sum_at

from conftest import (
    assert_same_bits,
    cumulative_reference,
    jet_at,
    random_profile,
    rearrangement,
    representatives,
    sort_decreasing,
)

HALVES = Profile(np.array([0.0, 0.5, 1.0]), np.array([3.0, 1.0]))


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
        assert HALVES.total_integral() == 2.0

    def test_super_level_measure(self):
        assert HALVES.super_level_measure(2.0) == 0.5
        assert HALVES.super_level_measure(0.5) == 1.0
        assert HALVES.super_level_measure(3.0) == 0.0

    def test_monotonicity_enforced(self):
        with pytest.raises(DomainError, match="nonincreasing"):
            Profile(np.array([0.0, 0.5, 1.0]), np.array([1.0, 3.0]))

    @pytest.mark.parametrize("make", [
        lambda: Profile(np.array([0.0, 0.5, 1.0]), np.array([np.nan, 1.0])),
        lambda: lebesgue_rearrangement([(0.5, np.nan), (0.5, 1.0)]),
        lambda: Profile(np.linspace(0.0, 1.0, 4), np.array([np.nan, np.inf, np.inf])),
    ], ids=["nan-first", "rearranged-nan", "nan-then-inf"])
    def test_nan_values_refused(self, make):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="NaN"):
                make()

    def test_knot_validation(self):
        with pytest.raises(DomainError):
            Profile(np.array([0.1, 1.0]), np.array([1.0]))
        with pytest.raises(DomainError):
            Profile(np.array([0.0, 0.5, 0.5, 1.0]), np.array([3.0, 2.0, 1.0]))

    def test_roundoff_snapped(self):
        p = Profile(np.array([0.0, 0.5, 1.0]), np.array([1.0, 1.0 + 1e-15]))
        assert np.all(np.diff(p.values) <= 0)

    def test_caller_arrays_copied_unless_read_only(self):
        knots, values = np.array([0.0, 0.5, 1.0]), np.array([3.0, 1.0])
        p = Profile(knots, values)
        knots[1], values[0] = 0.25, 7.0
        assert_same_bits(p.knots, np.array([0.0, 0.5, 1.0]))
        assert_same_bits(p.values, np.array([3.0, 1.0]))
        # a read-only array that owns its data is shared, a read-only view is not
        knots.setflags(write=False)
        assert Profile(knots, values).knots is knots
        assert Profile(knots[:], values).knots is not knots
        assert not p.knots.flags.writeable and not p.values.flags.writeable

    @pytest.mark.parametrize("block", [1, 3, 64, PASS_BLOCK])
    def test_cumulative_matches_whole_array_cumsum(self, block, monkeypatch):
        """The cumulative, read off a running sum ``block`` pieces at a
        time, has the bits of one whole-array cumsum, and the profile
        caches nothing of it."""
        monkeypatch.setattr(rearrange, "PASS_BLOCK", block)
        rng = np.random.default_rng(block)
        for max_pieces in (8, 64, 300, 300):
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
            assert set(vars(p)) == {"knots", "values"}

    def test_widths_built_once(self):
        assert_same_bits(HALVES.widths, np.array([0.5, 0.5]))
        assert HALVES.widths is HALVES.widths
        assert not HALVES.widths.flags.writeable


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
        weights = np.full(len(vals), grid.cell_measure)
        q = lebesgue_rearrangement(np.column_stack((weights, shuffled)))
        assert np.array_equal(p.values, q.values)
        assert np.array_equal(p.knots, q.knots)


class TestLebesgueRearrangement:
    def test_decreasing_input_fixed(self):
        # rearranging an already nonincreasing sequence returns it unchanged
        weights = np.full(8, 1.0 / 8)
        values = np.array([9.0, 7.5, 7.5, 4.0, 2.0, 1.5, 0.5, 0.0])
        p = lebesgue_rearrangement(np.column_stack((weights, values)))
        assert np.array_equal(p.values, values)

    def test_two_point_sort(self):
        p = lebesgue_rearrangement([(0.5, 1.0), (0.5, 3.0)])
        assert np.array_equal(p.values, [3.0, 1.0])
        assert np.array_equal(p.knots, [0.0, 0.5, 1.0])

    def test_weight_sum_violation(self):
        with pytest.raises(WeightSumError):
            lebesgue_rearrangement([(0.5, 1.0), (0.4, 2.0)])
        with pytest.raises(WeightSumError):
            lebesgue_rearrangement([(1.5, 1.0), (-0.5, 2.0)])

    @pytest.mark.parametrize("weights", [(np.nan, 0.5), (np.nan, np.nan), (np.inf, 0.5)])
    def test_non_finite_weights_rejected(self, weights):
        samples = np.column_stack([weights, [1.0, 2.0]])
        with pytest.raises(WeightSumError):
            lebesgue_rearrangement(samples)

    @given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, k, seed):
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(k))
        values = rng.uniform(0.0, 5.0, size=k)
        a = lebesgue_rearrangement(np.column_stack((weights, values)))
        perm = rng.permutation(k)
        b = lebesgue_rearrangement(np.column_stack((weights[perm], values[perm])))
        assert np.allclose(a.values, b.values)
        assert np.allclose(a.knots, b.knots, atol=1e-12)

    @given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_output_nonincreasing_and_mass_preserving(self, k, seed):
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(k))
        values = rng.uniform(0.0, 5.0, size=k)
        p = lebesgue_rearrangement(np.column_stack((weights, values)))
        assert np.all(np.diff(p.values) <= 0)
        assert p.total_integral() == pytest.approx(float(np.sum(weights * values)), abs=1e-12)


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


class TestRunningSumAt:
    """Running sums read at chosen indices, a block at a time, have the
    bits of a whole-array cumsum, whatever the order of the indices."""

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
    def test_matches_whole_array_cumsum(self, block, at):
        x, calls = self.X, []

        def increments(start, stop):
            calls.append((start, stop))
            return x[start:stop].copy()

        at = np.array(at, dtype=np.intp)
        ref = np.concatenate(([0.0], np.cumsum(x)))[at]
        assert_same_bits(running_sum_at(increments, at, block), ref)
        # blocks in order, up to the largest index read
        last = int(at.max())
        assert calls == [(s, min(s + block, last)) for s in range(0, last, block)]


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
        assert bin_count(Profile.constant(1.0), 4096) == 8


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
        assert equimeasurability_gap(field, grid, YoungFunction.power(2)) <= 1e-12

    def test_constant_field(self):
        grid = equal_measure_grid(1, 64)
        const = parse_field("1.25", 1)
        for A in (YoungFunction.power(1), YoungFunction.hinge(0.5)):
            assert equimeasurability_gap(const, grid, A) == 0.0

    def test_identity_young_grid_exact(self):
        grid = equal_measure_grid(1, 1024)
        coord = builtin_field("coordinate")
        assert equimeasurability_gap(coord, grid, YoungFunction.power(1)) <= 1e-12
