"""Symmetrized fields and the gradient identity they satisfy."""

import numpy as np
import pytest

from gausym import (
    NonSmoothFieldError,
    Phi,
    Phi_inv,
    Profile,
    analyze,
    builtin_field,
    check_orlicz_equality,
    equal_measure_grid,
    parse_field,
    run_checks,
)

from gausym import rearrange
from gausym.gaussian import midpoint_quantiles, phi
from gausym.rearrange import PASS_BLOCK
from gausym.symmetrize import symmetrized_derivative

from conftest import (
    assert_same_bits,
    bin_means,
    constant_profile,
    cumulative_reference,
    jet_at,
    pointwise_identity_gap,
    rearrangement,
    representatives,
    symmetrized_field,
)


class TestSymmetrizedField:
    def test_constant_profile(self):
        fo = symmetrized_field(constant_profile(2.0), dim=2, n_bins=8)
        pts = np.array([[0.0, 0.0], [1.5, -2.0], [-3.0, 0.7]])
        assert np.all(jet_at(fo, pts)[0] == 2.0)

    def test_monotone_fixed_point(self):
        # a nonnegative strictly decreasing function of x1 is unchanged at
        # the grid points when every cell is a bin of its own
        grid = equal_measure_grid(1, 512)
        f = builtin_field("monotone1d", {"a": 1.0})
        p = rearrangement(f, grid)
        fo = symmetrized_field(p, dim=1, n_bins=grid.num_cells)
        reps = representatives(grid)
        assert np.allclose(jet_at(fo, reps)[0], jet_at(f, reps)[0], rtol=0, atol=1e-12)

    def test_coordinate_closed_form(self):
        grid = equal_measure_grid(1, 4096)
        p = rearrangement(builtin_field("coordinate"), grid)
        fo = symmetrized_field(p, dim=1, n_bins=4096)
        x = np.linspace(-1.5, 1.5, 41).reshape(-1, 1)
        expected = Phi_inv(1.0 - Phi(x[:, 0]) / 2.0)
        assert np.max(np.abs(jet_at(fo, x)[0] - expected)) <= 5e-3

    def test_depends_on_first_coordinate_only(self):
        grid = equal_measure_grid(2, 32)
        p = rearrangement(builtin_field("gaussian_bump", dim=2), grid)
        fo = symmetrized_field(p, dim=2, n_bins=1024)
        x1 = np.array([-0.7, 0.0, 1.3])
        a = jet_at(fo, np.column_stack((x1, np.full(3, -5.0))))[0]
        b = jet_at(fo, np.column_stack((x1, np.full(3, 9.0))))[0]
        assert np.array_equal(a, b)

    def test_nonincreasing_in_x1(self):
        grid = equal_measure_grid(1, 256)
        p = rearrangement(builtin_field("mixture"), grid)
        x = np.sort(np.linspace(-4, 4, 200)).reshape(-1, 1)
        fo = symmetrized_field(p, dim=1, n_bins=256)
        assert np.all(np.diff(jet_at(fo, x)[0]) <= 1e-12)

    def test_bin_count_is_required(self):
        with pytest.raises(TypeError):
            symmetrized_field(constant_profile(2.0), dim=1)

    def test_linear_gradient_sign(self):
        grid = equal_measure_grid(1, 256)
        p = rearrangement(builtin_field("gaussian_bump"), grid)
        fo = symmetrized_field(p, dim=1, n_bins=256)
        g = fo.jet((np.linspace(-2, 2, 21),))[1]
        assert len(g) == 1 and np.all(g[0] <= 0.0)


class TestPointwiseIdentity:
    def test_constant_field(self):
        grid = equal_measure_grid(1, 256)
        const = parse_field("3.0", 1)
        assert pointwise_identity_gap(analyze(const, grid, 256)) == 0.0

    def test_monotone_exponential(self):
        # both gradient routes agree and tighten under refinement
        f = builtin_field("monotone1d", {"a": 1.0})
        gaps = {}
        for n in (1024, 4096):
            gaps[n] = pointwise_identity_gap(analyze(f, equal_measure_grid(1, n), n))
        assert gaps[4096] <= 0.05
        assert gaps[4096] < gaps[1024]

    def test_coordinate(self):
        grid = equal_measure_grid(1, 4096)
        gap = pointwise_identity_gap(analyze(builtin_field("coordinate"), grid, 4096))
        assert gap <= 0.01

    def test_rejects_non_smooth(self):
        grid = equal_measure_grid(1, 64)
        with pytest.raises(NonSmoothFieldError):
            pointwise_identity_gap(analyze(parse_field("abs(x1)", 1), grid, 64))


def rearrangement_gap(field, grid) -> float:
    """Sup distance, at cell midpoints, between the rearrangement of the
    symmetrized field and the original rearrangement.

    With one bin per x1 slab the symmetrized field takes on each slab the
    average of the profile over the slab's measure, so the gap is bounded
    by the profile's variation across one cell row.
    """
    p = rearrangement(field, grid)
    fo = symmetrized_field(p, dim=grid.dim, n_bins=grid.cells_per_axis)
    p2 = rearrangement(fo, grid)
    mid = (np.arange(p.num_pieces) + 0.5) / p.num_pieces
    return float(np.max(np.abs(p2(mid) - p(mid))))


class TestPreservesRearrangement:
    def test_constant(self):
        grid = equal_measure_grid(1, 64)
        assert rearrangement_gap(parse_field("1.0", 1), grid) == 0.0

    def test_indicator_like(self):
        # in 1-d the resampling through the grid is exact even across the
        # steep transition
        grid = equal_measure_grid(1, 1024)
        f = builtin_field("halfspace_indicator_smooth", {"a": 0.0, "width": 0.02})
        assert rearrangement_gap(f, grid) <= 1e-12

    def test_bump_two_dims(self):
        grid = equal_measure_grid(2, 64)
        f = builtin_field("gaussian_bump", dim=2)
        assert rearrangement_gap(f, grid) <= 2.0 / 64

    def test_exact_in_one_dim(self):
        # in 1-d the symmetrized field resamples every cell value exactly
        grid = equal_measure_grid(1, 512)
        f = builtin_field("poly_tanh")
        assert rearrangement_gap(f, grid) <= 1e-12


class TestEqualityChain:
    def test_orlicz_equality_monotone(self):
        # hinge integrals of the surrogate match the Gaussian integrals of
        # the symmetrized gradient up to round-off
        f = builtin_field("monotone1d")
        rep1 = check_orlicz_equality(analyze(f, equal_measure_grid(1, 1024), 1024))
        rep4 = check_orlicz_equality(analyze(f, equal_measure_grid(1, 4096), 4096))
        assert rep4.max_violation <= 0.02
        assert max(rep1.max_violation, rep4.max_violation) <= 1e-10

    @pytest.mark.parametrize("n", [125, 127, 255, 1000, 1023, 4095, 4096])
    def test_orlicz_equality_when_axis_points_sit_on_nodes(self, n):
        # with M = N every axis point is a slope node of the symmetrized
        # gradient; the slope it takes must not depend on round-off
        f = builtin_field("monotone1d")
        rep = check_orlicz_equality(analyze(f, equal_measure_grid(1, n), n))
        assert rep.max_violation <= 1e-10


class TestBinMeans:
    """The analysis takes f*'s bin means (``Analysis.sym_means``) by
    differencing ``p.cumulative`` at the bin edges.  At a chunk of 1 the
    running sum behind that is one whole-array cumsum of p's masses,
    which stays here as the reference."""

    @staticmethod
    def _reference(p, n_bins):
        cum = cumulative_reference(p, np.arange(n_bins + 1) / n_bins)
        return (cum[1:] - cum[:-1]) * n_bins

    @pytest.mark.parametrize("K,n_bins", [
        (2 * PASS_BLOCK + 5, 64),
        (2 * PASS_BLOCK + 5, 4099),
        # edges on the block ends, then on every knot
        (4 * PASS_BLOCK, 4),
        (4 * PASS_BLOCK, 4 * PASS_BLOCK),
    ])
    def test_matches_prefix_mass_means(self, K, n_bins, monkeypatch):
        monkeypatch.setattr(rearrange, "SUM_CHUNK", 1)
        rng = np.random.default_rng(K + n_bins)
        # pairs of tied values, as mirrored cells give
        values = np.repeat(np.sort(rng.exponential(size=K // 2 + 1))[::-1], 2)[:K]
        values.setflags(write=False)
        p = Profile.equal_width(values)
        means = bin_means(p, n_bins)
        assert vars(p).keys() == {"values"}
        assert_same_bits(means, self._reference(p, n_bins))

    @pytest.mark.parametrize("block", [1, 2, 5, 8])
    def test_any_block_on_unequal_pieces(self, block, monkeypatch):
        monkeypatch.setattr(rearrange, "PASS_BLOCK", block)
        monkeypatch.setattr(rearrange, "SUM_CHUNK", 1)
        rng = np.random.default_rng(block)
        # 40 levels of unequal measure: each on a run of 1 to 16 pieces
        p = Profile(np.repeat(np.sort(rng.normal(size=40))[::-1], rng.integers(1, 17, 40)))
        for n_bins in range(1, 90):
            assert_same_bits(bin_means(p, n_bins), self._reference(p, n_bins))

    @pytest.mark.parametrize("checks", [["dos"], ["orlicz"], ["uno", "dos", "mt"], None])
    @pytest.mark.parametrize("dim,N", [(1, 2 * PASS_BLOCK + 5), (2, 183), (3, 40)])
    def test_read_off_the_surrogate_sweep(self, dim, N, checks):
        a = analyze(builtin_field("mixture", dim=dim), equal_measure_grid(dim, N), 512, checks)
        assert_same_bits(a.sym_means, bin_means(a.p, a.m_d))
        assert not a.sym_means.flags.writeable

    def test_kept_only_for_dos_and_orlicz(self):
        """The bin means are taken when ``dos`` or ``orlicz`` first reads
        them, so an analysis built for other checks can still run
        either, with the bits of one built for it."""
        field, grid = builtin_field("mixture"), equal_measure_grid(1, 256)
        a = analyze(field, grid, 512, ["uno", "mt"])
        run_checks(a, ["uno", "mt"])
        assert "sym_means" not in vars(a)
        ref = analyze(field, grid, 512, ["dos"])
        (row,), (ref_row,) = run_checks(a, ["dos"]), run_checks(ref, ["dos"])
        assert_same_bits(row.lhs_curve, ref_row.lhs_curve)
        assert_same_bits(a.sym_means, ref.sym_means)


class TestSymmetrizedDerivative:
    """One gather from the slopes padded with 0.0 at each end, times
    phi(x1); the masked gather and scatter stays here as the reference."""

    @staticmethod
    def _reference(p, x1, n_bins):
        means = bin_means(p, n_bins)
        slopes = np.minimum((means[1:] - means[:-1]) * n_bins, 0.0)
        idx = np.searchsorted(midpoint_quantiles(n_bins), x1, side="right") - 1
        inside = (idx >= 0) & (idx < len(slopes))
        out = np.zeros_like(x1)
        out[inside] = slopes[idx[inside]] * phi(x1[inside])
        return out

    @pytest.mark.parametrize("n_bins", [1, 2, 3, 8, 255, 1024])
    @pytest.mark.parametrize("name", ["mixture", "poly_tanh", "halfspace_indicator_smooth"])
    def test_matches_masked_formula(self, name, n_bins):
        p = rearrangement(builtin_field(name), equal_measure_grid(1, 1024))
        nodes = midpoint_quantiles(n_bins)
        x1 = np.concatenate((
            nodes[0] - np.array([6.0, 1.0, 1e-9]),  # below the first node
            nodes,  # on each node, the last one included
            np.nextafter(nodes, -np.inf),  # one ulp left of each node
            (nodes[1:] + nodes[:-1]) / 2.0,  # between nodes
            nodes[-1] + np.array([1e-9, 1.0, 6.0]),  # after the last node
        ))
        means = bin_means(p, n_bins)
        got = symmetrized_derivative(means, x1)
        assert_same_bits(got, self._reference(p, x1, n_bins))
        # on row coordinates, as a field's jet passes them
        assert_same_bits(symmetrized_derivative(means, x1[:, None]), got[:, None])
