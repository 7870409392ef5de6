"""Special functions, isoperimetric profile, and equal-measure grids.

Frozen reference values were computed with mpmath at 40 digits
(0.5*erfc(-x/sqrt(2)) and sqrt(2)*erfinv(2p-1)).
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausym import (
    CellBudgetError,
    DomainError,
    GaussianGrid,
    Phi,
    Phi_inv,
    equal_measure_grid,
    iso_profile,
    midpoint_quantiles,
    phi,
)

from gausym.gaussian import (
    _CENTRAL,
    _FAR_TAIL,
    _NEAR_TAIL,
    BLOCK_CELLS,
    P_HI,
    P_LO,
    PASS_BLOCK,
    SQRT_2PI,
    _iso_profile_block,
    _ppnd16,
    _ppnd16_block,
    _rational,
)

from conftest import BLOCK_GRIDS, assert_same_bits, representatives

PHI_0 = 0.3989422804014327  # 1/sqrt(2*pi)


class TestDensity:
    def test_at_zero(self):
        assert phi(0.0) == pytest.approx(PHI_0, abs=1e-16)

    def test_reference_value(self):
        # mpmath: 0.2419707245191433498
        assert phi(1.0) == pytest.approx(0.2419707245191433498, abs=1e-16)

    def test_even(self):
        assert phi(1.5) == phi(-1.5)

    def test_vectorized(self):
        x = np.array([-2.0, 0.0, 2.0])
        out = phi(x)
        assert out.shape == (3,)
        assert out[0] == out[2]


class TestCdf:
    def test_at_zero(self):
        assert Phi(0.0) == 0.5

    def test_reference_value(self):
        # mpmath: 0.84134474606854294859
        assert Phi(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)

    def test_symmetry_identity(self):
        for x in (0.3, 1.7, 4.2):
            assert Phi(x) + Phi(-x) == pytest.approx(1.0, abs=1e-14)

    def test_strictly_increasing(self):
        x = np.linspace(-8.0, 8.0, 400)
        assert np.all(np.diff(Phi(x)) > 0)

    @given(st.floats(min_value=-8.0, max_value=8.0))
    @settings(max_examples=200, deadline=None)
    def test_reflection(self, x):
        assert Phi(x) + Phi(-x) == pytest.approx(1.0, abs=1e-14)


class TestQuantile:
    def test_median(self):
        assert Phi_inv(0.5) == 0.0

    def test_inverse_identity(self):
        assert Phi_inv(Phi(2.3)) == pytest.approx(2.3, abs=1e-12)

    def test_reference_value(self):
        assert Phi_inv(0.8413447460685429) == pytest.approx(1.0, abs=1e-10)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.1, 1.5, np.nan, [0.5, np.nan]):
            with pytest.raises(DomainError):
                Phi_inv(bad)

    def test_residual(self):
        p = np.concatenate(
            [np.geomspace(1e-10, 0.5, 500), 1.0 - np.geomspace(1e-10, 0.5, 500)]
        )
        assert np.max(np.abs(Phi(Phi_inv(p)) - p)) <= 1e-12

    def test_round_trip(self):
        # Doubles near 1 carry ~1e-16 absolute information, so the upper
        # tail beyond |x| ~ 5.2 cannot round-trip below 1e-10; within
        # [-5, 5] machine-precision inversion does.
        x = np.linspace(-5.0, 5.0, 1000)
        assert np.max(np.abs(Phi_inv(Phi(x)) - x)) <= 1e-10

    def test_extreme_clamping(self):
        assert np.isfinite(Phi_inv(1e-300))
        assert np.isfinite(Phi_inv(1.0 - 1e-16))


class TestIsoProfile:
    def test_center_value(self):
        assert iso_profile(0.5) == pytest.approx(PHI_0, abs=1e-12)

    def test_symmetry(self):
        assert iso_profile(0.1) == pytest.approx(iso_profile(0.9), abs=1e-14)

    def test_reference_value(self):
        # mpmath: 0.17549833193248680663
        assert iso_profile(0.1) == pytest.approx(0.1754983319324868, abs=1e-10)

    def test_endpoints_vanish(self):
        assert iso_profile(0.0) == 0.0
        assert iso_profile(1.0) == 0.0

    def test_maximum_at_half(self):
        t = np.linspace(0.01, 0.99, 99)
        assert np.all(iso_profile(t) <= iso_profile(0.5) + 1e-15)

    def test_second_derivative_identity(self):
        # I * I'' = -1, central second differences
        t = np.linspace(0.05, 0.95, 901)
        h = 1e-4
        second = (iso_profile(t + h) - 2 * iso_profile(t) + iso_profile(t - h)) / h**2
        assert np.max(np.abs(iso_profile(t) * second + 1.0)) <= 1e-4

    def test_first_derivative_identity(self):
        # I'(t) = -Phi_inv(t)
        t = np.linspace(0.05, 0.95, 901)
        h = 1e-4
        first = (iso_profile(t + h) - iso_profile(t - h)) / (2 * h)
        assert np.max(np.abs(first + Phi_inv(t))) <= 1e-5


class TestReferenceOracle:
    """Recompute the frozen reference constants with a 40-digit oracle."""

    def test_frozen_constants(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        phi_mp = lambda x: mp.exp(-mp.mpf(x) ** 2 / 2) / mp.sqrt(2 * mp.pi)
        Phi_mp = lambda x: mp.erfc(-mp.mpf(x) / mp.sqrt(2)) / 2
        inv_mp = lambda p: mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1)

        assert float(phi_mp(0)) == pytest.approx(0.3989422804014327, abs=1e-16)
        assert float(phi_mp(1)) == pytest.approx(0.2419707245191433498, abs=1e-16)
        assert float(Phi_mp(1)) == pytest.approx(0.8413447460685429, abs=1e-16)
        assert float(phi_mp(inv_mp("0.1"))) == pytest.approx(0.1754983319324868, abs=1e-15)
        assert float(2 * (1 - Phi_mp(1))) == pytest.approx(0.3173105078629141, abs=1e-15)
        # level-set bound value at s = 1/2 for the coordinate field
        value = phi_mp(0) / (2 * phi_mp(inv_mp("0.75")))
        assert float(value) == pytest.approx(0.6277087656773402, abs=1e-15)

    def test_cdf_against_oracle_grid(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for x in np.linspace(-6.0, 6.0, 25):
            expected = float(mp.erfc(-mp.mpf(float(x)) / mp.sqrt(2)) / 2)
            assert Phi(float(x)) == pytest.approx(expected, abs=2e-16, rel=4e-16)


def _probabilities(rng, n, lo_exp, hi_exp_complement):
    """Probabilities over [10^lo_exp, 1 - 10^hi_exp_complement]: both tails
    log-uniform, the bulk uniform, and the AS 241 region breakpoints."""
    breakpoints = [0.075, 0.925, np.nextafter(0.075, 0), np.nextafter(0.925, 1),
                   np.exp(-25.0), 1.0 - np.exp(-25.0), 10.0**lo_exp,
                   1.0 - 10.0**hi_exp_complement]
    return np.concatenate([
        10.0 ** rng.uniform(lo_exp, np.log10(0.5), n),
        1.0 - 10.0 ** rng.uniform(hi_exp_complement, np.log10(0.5), n),
        rng.uniform(0.0, 1.0, n),
        breakpoints,
    ])


class TestAccuracyAgainstMpmath:
    """Relative errors against a 40-digit mpmath oracle."""

    @pytest.fixture
    def mp(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        return mp

    @staticmethod
    def exact_quantile(mp, p, x):
        """Phi_inv(p) to 40 digits: one Newton step in mpmath from the
        float x, whose error is already near 1e-16; the upper tail is
        solved in 1 - p, which is exact for p > 1/2."""
        x = mp.mpf(float(x))
        if p < 0.5:
            residual = mp.erfc(-x / mp.sqrt(2)) / 2 - mp.mpf(float(p))
        else:
            residual = (1 - mp.mpf(float(p))) - mp.erfc(x / mp.sqrt(2)) / 2
        return x - residual / (mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi))

    @staticmethod
    def max_rel_error(mp, got, exact):
        return max(float(abs(mp.mpf(float(g)) - e) / abs(e)) for g, e in zip(got, exact))

    def test_quantile(self, mp):
        p = _probabilities(np.random.default_rng(5), 150, -300, -16)
        p = p[p != 0.5]
        x = Phi_inv(p)
        exact = [self.exact_quantile(mp, pi, xi) for pi, xi in zip(p, x)]
        assert self.max_rel_error(mp, x, exact) <= 2e-15

    @pytest.mark.parametrize("lo, hi, bound", [(-8.0, 8.0, 3e-14), (-37.0, 8.2, 5e-13)])
    def test_cdf(self, mp, lo, hi, bound):
        x = np.concatenate([np.random.default_rng(6).uniform(lo, hi, 400), [lo, hi]])
        exact = [mp.erfc(-mp.mpf(float(v)) / mp.sqrt(2)) / 2 for v in x]
        assert self.max_rel_error(mp, Phi(x), exact) <= bound

    @pytest.mark.parametrize("lo_exp, hi_exp, bound", [(-10, -10, 5e-14), (-300, -16, 1e-12)])
    def test_iso_profile(self, mp, lo_exp, hi_exp, bound):
        t = _probabilities(np.random.default_rng(7), 150, lo_exp, hi_exp)
        exact = [mp.exp(-self.exact_quantile(mp, ti, xi) ** 2 / 2) / mp.sqrt(2 * mp.pi)
                 for ti, xi in zip(t, Phi_inv(t))]
        assert self.max_rel_error(mp, iso_profile(t), exact) <= bound


class TestMidpointQuantiles:
    def test_odd_bit_for_bit(self):
        for n in (*range(2, 301), 1 << 20):
            q = midpoint_quantiles(n)
            assert q.shape == (n,)
            # + 0.0 turns the mirrored middle point -0.0 of odd n into 0.0
            assert_same_bits(q, -q[::-1] + 0.0)

    def test_quantiles_of_cell_midpoints(self):
        for n in (2, 7, 64, 1001):
            q = midpoint_quantiles(n)
            assert np.all(np.diff(q) > 0)
            assert np.allclose(Phi(q), (np.arange(n) + 0.5) / n, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n, m", [(3, 9), (4, 12), (6, 10), (125, 1125), (1000, 3000), (1023, 3069)])
    def test_equal_fractions_give_equal_points(self, n, m):
        # (k + 1/2)/n == (j + 1/2)/m exactly when j + 1/2 = (k + 1/2) * m/n
        k = np.arange(n)
        j2 = (2 * k + 1) * m
        shared = j2 % (2 * n) == n
        j = (j2[shared] - n) // (2 * n)
        assert shared.any()
        assert_same_bits(midpoint_quantiles(n)[k[shared]], midpoint_quantiles(m)[j])


def test_cli_import_needs_no_scipy():
    src = Path(equal_measure_grid.__code__.co_filename).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, gausym.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestEqualMeasureGrid:
    def test_two_cells(self):
        grid = equal_measure_grid(1, 2)
        expected = [Phi_inv(0.25), Phi_inv(0.75)]
        assert np.allclose(representatives(grid)[:, 0], expected)
        assert grid.cell_measure == 0.5

    def test_product_grid(self):
        grid = equal_measure_grid(2, 4)
        assert grid.num_cells == 16
        assert grid.cell_measure == 1.0 / 16

    def test_second_moment(self):
        grid = equal_measure_grid(1, 1024)
        m2 = np.mean(grid.axis_points**2)
        assert m2 == pytest.approx(1.0, abs=5e-3)

    def test_measures_sum_to_one(self):
        for dim, n in ((1, 16), (2, 8), (1, 12)):
            grid = equal_measure_grid(dim, n)
            assert grid.cell_measure * grid.num_cells == pytest.approx(1.0, abs=1e-12)
        # exact for power-of-two cell counts
        grid = equal_measure_grid(1, 1024)
        assert grid.cell_measure * grid.num_cells == 1.0

    def test_representative_quantiles(self):
        grid = equal_measure_grid(1, 8)
        assert np.allclose(Phi(representatives(grid)[:, 0]), (np.arange(8) + 0.5) / 8)

    def test_axis_is_odd(self):
        for n in (8, 9, 512):
            grid = equal_measure_grid(2, n)
            assert_same_bits(grid.axis_points, midpoint_quantiles(n))
            reps = representatives(grid)
            assert np.array_equal(reps, -reps[::-1])

    def test_deterministic(self):
        a = equal_measure_grid(2, 16)
        b = equal_measure_grid(2, 16)
        assert np.array_equal(representatives(a), representatives(b))

    def test_budget_error_reports_count(self):
        with pytest.raises(CellBudgetError, match="1000000000"):
            equal_measure_grid(3, 1000)

    def test_validation(self):
        with pytest.raises(DomainError):
            equal_measure_grid(4, 8)
        with pytest.raises(DomainError):
            equal_measure_grid(1, 1)

    def test_immutable(self):
        grid = equal_measure_grid(1, 4)
        assert isinstance(grid, GaussianGrid)
        with pytest.raises(ValueError):
            grid.axis_points[0] = 99.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.cell_measure = 0.5


class TestBlocks:
    """Grid coordinates come one block of rows at a time, and AS 241
    quantiles one block of PASS_BLOCK elements at a time; the results
    must not depend on it."""

    @pytest.mark.parametrize("dim,N", BLOCK_GRIDS)
    def test_points_blocks_match_representatives(self, dim, N):
        grid = equal_measure_grid(dim, N)
        rows, step = grid.num_rows, max(1, BLOCK_CELLS // grid.row_cells)
        assert grid.row_cells == (N if dim > 1 else 1) and rows * grid.row_cells == grid.num_cells
        blocks = []
        for start in range(0, rows, step):
            stop = min(start + step, rows)
            xs = grid.rows(start, stop)
            r = stop - start
            lead, last = ((r, 1),) * (dim - 1), (1, N) if dim > 1 else (r,)
            assert [x.shape for x in xs] == [*lead, last]
            cells = np.broadcast_arrays(*xs)
            blocks.append(np.stack([c.ravel() for c in cells], axis=1))
        assert len(blocks) > 1 and rows % step
        assert_same_bits(np.concatenate(blocks), representatives(grid))
        # C order: the last coordinate varies fastest
        mesh = np.meshgrid(*([midpoint_quantiles(N)] * dim), indexing="ij")
        assert_same_bits(representatives(grid), np.stack([m.ravel() for m in mesh], axis=1))

    def test_grid_stores_only_the_axis(self):
        grid = equal_measure_grid(3, 125)
        assert grid.num_cells == 125**3
        assert set(vars(grid)) == {"dim", "cells_per_axis", "axis_points", "cell_measure"}
        last_row = np.broadcast_arrays(*grid.rows(125**2 - 1, 125**2))
        assert_same_bits(np.array([c[0, -1] for c in last_row]), np.full(3, grid.axis_points[-1]))
        with pytest.raises(ValueError):
            grid.axis_points[0] = 0.0

    @pytest.mark.parametrize("n", [4095, 4096, 4097, 3 * 4096 + 1])
    def test_quantiles_match_single_shot(self, n):
        rng = np.random.default_rng(n)
        # central region and both tails, down to the far tail beyond r = 5
        p = np.concatenate((rng.random(n - 4), [1e-300, 1e-20, 1.0 - 1e-16, 0.5]))
        rng.shuffle(p)
        single_shot = _ppnd16_block(np.clip(p, 1e-300, 1.0 - 1e-16))
        assert_same_bits(_ppnd16(p), single_shot)
        assert_same_bits(Phi_inv(p), single_shot)
        t = np.concatenate((p[:-3], [0.0, 1.0, -0.5]))
        assert_same_bits(iso_profile(t), _iso_profile_block(t))
        shaped = p[: 4 * (n // 4)].reshape(4, -1)
        assert_same_bits(_ppnd16(shaped), single_shot[: shaped.size].reshape(shaped.shape))


def masked_ppnd16(p: np.ndarray) -> np.ndarray:
    """AS 241 as every block took it before the central fast path: clamp,
    then the central and tail regions by masks, gathers and scatters."""
    p = np.clip(p, P_LO, P_HI)
    q = p - 0.5
    out = np.empty_like(p)
    central = np.abs(q) <= 0.425
    qc = q[central]
    out[central] = qc * _rational(0.180625 - qc * qc, _CENTRAL)
    tail = ~central
    if np.any(tail):
        pt = p[tail]
        r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
        x = np.empty_like(r)
        near = r <= 5.0
        x[near] = _rational(r[near] - 1.6, _NEAR_TAIL)
        x[~near] = _rational(r[~near] - 5.0, _FAR_TAIL)
        out[tail] = np.where(pt < 0.5, -x, x)
    return out


def masked_iso_profile(t: np.ndarray) -> np.ndarray:
    tc = np.clip(t, 0.0, 1.0)
    out = np.zeros_like(tc)
    inner = (tc > 0.0) & (tc < 1.0)
    if np.any(inner):
        x = masked_ppnd16(tc[inner])
        out[inner] = np.exp(-0.5 * x * x) / SQRT_2PI
    return out


class TestCentralFastPath:
    """A block wholly inside |t - 1/2| <= 0.425 skips the clamps and masks;
    every result keeps the bits of the masked kernels, the references."""

    EDGES = np.array([0.075, 0.925, np.nextafter(0.075, 0.0), np.nextafter(0.925, 1.0),
                      np.nextafter(0.075, 1.0), np.nextafter(0.925, 0.0), 0.5,
                      np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 0.3, 0.7])

    @pytest.mark.parametrize("inputs", ["uniform", "random", "central", "edges"])
    def test_bits_match_the_masked_kernels(self, inputs):
        rng = np.random.default_rng(7)
        t = {
            "uniform": np.linspace(0.0, 1.0, 3 * PASS_BLOCK + 7)[1:-1],
            "random": rng.random(2 * PASS_BLOCK + 3),
            "central": rng.uniform(0.075, 0.925, PASS_BLOCK + 1),
            "edges": np.concatenate((self.EDGES, [1e-300, P_HI, 1e-20, 0.01, 0.99])),
        }[inputs]
        assert_same_bits(Phi_inv(t), masked_ppnd16(t))
        assert_same_bits(iso_profile(t), masked_iso_profile(t))
        for block in (t[:1], t[:2], self.EDGES[:7], self.EDGES):
            assert_same_bits(_ppnd16_block(block), masked_ppnd16(block))
            assert_same_bits(_iso_profile_block(block), masked_iso_profile(block))

    def test_out_of_range_and_nan_take_the_masked_path(self):
        t = np.array([0.3, 0.5, np.nan, 0.7])
        assert_same_bits(iso_profile(t), masked_iso_profile(t))
        assert np.isnan(_ppnd16_block(t)[2])
        for bad in (0.0, 1.0, -0.5, 1.5, np.inf):
            t = np.array([0.3, bad, 0.7])
            assert_same_bits(iso_profile(t), masked_iso_profile(t))

    @pytest.mark.parametrize("n", [2, 3, 125, 1001, 2**20])
    def test_midpoint_fractions(self, n):
        lower = (np.arange(n // 2) + 0.5) / n
        assert_same_bits(Phi_inv(lower), masked_ppnd16(lower))
        t = (np.arange(n) + 0.5) / n
        assert_same_bits(iso_profile(t), masked_iso_profile(t))

    @pytest.mark.parametrize("n", [PASS_BLOCK - 1, PASS_BLOCK + 1, 3 * PASS_BLOCK + 5])
    def test_blocks_match_single_shot(self, n):
        """Across PASS_BLOCK-element blocks, some central, some not."""
        t = np.concatenate((np.random.default_rng(n).uniform(0.1, 0.9, n - 2), [1e-9, 0.99]))
        assert_same_bits(_ppnd16(t), _ppnd16_block(t))
        assert_same_bits(iso_profile(t), _iso_profile_block(t))
