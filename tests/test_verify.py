"""Assembled inequality checks: trivial cases, closed forms, determinism."""

import json
import math
import threading
import tracemalloc

import numpy as np
import pytest

from gausym import (
    DomainError,
    IntervalError,
    NonFiniteFieldError,
    NonSmoothFieldError,
    Profile,
    analyze,
    builtin_field,
    check_interval_bound,
    check_mazya_talenti,
    check_norm_inequality,
    check_orlicz_equality,
    check_polya_szego,
    check_reformulated,
    convergence_study,
    equal_measure_grid,
    parse_field,
    parse_norm,
    run_checks,
)
from gausym import expr, majorize, rearrange, verify
from gausym.fields import ScalarField, corpus_names
from gausym.gaussian import BLOCK_CELLS, iso_profile
from gausym.majorize import HINGE_GRID_SIZE, hinge_integrals
from gausym.rearrange import PASS_BLOCK
from gausym.verify import CHECKS, validate_intervals

from conftest import (
    BLOCK_GRIDS,
    assert_same_bits,
    jet_at,
    past_a_block,
    representatives,
    sort_decreasing,
    symmetrized_field,
)


def gradient_norms(field, pts) -> np.ndarray:
    """|grad f| at each point of an (m, dim) batch."""
    return np.linalg.norm(jet_at(field, pts)[1], axis=1)


GRID_1K = equal_measure_grid(1, 1024)
# (dim, per-axis cell counts) that each builtin is analysed on in a scan
BUILTIN_SCAN = [(1, (64, 1001, 4096)), (2, (32, 63, 128)), (3, (12, 25))]
COORD = builtin_field("coordinate")
CONST = parse_field("2.0", 1)


def study(rows, name):
    """The rows of one check's study, as (Ns, violations, verdict, order,
    runtimes); every row of it carries the same verdict and order."""
    mine = [r for r in rows if r.check_name.startswith(f"converge:{name}[")]
    assert mine and len({(r.passed, r.extra["empirical_order"]) for r in mine}) == 1
    return (
        tuple(r.N for r in mine), tuple(r.max_violation for r in mine), mine[0].passed,
        mine[0].extra["empirical_order"], tuple(r.runtime_ms for r in mine),
    )


class TestTrivialCases:
    def test_constant_field_all_checks(self):
        a = analyze(CONST, GRID_1K, 512)
        reports = [
            check_reformulated(a),
            check_polya_szego(a),
            check_mazya_talenti(a),
            check_interval_bound(a, [(0.2, 0.4)]),
            check_orlicz_equality(a),
        ]
        for rep in reports:
            assert rep.passed
            assert abs(rep.max_violation) <= 1e-12
            assert np.allclose(rep.lhs_curve, 0.0) or rep.check_name == "mt"

    def test_coordinate_rhs_curve_is_t(self):
        # |grad f| is identically 1, so the cumulative rearrangement is t
        rep = check_reformulated(analyze(COORD, GRID_1K, 512))
        assert np.allclose(rep.rhs_curve, rep.s_grid, atol=1e-12)
        assert np.all(rep.lhs_curve <= rep.s_grid + rep.tolerance)


class TestEqualityCases:
    @pytest.mark.parametrize("name", ["monotone1d", "halfspace_indicator_smooth"])
    def test_two_sided_for_fixed_points(self, name):
        a = analyze(builtin_field(name), equal_measure_grid(1, 2048), 2048)
        for check in (check_reformulated, check_polya_szego):
            rep = check(a, equality=True)
            assert rep.passed, (name, rep.check_name, rep.max_violation, rep.tolerance)

    def test_equality_flag_two_sided(self):
        a = analyze(builtin_field("monotone1d"), GRID_1K, 1024)
        one = check_reformulated(a)
        two = check_reformulated(a, equality=True)
        assert two.max_violation >= one.max_violation


class TestMazyaTalenti:
    def test_coordinate(self):
        rep = check_mazya_talenti(analyze(COORD, equal_measure_grid(1, 4096), 4096))
        assert rep.passed
        assert rep.extra["pointwise_eligible_bins"] > 0
        assert rep.extra["pointwise_violation"] <= rep.tolerance

    def test_bump_cumulative(self):
        rep = check_mazya_talenti(
            analyze(builtin_field("gaussian_bump"), equal_measure_grid(1, 4096), 4096)
        )
        assert rep.passed
        assert rep.max_violation <= 1e-6

    # Both sides of the fold cut at the super-level set of measure t, on
    # at most m_d bins: with the level cut p(t) and up to M bins these
    # runs failed on the fold alone, though the inequality holds.
    @pytest.mark.parametrize("name,dim,N", [
        ("mixture", 1, 65536),
        ("gaussian_bump", 2, 128),
        ("gaussian_bump", 2, 256),
        ("gaussian_bump", 2, 512),
        ("poly_tanh", 2, 256),
        ("gaussian_bump", 3, 16),
        ("gaussian_bump", 3, 32),
        ("gaussian_bump", 3, 64),
        ("halfspace_indicator_smooth", 3, 125),
    ])
    def test_no_false_failure(self, name, dim, N):
        field = builtin_field(name, dim=dim)
        rep = check_mazya_talenti(analyze(field, equal_measure_grid(dim, N), 4096))
        assert rep.passed, (rep.max_violation, rep.tolerance)

    @pytest.mark.parametrize("dim,N", [(2, 1024), (3, 125)])
    def test_converges_on_the_cli_ladder(self, dim, N):
        finest = analyze(builtin_field("mixture", dim=dim), equal_measure_grid(dim, N), 4096)
        _, violations, passed, _, _ = study(convergence_study(finest, ["mt"]), "mt")
        assert passed, violations

    # Fold bins four derivative bins wide: on bins one wide, the lattice
    # error of the edge levels made the fold positive in the nearly
    # isoperimetric tail of these fields (N = 128 or 512 rung) while the
    # N / 16 rung read 0, so the ladder failed.
    @pytest.mark.parametrize("name,params", [
        ("mixture", {"m": 1.259, "c1": 1.064, "c2": 1.994}),
        ("mixture", {"m": 1.21, "c1": 0.969, "c2": 2.138}),
        ("mixture", {"m": 1.129, "c1": 0.938, "c2": 2.136}),
        ("gaussian_bump", {}),
    ])
    def test_ladder_steady_in_the_tail(self, name, params):
        N = 512 if params else 256
        field = builtin_field(name, params, dim=2)
        finest = analyze(field, equal_measure_grid(2, N), 4096)
        _, violations, passed, _, _ = study(convergence_study(finest, ["mt"]), "mt")
        assert passed, violations
        assert max(violations) <= 0.0, violations

    def test_median_drop_matches_numpy(self):
        """The analysis keeps np.median of f*'s positive single-cell drops,
        the same bits, read off one partition of all the drops."""
        analyses = [
            analyze(parse_field(text, 1), equal_measure_grid(1, N), 512, ["mt"])
            for text, N in [("2.0", 64), ("x1", 64), ("x1", 65), ("abs(x1) + 0.5", 200),
                            ("tanh(x1) + 0.1*x1^3", 301), ("exp(-x1^2)*cos(3*x1)", 1024)]
        ] + [
            analyze(builtin_field(name, dim=dim), equal_measure_grid(dim, N), 256, ["mt"])
            for dim, N in [(2, 31), (2, 64), (3, 15), (3, 16)] for name in corpus_names()
        ]
        parities = set()
        for a in analyses:
            positive = -np.diff(a.p.values)
            positive = positive[positive > 0.0]
            if positive.size == 0:
                assert a.mt_median_drop is None
            else:
                parities.add(positive.size % 2)
                assert_same_bits(np.array(a.mt_median_drop), np.array(np.median(positive)))
        assert analyses[0].mt_median_drop is None  # the constant field
        assert parities == {0, 1}
        assert analyze(COORD, GRID_1K, 512, ["uno"]).mt_median_drop is None

    def test_check_allocates_under_a_byte_a_cell(self):
        """Given its analysis, mt reads the median drop the analysis kept:
        it builds no grid-sized temporary (rebuilding f*'s single-cell drops
        in the check allocated 13.4 bytes a cell above what is kept)."""
        grid = equal_measure_grid(1, 2**18)
        a = analyze(builtin_field("poly_tanh"), grid, 4096, ["mt"])
        tracemalloc.start()
        try:
            rep = check_mazya_talenti(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed and rep.extra["pointwise_eligible_bins"] > 0
        assert peak < grid.num_cells

    def test_derivative_bins_unchanged_on_the_builtin_scan(self):
        """m_d, counted from the drops the analysis takes once, equals the
        count of levels more than an ulp-scaled tolerance apart on the
        whole profile, and derivative_bin_count gives it from those drops."""
        for dim, Ns in BUILTIN_SCAN:
            for name in corpus_names():
                for N in Ns:
                    grid = equal_measure_grid(dim, N)
                    a = analyze(builtin_field(name, dim=dim), grid, 4096, ["uno"])
                    values, K = a.p.values, grid.num_cells
                    tol = 1e-12 * (1.0 + abs(float(values[0])))
                    distinct = 1 + int(np.count_nonzero(np.diff(values) < -tol))
                    block = max(K / distinct, float(K // N))
                    divisor = 1 if block < 1.5 else int(np.ceil(2.0 * block))
                    assert a.m_d == max(8, min(4096, K // divisor)), (name, dim, N)
                    drops = values[:-1] - values[1:]
                    assert rearrange.derivative_bin_count(drops, values[0], 4096, K // N) == a.m_d


class TestDerivativeBinsAreUnitFree:
    """The tie floor of derivative_bin_count is relative to f*'s top, so
    m_d does not depend on the field's units: an absolute floor took
    every level of a field far below 1 for a tie."""

    @pytest.mark.parametrize("text", ["x1", "1e-6*x1", "1e-13*x1", "1e-170*x1"])
    def test_linear_fields_of_any_size(self, text):
        a = analyze(parse_field(text, 1), equal_measure_grid(1, 4096), 4096, ["uno"])
        assert a.m_d == 1024

    @pytest.mark.parametrize("text,dim,N", [
        ("tanh(x1 + 0.3*x1^3)", 1, 4096),
        ("exp(-x1^2)*cos(x2) + 0.1*x1", 2, 128),
        ("tanh(x1 + 0.5*x2*x3) + 0.3*sin(x2)", 3, 25),
    ])
    def test_power_of_two_scaling(self, text, dim, N):
        # 2^k * f scales every level and drop exactly
        grid = equal_measure_grid(dim, N)
        m_d = analyze(parse_field(text, dim), grid, 4096, ["uno"]).m_d
        for k in (-200, -40, 40, 200):
            scaled = parse_field(f"{2.0 ** k!r}*({text})", dim)
            assert analyze(scaled, grid, 4096, ["uno"]).m_d == m_d, k


class TestIntervalBound:
    COORD_2K = analyze(COORD, equal_measure_grid(1, 2048), 2048)

    def test_prefix_reduces_to_cumulative(self):
        t_star = 0.375
        unit = check_interval_bound(self.COORD_2K, [(0.0, t_star)])
        uno = check_reformulated(self.COORD_2K)
        i = int(np.argmin(np.abs(uno.s_grid - t_star)))
        # shared quadrature path for the gradient side
        assert abs(unit.rhs_curve[-1] - uno.rhs_curve[i]) <= 1e-12
        # unrearranged surrogate mass is dominated by its rearrangement
        assert unit.lhs_curve[-1] <= uno.lhs_curve[i] + 1e-12

    def test_full_interval_total_comparison(self):
        rep = check_interval_bound(self.COORD_2K, [(0.0, 1.0)])
        uno = check_reformulated(self.COORD_2K)
        # rearrangement preserves the total integral
        assert rep.lhs_curve[-1] == pytest.approx(uno.lhs_curve[-1], abs=1e-12)
        assert rep.passed

    def test_two_intervals(self):
        rep = check_interval_bound(analyze(COORD, GRID_1K, 1024), [(0.1, 0.2), (0.6, 0.7)])
        assert rep.passed
        assert rep.extra["total_length"] == pytest.approx(0.2)

    def test_overlap_rejected(self):
        a = analyze(COORD, GRID_1K, 4096)
        with pytest.raises(IntervalError):
            check_interval_bound(a, [(0.1, 0.5), (0.4, 0.7)])
        with pytest.raises(IntervalError):
            check_interval_bound(a, [(0.5, 0.2)])
        with pytest.raises(IntervalError):
            check_interval_bound(a, [(-0.1, 0.5)])

    def test_empty_union_rejected(self):
        with pytest.raises(IntervalError, match="need at least one interval"):
            validate_intervals([])

    @pytest.mark.parametrize("bad", [[(0.1, math.nan)], [(math.nan, 0.5)],
                                     [(0.1, 0.2), (math.nan, 0.7)]])
    def test_nan_bound_rejected(self, bad):
        with pytest.raises(IntervalError):
            validate_intervals(bad)


class TestOrliczEquality:
    def test_hinge_beyond_sup_vanishes(self):
        a = analyze(builtin_field("gaussian_bump"), equal_measure_grid(1, 1024), 1024)
        # both sides of the check, at thresholds past either profile's sup
        for prof in (a.surr_prof, a.sym_grad_prof):
            assert np.allclose(hinge_integrals(prof, np.array([50.0, 80.0])), 0.0)

    def test_thresholds_span_the_surrogate(self):
        a = analyze(builtin_field("gaussian_bump"), equal_measure_grid(1, 1024), 1024)
        rep = check_orlicz_equality(a)
        assert np.array_equal(rep.s_grid, np.linspace(0.0, a.surr_prof.sup, HINGE_GRID_SIZE))
        assert rep.extra == {"c_max": a.surr_prof.sup}
        assert rep.lhs_curve[-1] == 0.0

    def test_rejects_non_smooth(self):
        with pytest.raises(NonSmoothFieldError):
            check_orlicz_equality(analyze(parse_field("abs(x1)", 1), GRID_1K, 4096))

    def test_matches_dense_hinge_reference(self):
        # the former thresholds-by-cells computation of both sides
        grid = equal_measure_grid(2, 32)
        pipe = analyze(builtin_field("mixture", dim=2), grid, 512)
        rep = check_orlicz_equality(pipe)
        fo = symmetrized_field(pipe.p, dim=2, n_bins=pipe.m_d)
        sym_grad = gradient_norms(fo, representatives(grid))
        c = rep.s_grid[:, None]
        lhs = np.mean(np.maximum(pipe.surr[None, :] - c, 0.0), axis=1)
        rhs = np.sum(np.maximum(sym_grad[None, :] - c, 0.0), axis=1) * grid.cell_measure
        assert np.allclose(rep.lhs_curve, lhs, rtol=0.0, atol=1e-12 * lhs[0])
        assert np.allclose(rep.rhs_curve, rhs, rtol=0.0, atol=1e-12 * rhs[0])


class TestNormInequality:
    def test_corpus_passes(self):
        grid = equal_measure_grid(1, 2048)
        for name in ("coordinate", "gaussian_bump", "mixture",
                     "poly_tanh", "monotone1d", "halfspace_indicator_smooth"):
            reports = check_norm_inequality(analyze(builtin_field(name), grid, 2048))
            assert all(r.passed for r in reports), name

    def test_custom_family(self):
        norms = [parse_norm("lp:2"), parse_norm("lorentz:2")]
        reports = check_norm_inequality(analyze(COORD, GRID_1K, 512), norms)
        assert [r.check_name for r in reports] == ["norm:lp:2", "norm:lorentz:2"]

    def test_sup_norm_coordinate(self):
        # the surrogate's sup stays below sup |grad f| = 1 plus tolerance
        reports = check_norm_inequality(analyze(COORD, equal_measure_grid(1, 8192), 4096))
        sup_report = next(r for r in reports if r.check_name == "norm:lp:inf")
        assert sup_report.rhs_curve[0] == pytest.approx(1.0, abs=1e-12)
        assert sup_report.lhs_curve[0] <= 1.0 + sup_report.tolerance


class TestReportContract:
    def test_invariants(self):
        rep = check_reformulated(analyze(COORD, GRID_1K, 777))
        assert rep.passed == (rep.max_violation <= rep.tolerance)
        assert len(rep.lhs_curve) == len(rep.rhs_curve) == rep.M == 777
        assert rep.runtime_ms >= 0

    def test_entry_schema_and_json(self):
        rep = check_polya_szego(analyze(COORD, GRID_1K, 512))
        entry = rep.entry()
        assert set(entry) == {
            "name", "field", "dim", "N", "M",
            "tolerance", "max_violation", "pass", "runtime_ms",
        }
        assert json.loads(json.dumps(entry)) == entry

    def test_deterministic(self):
        a = check_reformulated(analyze(builtin_field("mixture"), GRID_1K, 640))
        b = check_reformulated(analyze(builtin_field("mixture"), GRID_1K, 640))
        assert a.max_violation == b.max_violation
        assert np.array_equal(a.lhs_curve, b.lhs_curve)
        assert np.array_equal(a.rhs_curve, b.rhs_curve)

    def test_tolerance_doubles_for_non_smooth(self):
        # |x1| has the same rearrangement and gradient magnitudes as x1,
        # so the only difference is the non-smooth doubling
        smooth = check_reformulated(analyze(COORD, GRID_1K, 512))
        kinked = check_reformulated(analyze(parse_field("abs(x1)", 1), GRID_1K, 512))
        assert kinked.tolerance == pytest.approx(2.0 * smooth.tolerance, rel=1e-6)

    def test_smoothness_required(self):
        with pytest.raises(NonSmoothFieldError):
            check_polya_szego(analyze(parse_field("abs(x1)", 1), GRID_1K, 4096))


class TestCorpusIntegration:
    @pytest.mark.parametrize("dim,N,M", [(1, 1024, 1024), (2, 32, 512)])
    def test_all_checks_pass_on_corpus(self, dim, N, M):
        grid = equal_measure_grid(dim, N)
        names = ("coordinate", "halfspace_indicator_smooth", "gaussian_bump",
                 "mixture", "poly_tanh", "monotone1d")
        for name in names:
            a = analyze(builtin_field(name, dim=dim), grid, M)
            reports = [
                check_reformulated(a),
                check_polya_szego(a),
                check_mazya_talenti(a),
                check_interval_bound(a, [(0.1, 0.3), (0.5, 0.8)]),
                check_orlicz_equality(a),
                *check_norm_inequality(a),
            ]
            for rep in reports:
                assert rep.passed, (
                    name, dim, rep.check_name, rep.max_violation, rep.tolerance
                )


class TestConvergenceStudy:
    def test_constant_field(self):
        rows = convergence_study(analyze(CONST, GRID_1K, 512), ["uno"])
        assert [r.check_name for r in rows] == [f"converge:uno[N={n}]" for n in (64, 256, 1024)]
        Ns, violations, passed, order, _ = study(rows, "uno")
        assert Ns == (64, 256, 1024)
        assert violations == (0.0, 0.0, 0.0)
        assert passed
        assert order == np.inf
        # the study's worst violation, at least the round-off floor
        assert all(r.tolerance == 1e-12 for r in rows)

    def test_coordinate_nonincreasing(self):
        finest = analyze(COORD, equal_measure_grid(1, 4096), 4096)
        rows = convergence_study(finest, ["uno"])
        _, violations, passed, _, _ = study(rows, "uno")
        positive = [max(v, 0.0) for v in violations]
        assert passed
        assert all(b <= max(1.5 * a, 1e-12) for a, b in zip(positive, positive[1:]))
        assert all(r.tolerance == max(max(violations), 1e-12) for r in rows)

    def test_rungs_take_the_field_dimension(self):
        field = builtin_field("mixture", dim=2)
        rows = convergence_study(analyze(field, equal_measure_grid(2, 16), 256), ["uno"])
        expected = tuple(
            check_reformulated(analyze(field, equal_measure_grid(2, n), 256)).max_violation
            for n in (2, 4, 16)
        )
        assert study(rows, "uno")[1] == expected
        assert [(r.dim, r.M) for r in rows] == [(2, 256)] * 3

    def test_rows_carry_each_rung_check_time(self, monkeypatch):
        # a clock that moves 4 ms a reading: each check reads it twice
        clock = iter(np.arange(0.0, 100.0, 0.004))
        monkeypatch.setattr(verify.time, "perf_counter", lambda: float(next(clock)))
        a = analyze(builtin_field("mixture", dim=2), equal_measure_grid(2, 64), 256)
        rows = convergence_study(a, ["uno", "mt"])
        assert [study(rows, c)[4] for c in ("uno", "mt")] == [(4, 4, 4)] * 2
        rows = run_checks(a, ["dos", "converge"])[1:]
        assert [r.runtime_ms for r in rows] == [4] * 3 and rows[0].check_name == "converge:dos[N=4]"

    def test_finest_rung_is_the_analysis(self):
        finest = analyze(builtin_field("mixture", dim=2), equal_measure_grid(2, 32), 512)
        rows = convergence_study(finest, ["uno", "dos", "mt"])
        assert [study(rows, c)[1][-1] for c in ("uno", "dos", "mt")] == [
            check(finest).max_violation
            for check in (check_reformulated, check_polya_szego, check_mazya_talenti)
        ]

    def test_tolerance_override_keeps_the_verdict(self):
        # a failing ladder (the coarse mt rung reads at or below 0): a
        # --tol puts itself on every row and changes no verdict
        a = analyze(builtin_field("monotone1d", dim=2), equal_measure_grid(2, 256), 4096)
        plain = run_checks(a, ["mt", "converge"])[1:]
        assert not any(r.passed for r in plain)
        overridden = run_checks(a, ["mt", "converge"], tol=10.0)[1:]
        assert [r.tolerance for r in overridden] == [10.0] * 3
        assert [(r.check_name, r.max_violation, r.passed, r.extra) for r in overridden] == [
            (r.check_name, r.max_violation, r.passed, r.extra) for r in plain
        ]


class TestCheckTable:
    def test_rows_match_direct_calls(self):
        a = analyze(builtin_field("mixture", dim=2), equal_measure_grid(2, 32), 512)
        norms = [parse_norm("lp:2"), parse_norm("orlicz:expsq")]
        rows = run_checks(a, list(CHECKS), tol=0.25, equality=True, norms=norms,
                          intervals=[(0.1, 0.4)])
        direct = [
            check_reformulated(a, equality=True, tol=0.25),
            check_polya_szego(a, equality=True, tol=0.25),
            *check_norm_inequality(a, norms, tol=0.25),
            check_mazya_talenti(a, tol=0.25),
            check_interval_bound(a, [(0.1, 0.4)], tol=0.25),
            check_orlicz_equality(a, tol=0.25),
        ]
        assert [r.check_name for r in rows[:len(direct)]] == [r.check_name for r in direct]
        for row, rep in zip(rows, direct):
            assert (row.max_violation, row.tolerance) == (rep.max_violation, rep.tolerance)
            assert_same_bits(row.lhs_curve, rep.lhs_curve)
            assert_same_bits(row.rhs_curve, rep.rhs_curve)
        # converge runs uno, dos and mt one-sided on the ladder 2, 8, 32
        converge = rows[len(direct):]
        assert [r.check_name for r in converge] == [
            f"converge:{c}[N={n}]" for c in ("uno", "dos", "mt") for n in (2, 8, 32)
        ]
        assert all(r.tolerance == 0.25 for r in converge)
        assert converge[2].max_violation == check_reformulated(a).max_violation

    @pytest.mark.parametrize("intervals", [None, [0.1, 0.2, 0.3], [(0.1, 0.2), (0.3,)]],
                             ids=["missing", "odd-bounds", "ragged"])
    def test_bad_intervals_raise_interval_error(self, intervals):
        a = analyze(COORD, equal_measure_grid(1, 64), 64)
        with pytest.raises(IntervalError, match="pairs"):
            run_checks(a, ["interval"], intervals=intervals)

    def test_unknown_token_names_the_valid_ones(self):
        a = analyze(COORD, equal_measure_grid(1, 64), 64)
        with pytest.raises(DomainError, match="'bogus'.*uno,dos,norm,mt,interval,orlicz,converge"):
            run_checks(a, ["uno", "bogus"])

    def test_mt_needs_an_analysis_built_for_it(self):
        a = analyze(COORD, equal_measure_grid(1, 64), 64, ["uno", "converge"])
        assert a.mt_edges is None and a.mt_surr_cum is None and a.mt_grad_cum is None
        with pytest.raises(DomainError, match="'mt'"):
            check_mazya_talenti(a)
        with pytest.raises(DomainError, match="'mt'"):
            run_checks(a, ["mt"])
        with pytest.raises(DomainError, match="'mt'"):
            run_checks(a, ["uno", "converge", "mt"])
        assert run_checks(analyze(COORD, equal_measure_grid(1, 64), 64, ["mt"]), ["mt"])[0].passed

    def test_analysis_refuses_unknown_tokens(self):
        with pytest.raises(DomainError, match="'bogus'"):
            analyze(COORD, equal_measure_grid(1, 64), 64, ["uno", "bogus"])

    def test_analysis_refuses_a_short_t_grid(self):
        with pytest.raises(DomainError, match="s-grid needs M >= 8, got 4"):
            analyze(COORD, equal_measure_grid(1, 64), 4)

    def test_converge_alone_studies_uno(self):
        a = analyze(COORD, GRID_1K, 512)
        rows = run_checks(a, ["converge"])
        assert [r.check_name for r in rows] == [f"converge:uno[N={n}]" for n in (64, 256, 1024)]
        assert rows[0].tolerance == max(max(r.max_violation for r in rows), 1e-12)


class TestAnalysisSorts:
    """The analysis sorts values and takes the symmetrized gradient on the
    x1 axis; the full-grid argsort forms stay here as the references, with
    their cumulatives one whole-array cumsum: the running sums' bits at a
    chunk of 1 (``rearrange.SUM_CHUNK``)."""

    @pytest.mark.parametrize("dim,N", [(1, 64), (1, 63), (2, 32), (2, 33), (3, 12), (3, 13)])
    def test_matches_full_grid_argsort_reference(self, dim, N, monkeypatch):
        monkeypatch.setattr(rearrange, "SUM_CHUNK", 1)
        field, grid = builtin_field("mixture", dim=dim), equal_measure_grid(dim, N)
        a = analyze(field, grid, 512)
        reps, K = representatives(grid), grid.num_cells
        vals = np.abs(jet_at(field, reps)[0])
        order = np.argsort(-vals, kind="stable")
        assert_same_bits(a.p.values, vals[order])
        grads_by_level = gradient_norms(field, reps)[order]
        prefix = np.concatenate(([0.0], np.cumsum(grads_by_level * grid.cell_measure)))
        # kept only where mt reads it: the t-grid, then the fold edges
        reads = np.concatenate((a.t_grid, a.mt_edges))
        assert_same_bits(a.mt_grad_cum, prefix[np.rint(reads * K).astype(int)])
        fo = symmetrized_field(a.p, dim=dim, n_bins=a.m_d)
        sym_vals = gradient_norms(fo, reps)
        sym_ref = sym_vals[np.argsort(-sym_vals, kind="stable")]
        # N pieces of width 1/N: the same step function as the K-piece reference
        assert_same_bits(np.repeat(a.sym_grad_prof.values, K // N), sym_ref)

    # K = 5000 is no multiple of M = 512: at about half the t-grid, floor(tK)
    # and round(tK) differ, as do the mt cuts at the fold edges
    @pytest.mark.parametrize("block,dim,N", [
        (1, 1, 301), (3, 2, 33), (64, 2, 33), (PASS_BLOCK, 1, 2 * PASS_BLOCK + 5),
        (PASS_BLOCK, 2, 183), (64, 1, 5000),
    ])
    def test_surrogate_matches_jump_list_reference(self, block, dim, N, monkeypatch):
        """The surrogate's bin means, and with mt its cumulative over the
        first min(round(tK), K-1) pieces for t on the t-grid and the fold
        edges, where mt's level side cuts, equal, bit for bit, those read
        off the running sum over the positive drops alone, located by
        searchsorted."""
        monkeypatch.setattr(rearrange, "PASS_BLOCK", block)
        monkeypatch.setattr(rearrange, "SUM_CHUNK", 1)
        grid = equal_measure_grid(dim, N)
        for field in (builtin_field("mixture", dim=dim), parse_field("abs(x1) + 0.5", dim)):
            for checks in (None, ["uno"]):
                a = analyze(field, grid, 512, checks)
                values, knots = a.p.values, a.p.knots
                jumps = values[:-1] - values[1:]
                at, size = knots[1:-1][jumps > 0.0], jumps[jumps > 0.0]
                prev = np.concatenate(([0.0], at[:-1]))
                mass = size * iso_profile(at - 0.5 * np.minimum(at - prev, 1.0 / a.m_d))
                cum = np.concatenate(([0.0], np.cumsum(mass)))

                def cum_at(t):
                    return cum[np.searchsorted(at, t, side="right")]

                edge_cum = cum_at(np.arange(a.m_d + 1) / a.m_d)
                assert_same_bits(a.surr, (edge_cum[1:] - edge_cum[:-1]) * a.m_d)
                if checks is None:
                    reads = np.concatenate((a.t_grid, a.mt_edges))
                    cut = np.minimum(np.rint(reads * grid.num_cells), grid.num_cells - 1)
                    assert_same_bits(a.mt_surr_cum, cum_at(cut / grid.num_cells))
                else:
                    assert a.mt_surr_cum is None

    @pytest.mark.parametrize("text,N", [("sqrt(x1)", 64), ("1/x1", 125), ("x1/abs(x1)", 33)])
    def test_non_finite_field_refused(self, text, N):
        with pytest.raises(NonFiniteFieldError, match="at x = "):
            analyze(parse_field(text, 1), equal_measure_grid(1, N), 512)


class TestSharedGradientCumulative:
    """The analysis reads (|grad f|)*'s cumulative at the t-grid once, and
    sorts |grad f| in place on the calling thread before it builds the
    surrogate."""

    def test_kept_cumulative_is_the_rhs_of_uno_and_dos(self):
        a = analyze(builtin_field("mixture", dim=2), equal_measure_grid(2, 96), 512)
        assert_same_bits(a.grad_cum, a.grad_prof.cumulative(a.t_grid))
        assert not a.grad_cum.flags.writeable
        uno, dos = run_checks(a, ["uno", "dos"])
        assert uno.rhs_curve is a.grad_cum and dos.rhs_curve is a.grad_cum
        assert check_reformulated(a).rhs_curve is a.grad_cum

    def test_uno_and_dos_run_no_grid_sized_sum(self, monkeypatch):
        grid = equal_measure_grid(3, 24)
        a = analyze(parse_field("tanh(x1 + 0.5*x2*x3) + 0.3*sin(x2)", 3), grid, 512, ["uno", "dos"])
        # dos's symmetrized field reads f*'s bin means, once per analysis
        assert a.sym_grad_prof.num_pieces == 24
        lengths, running_sum_at = [], rearrange.running_sum_at

        def counting(increments, at):
            lengths.append(int(at.max(initial=0)))
            return running_sum_at(increments, at)

        monkeypatch.setattr(rearrange, "running_sum_at", counting)
        run_checks(a, ["uno", "dos"])
        assert lengths and max(lengths) <= max(a.m_d, 24) < grid.num_cells

    def test_every_analysis_keeps_the_cumulative(self):
        grid = equal_measure_grid(1, 256)
        ref = analyze(COORD, grid, 64).grad_cum
        for checks in (["norm", "mt"], ["mt", "converge"], ["dos"], ["converge"],
                       ["mt", "dos", "converge"], ["interval"]):
            a = analyze(COORD, grid, 64, checks)
            assert "grad_cum" in vars(a) and not a.grad_cum.flags.writeable
            assert_same_bits(a.grad_cum, ref)

    def test_no_thread_left_running(self, monkeypatch):
        before = threading.active_count()
        field, grid = builtin_field("mixture", dim=2), equal_measure_grid(2, 64)
        analyze(field, grid, 512)
        assert threading.active_count() == before

        def refuse(*args):
            raise ZeroDivisionError("surrogate")

        monkeypatch.setattr(verify, "_surrogate_at", refuse)
        with pytest.raises(ZeroDivisionError, match="surrogate"):
            analyze(field, grid, 512)
        assert threading.active_count() == before

    def test_one_thread_and_no_blas(self, monkeypatch):
        """Every check runs on the calling thread and sums without BLAS,
        whose bits depend on its thread count.  The 65536-piece gradient
        profile of 2-d mixture at N = 256 takes the Luxemburg bracket from
        coarse profiles."""

        def refuse(*args, **kwargs):
            raise AssertionError("a thread or a BLAS call")

        brackets, coarse_bracket = [], majorize._coarse_bracket

        def counting(p, *args):
            brackets.append(p.num_pieces)
            return coarse_bracket(p, *args)

        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(np, "dot", refuse)
        monkeypatch.setattr(majorize, "_coarse_bracket", counting)
        a = analyze(builtin_field("mixture", dim=2), equal_measure_grid(2, 256), 1024)
        rows = run_checks(a, list(CHECKS), intervals=[(0.1, 0.9)])
        assert rows and all(row.passed for row in rows)
        assert 256 * 256 in brackets


class TestBlockedSampling:
    """The analysis samples |f| and |grad f| one block of whole grid rows,
    about BLOCK_CELLS cells, at a time; whole-grid evaluation stays here as
    the reference."""

    EXPRESSIONS = ("tanh(x1 + 0.5*x2*x3) + 0.3*sin(x2)", "exp(-x1^2)*cos(x2) + 0.1*x1*x3")

    # and 129 rows of 129 cells: 63 rows a block, 129 not a multiple of 63
    @pytest.mark.parametrize("dim,N", [*BLOCK_GRIDS, (2, 129)])
    def test_matches_whole_grid_evaluation(self, dim, N):
        grid = equal_measure_grid(dim, N)
        assert grid.num_cells > BLOCK_CELLS and grid.num_cells % BLOCK_CELLS
        step = max(1, BLOCK_CELLS // grid.row_cells)
        assert grid.num_rows > step and grid.num_rows % step
        reps = representatives(grid)
        fields = [builtin_field(name, dim=dim) for name in corpus_names()]
        for text in self.EXPRESSIONS:
            # the parser accepts coordinates up to x<dim> only
            for k in range(dim + 1, 4):
                text = text.replace(f"x{k}", f"x{dim}")
            fields.append(parse_field(text, dim))
        for field in fields:
            a = analyze(field, grid, 512)
            values, grads = jet_at(field, reps)
            grads = np.linalg.norm(grads, axis=1)
            assert_same_bits(a.p.values, sort_decreasing(np.abs(values)))
            assert_same_bits(a.grad_prof.values, sort_decreasing(grads))
            assert a.grad_max == float(np.max(grads))

    def test_axis_terms_run_once_per_row(self, monkeypatch):
        # sin(x2) and its derivative depend on a leading axis alone: on the
        # row coordinates they see one value per row, 17^2, not 17^3 cells
        seen = {"sin": 0, "d sin": 0}
        sin, dsin = expr.FUNCTIONS["sin"], expr.DERIVATIVES["sin"]

        def counting_sin(a):
            seen["sin"] += np.size(a)
            return sin(a)

        def counting_dsin(a, v):
            seen["d sin"] += np.size(a)
            return dsin(a, v)

        monkeypatch.setitem(expr.FUNCTIONS, "sin", counting_sin)
        monkeypatch.setitem(expr.DERIVATIVES, "sin", counting_dsin)
        analyze(parse_field(self.EXPRESSIONS[0], 3), equal_measure_grid(3, 17), 512)
        assert seen == {"sin": 17**2, "d sin": 17**2}

    @pytest.mark.parametrize("dim,N", [(1, 4096), (2, 64)])
    def test_no_grid_sized_knot_or_width_array_is_kept(self, dim, N):
        """Every profile of the analysis keeps its values and no knot or
        width array, after every check, ``norm`` and ``dos`` too; the knots
        it is read on are those of ``uniform_knots``."""
        grid = equal_measure_grid(dim, N)
        a = analyze(builtin_field("mixture", dim=dim), grid, 512)
        run_checks(a, list(CHECKS), intervals=[(0.1, 0.2)])
        for prof in (a.p, a.grad_prof, a.surr_prof, a.sym_grad_prof):
            assert vars(prof) == {"values": prof.values}
            assert np.ndim(prof.widths) == 0
        assert_same_bits(a.p.knots, np.arange(N**dim + 1) / N**dim)
        assert not a.p.knots.flags.writeable
        # nor does the analysis itself, beside its profiles' values
        assert not [name for name, v in vars(a).items()
                    if isinstance(v, np.ndarray) and v.size >= grid.num_cells]

    def test_profiles_pass_validation_unchanged_on_the_builtin_scan(self):
        """The analysis builds every profile without Profile's validating
        re-scan, so each must already be what validation would leave:
        read-only, NaN-free and nonincreasing."""
        for dim, Ns in BUILTIN_SCAN:
            for name in corpus_names():
                for N in Ns:
                    a = analyze(builtin_field(name, dim=dim), equal_measure_grid(dim, N), 4096,
                                ["uno", "dos"])
                    for prof in (a.p, a.grad_prof, a.surr_prof, a.sym_grad_prof):
                        assert not prof.values.flags.writeable
                        assert not np.any(np.isnan(prof.values)), (name, dim, N)
                        assert Profile(prof.values).values is prof.values

    def test_first_bad_point_named_across_blocks(self):
        B = BLOCK_CELLS
        grid = equal_measure_grid(1, B + 3)
        x = grid.axis_points
        # |f| is bad from cell B + 1 on, |grad f| already from cell B, the
        # first of the second block: the |f| check comes first, as it did
        # on the whole grid
        f = lambda xs: np.where(xs[0] >= x[B + 1], np.nan, 1.0)  # noqa: E731
        field = ScalarField(1, "edge", lambda xs: (f(xs), (np.where(xs[0] >= x[B], np.inf, 0.0),)))
        with pytest.raises(NonFiniteFieldError, match=rf"\|f\| = nan at x = \({x[B + 1]:.17g}\)"):
            analyze(field, grid, 512)

    def test_first_bad_point_named_in_row_blocks(self):
        # N^2 rows, step a block (21^2 and 390 at BLOCK_CELLS = 8192): the
        # first bad cell, (i, 0, 3) in C order with i = step // N + 1, sits
        # in row i * N, in the second block, where the field broadcasts a
        # (r, 1) and a (1, N) axis
        N = past_a_block(3)
        step = BLOCK_CELLS // N
        i = step // N + 1
        assert step <= i * N < min(2 * step, N * N)
        grid = equal_measure_grid(3, N)
        x = grid.axis_points
        f = lambda xs: np.where((xs[0] == x[i]) & (xs[2] == x[3]), np.inf, xs[1])  # noqa: E731
        field = ScalarField(3, "spot", lambda xs: (f(xs), (0.0, 1.0, 0.0)))
        named = ", ".join(f"{c:.17g}" for c in (x[i], x[0], x[3]))
        with pytest.raises(NonFiniteFieldError, match=rf"\|f\| = inf at x = \({named}\)"):
            analyze(field, grid, 512)

    ALL = ("uno", "dos", "norm", "mt", "interval", "orlicz", "converge")

    @pytest.mark.parametrize("make,dim,N,checks,kept_bound,peak_bound", [
        (lambda: parse_field("tanh(x1 + 0.5*x2*x3) + 0.3*sin(x2)", 3), 3, 64,
         ("uno", "dos"), 17, 27),
        (lambda: builtin_field("mixture", dim=2), 2, 512, ALL, 18, 35),
        (lambda: builtin_field("poly_tanh"), 1, 2**18, ("uno", "norm", "mt", "interval"),
         18, 35),
        (lambda: builtin_field("poly_tanh"), 1, 2**18, ("uno", "dos", "orlicz"), 26, 34),
    ], ids=["expr-3d", "mixture-2d", "poly-tanh-1d", "poly-tanh-1d-sym"])
    def test_peak_memory_per_cell(self, make, dim, N, checks, kept_bound, peak_bound):
        """The analysis together with its checks stays within these bytes
        of numpy allocations per cell.  Keeping the unsorted |f| and
        |grad f|, sorting copies of them and building the surrogate from
        whole-grid temporaries, it kept 68.2 and peaked at 75.0 on expr-3d,
        and peaked at 92.8 on mixture-2d.  Keeping both cumulatives as
        arrays of K+1 floats, it kept 40.7 on expr-3d and peaked at 74.1
        on mixture-2d and 73.5 on poly-tanh-1d.  With a fresh A(scaled) per
        Luxemburg pass and an np.diff of the powered Lorentz knots, it
        peaked at 57.5 on poly-tanh-1d.  Caching each cumulated profile's
        whole prefix mass, it kept 32.7 on expr-3d, 41.4 on mixture-2d and
        41.8 on poly-tanh-1d, and peaked at 57.3 and 54.5 on the last two.
        Powering the Marcinkiewicz norm's knots as one whole-profile
        temporary, it peaked at 49.4 on poly-tanh-1d.  Rebuilding f*'s
        single-cell drops inside mt for their median, it peaked at 49.2 on
        mixture-2d and 46.4 on poly-tanh-1d.  Building the symmetrized
        gradient on knots of its own, through a masked gather and scatter
        and the validating Profile(), it kept 41.0 and peaked at 74.0 on
        poly-tanh-1d-sym.  With a knot array k/K kept beside the values of
        f* and (|grad f|)*, the norms' cached widths, and phi's whole-array
        temporaries, it kept 24.6, 33.2, 33.6 and 32.9, and peaked at 34.0,
        41.8, 42.3 and 49.0."""
        field, grid = make(), equal_measure_grid(dim, N)
        tracemalloc.start()
        try:
            analysis = analyze(field, grid, 4096, checks)
            rows = run_checks(analysis, checks, intervals=[(0.1, 0.2), (0.6, 0.7)])
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) >= len(checks)
        assert kept <= kept_bound * grid.num_cells
        assert peak <= peak_bound * grid.num_cells

    def test_dos_and_orlicz_leave_no_grid_sized_cache(self):
        """No profile of the analysis caches an array of the grid's size
        (the cumulative reads a running sum, not a kept prefix), and in
        1-d the symmetrized gradient's N pieces are f*'s K, without knots."""
        for dim, N in [(2, 128), (1, 16384)]:
            grid = equal_measure_grid(dim, N)
            a = analyze(builtin_field("mixture", dim=dim), grid, 512)
            run_checks(a, ["dos", "orlicz"])
            assert a.sym_grad_prof.num_pieces == N
            for prof in (a.p, a.grad_prof, a.surr_prof, a.sym_grad_prof):
                cached = {
                    name for name, v in vars(prof).items()
                    if name != "values" and np.size(v) >= grid.num_cells
                }
                assert not cached
