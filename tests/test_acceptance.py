"""Acceptance suite: the eight exit criteria, each printed as a pass/fail
line with its measured runtime (run with -s to see them).

Reference values are frozen from 40-digit mpmath evaluations; tolerances
are stated inline next to each assertion.
"""

import json
import time

import numpy as np

from gausym import (
    DEFAULT_NORM_FAMILY,
    Phi,
    Phi_inv,
    analyze,
    builtin_field,
    check_interval_bound,
    check_polya_szego,
    check_reformulated,
    convergence_study,
    equal_measure_grid,
    hinge_integrals,
    iso_profile,
    phi,
    ri_norm,
)
from gausym.cli import main as cli_main

from conftest import jet_at, majorized_pair, representatives

INV_SQRT_2PI = 0.3989422804014327
ACCEPTANCE_SEED = 20260811


def report(number: int, name: str, elapsed: float, checks: list[tuple[str, bool]]):
    ok = all(flag for _, flag in checks)
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} [{status}] {name} ({elapsed:.2f}s)")
    for label, flag in checks:
        print(f"    {'ok  ' if flag else 'FAIL'} {label}")
    assert ok, [label for label, flag in checks if not flag]


def test_criterion_1_special_functions():
    start = time.perf_counter()
    # 1000 points with |x| <= 6, drawn from the measure under study; the
    # upper tail beyond |x| ~ 5.2 cannot round-trip through a double
    # probability, so uniform coverage to 6 is unattainable in principle.
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    x = np.clip(rng.standard_normal(1000), -6.0, 6.0)
    round_trip = float(np.max(np.abs(Phi_inv(Phi(x)) - x)))

    center_err = abs(iso_profile(0.5) - INV_SQRT_2PI)

    t = np.linspace(0.05, 0.95, 1801)
    h = 1e-4
    second = (iso_profile(t + h) - 2 * iso_profile(t) + iso_profile(t - h)) / h**2
    curvature_err = float(np.max(np.abs(iso_profile(t) * second + 1.0)))
    elapsed = time.perf_counter() - start

    report(1, "special functions", elapsed, [
        (f"1000 points |x|<=6: max round-trip {round_trip:.2e} <= 1e-10",
         round_trip <= 1e-10 and float(np.max(np.abs(x))) <= 6.0),
        (f"I(1/2) error {center_err:.2e} <= 1e-12", center_err <= 1e-12),
        (f"max |I*I'' + 1| = {curvature_err:.2e} <= 1e-4 on [0.05,0.95], h=1e-4",
         curvature_err <= 1e-4),
        (f"runtime {elapsed:.2f}s < 1s", elapsed < 1.0),
    ])


def test_criterion_2_equimeasurability():
    start = time.perf_counter()
    grid = equal_measure_grid(1, 4096)
    points = representatives(grid)
    # |t|, t^2 and (|t| - 0.5)+
    youngs = (np.abs, np.square, lambda t: np.maximum(np.abs(t) - 0.5, 0.0))
    names = ("coordinate", "halfspace_indicator_smooth", "gaussian_bump",
             "mixture", "poly_tanh", "monotone1d")
    worst = 0.0
    for name in names:
        field = builtin_field(name)
        vals = np.abs(jet_at(field, points)[0])
        p = analyze(field, grid, 4096).p
        for A in youngs:
            # integral of A(|f|) over the grid against that of A(f*) over (0, 1)
            gap = abs(float(np.sum(A(vals)) * grid.cell_measure)
                      - float(np.sum(A(p.values) * p.widths)))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    report(2, "equimeasurability", elapsed, [
        (f"worst gap over corpus x Young family = {worst:.2e} <= 1e-12", worst <= 1e-12),
        (f"runtime {elapsed:.2f}s < 5s", elapsed < 5.0),
    ])


def test_criterion_3_gradient_rearrangement_bounds():
    start = time.perf_counter()
    checks = []
    for dim, N, M in ((1, 8192, 4096), (2, 128, 2048)):
        grid = equal_measure_grid(dim, N)
        for name in ("coordinate", "gaussian_bump", "poly_tanh", "mixture"):
            field = builtin_field(name, dim=dim)
            for run in (check_reformulated, check_polya_szego):
                rep = run(analyze(field, grid, M))
                checks.append((
                    f"{rep.check_name} {name} n={dim} N={N}: "
                    f"{rep.max_violation:+.2e} <= tol {rep.tolerance:.2e}",
                    rep.passed,
                ))
        mono = builtin_field("monotone1d", dim=dim)
        for run in (check_reformulated, check_polya_szego):
            rep = run(analyze(mono, grid, M), equality=True)
            checks.append((
                f"{rep.check_name} monotone1d n={dim} N={N} two-sided: "
                f"{rep.max_violation:.2e} <= tol {rep.tolerance:.2e}",
                rep.passed,
            ))
    elapsed = time.perf_counter() - start
    checks.append((f"runtime {elapsed:.1f}s < 60s", elapsed < 60.0))
    report(3, "reformulated and symmetrized gradient bounds", elapsed, checks)


def test_criterion_4_coordinate_closed_forms():
    start = time.perf_counter()
    coord = builtin_field("coordinate")
    checks = []

    # (a) rearrangement against Phi_inv(1 - s/2): measured in quantile
    # space (the oracle is unbounded toward s = 0, where a vertical sup
    # against a step profile is meaningless), plus the vertical gap on a
    # conservative interior window.
    for N in (1024, 4096):
        p = analyze(coord, equal_measure_grid(1, N), 4096).p
        mid = (np.arange(N) + 0.5) / N
        horizontal = float(np.max(np.abs(2.0 * (1.0 - Phi(p(mid))) - mid)))
        s = np.linspace(0.25, 0.9, 1500)
        vertical = float(np.max(np.abs(p(s) - Phi_inv(1.0 - s / 2.0))))
        checks.append((
            f"N={N}: quantile-space sup-gap {horizontal:.2e} <= 3/N={3.0/N:.2e}",
            horizontal <= 3.0 / N,
        ))
        checks.append((
            f"N={N}: value sup-gap on [0.25,0.9] {vertical:.2e} <= 3/N",
            vertical <= 3.0 / N,
        ))

    # (b) surrogate against I(s) / (2 phi(Phi_inv(1 - s/2))) on m_d = 4096
    # derivative bins; the grid is taken fine enough that each bin
    # averages several of the paired |x| values.
    a = analyze(coord, equal_measure_grid(1, 65536), 4096)
    surr, s = a.surr, (np.arange(a.m_d) + 0.5) / a.m_d
    closed = iso_profile(s) / (2.0 * phi(Phi_inv(1.0 - s / 2.0)))
    mask = (s >= 0.1) & (s <= 0.9)
    rel = float(np.max(np.abs(surr[mask] - closed[mask]) / closed[mask]))
    checks.append((f"m_d = {a.m_d} derivative bins", a.m_d == 4096))
    checks.append((f"surrogate relative error on [0.1,0.9] {rel:.2e} <= 5%", rel <= 0.05))

    # (c) level-set bound, pointwise value at s = 1/2
    at_half = float(surr[np.argmin(np.abs(s - 0.5))])
    checks.append((
        f"pointwise level-set value at s=1/2: {at_half:.4f} = 0.6276 +- 0.01",
        abs(at_half - 0.6276) <= 0.01,
    ))
    elapsed = time.perf_counter() - start
    report(4, "coordinate-field closed-form oracles", elapsed, checks)


def test_criterion_5_norm_domination():
    start = time.perf_counter()
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    worst_margin = np.inf
    agreements = 0
    n_pairs = 200
    t = np.arange(1, 1025) / 1024
    for _ in range(n_pairs):
        g, h = majorized_pair(rng)
        # partial sums: g is majorized by h on the t-grid
        partial = h.cumulative(t) - g.cumulative(t)
        assert np.min(partial) >= -1e-12
        # Calderon: every norm of the family orders the pair the same way
        worst_margin = min(worst_margin, *(ri_norm(h, X) - ri_norm(g, X)
                                           for X in DEFAULT_NORM_FAMILY))
        # Hardy-Littlewood-Polya, both ways round: hinge integrals ordered
        # at every kink of their gap (the profiles' values) iff partial sums
        # ordered, within 1e-10
        c = np.union1d(g.values, h.values)
        hinge = hinge_integrals(h, c) - hinge_integrals(g, c)
        if all((np.min(sign * hinge) >= -1e-10) == (np.min(sign * partial) >= -1e-10)
               for sign in (1.0, -1.0)):
            agreements += 1
    elapsed = time.perf_counter() - start
    report(5, "norm domination under majorization", elapsed, [
        (f"worst norm margin over {n_pairs} pairs = {worst_margin:.2e} >= -1e-9",
         worst_margin >= -1e-9),
        (f"hinge/partial-sum agreement on {agreements}/{n_pairs} pairs",
         agreements == n_pairs),
        (f"runtime {elapsed:.2f}s < 10s", elapsed < 10.0),
    ])


def test_criterion_6_interval_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    grid = equal_measure_grid(1, 4096)
    fields = [builtin_field("coordinate"), builtin_field("gaussian_bump")]
    analyses = {field.label: analyze(field, grid, 4096) for field in fields}
    all_pass = True
    for _ in range(20):
        m = int(rng.integers(1, 5))
        pts = np.sort(rng.uniform(0.02, 0.98, size=2 * m))
        intervals = pts.reshape(-1, 2)
        for field in fields:
            rep = check_interval_bound(analyses[field.label], intervals)
            all_pass &= rep.passed

    coord = fields[0]
    uno = check_reformulated(analyses[coord.label])
    worst_rhs_gap = 0.0
    lhs_dominated = True
    for t_star in (0.125, 0.375, 0.625, 0.875):
        rep = check_interval_bound(analyses[coord.label], [(0.0, t_star)])
        i = int(np.argmin(np.abs(uno.s_grid - t_star)))
        worst_rhs_gap = max(worst_rhs_gap, abs(rep.rhs_curve[-1] - uno.rhs_curve[i]))
        lhs_dominated &= bool(rep.lhs_curve[-1] <= uno.lhs_curve[i] + 1e-12)
    elapsed = time.perf_counter() - start
    report(6, "interval-union bound", elapsed, [
        ("20 random unions x 2 fields pass", all_pass),
        (f"E=(0,t) shares the cumulative gradient curve: gap {worst_rhs_gap:.2e} <= 1e-12",
         worst_rhs_gap <= 1e-12),
        ("unrearranged prefix mass dominated by the rearranged curve", lhs_dominated),
    ])


def test_criterion_7_convergence():
    start = time.perf_counter()
    field = builtin_field("gaussian_bump")
    finest = analyze(field, equal_measure_grid(1, 8192), 4096)
    rows = convergence_study(finest, ["uno"])
    violations = tuple(r.max_violation for r in rows)
    order = rows[0].extra["empirical_order"]
    positive = [max(v, 0.0) for v in violations]
    slack_ok = all(b <= max(1.5 * a, 1e-12) for a, b in zip(positive, positive[1:]))
    order_ok = order >= 0.5  # +inf when already at floor
    elapsed = time.perf_counter() - start
    report(7, "refinement convergence", elapsed, [
        (f"rungs {tuple(r.N for r in rows)} are 512, 2048, 8192",
         tuple(r.N for r in rows) == (512, 2048, 8192)),
        (f"violations {tuple(f'{v:+.2e}' for v in violations)} non-increasing "
         f"(factor-1.5 slack)", all(r.passed for r in rows) and slack_ok),
        (f"empirical order {order} >= 0.5", order_ok),
    ])


def test_criterion_8_cli(tmp_path, capsys):
    start = time.perf_counter()
    out = tmp_path / "r.json"
    code_a = cli_main([
        "--expr", "exp(-x1^2)", "--dim", "1", "--grid", "1024",
        "--checks", "uno,dos", "--out", str(out),
    ])
    with open(out, "r", encoding="utf-8") as fh:
        report_a = json.load(fh)
    schema_keys = {"name", "field", "dim", "N", "M", "tolerance",
                   "max_violation", "pass", "runtime_ms"}
    schema_ok = (
        report_a["version"] == 1
        and len(report_a["checks"]) == 2
        and all(schema_keys.issubset(e) and e["pass"] for e in report_a["checks"])
    )
    round_trip_ok = json.loads(json.dumps(report_a)) == report_a

    code_b = cli_main(["--builtin", "monotone1d", "--checks", "dos", "--equality"])
    code_c = cli_main(["--grid", "0"])
    err_text = capsys.readouterr().err
    elapsed = time.perf_counter() - start
    report(8, "command-line interface", elapsed, [
        (f"expression run exit {code_a} == 0 with 2 passing checks", code_a == 0 and schema_ok),
        ("report JSON round-trips", round_trip_ok),
        (f"equality run exit {code_b} == 0", code_b == 0),
        (f"invalid grid exit {code_c} == 2 with message", code_c == 2
         and "grid must be ≥ 2" in err_text),
    ])
