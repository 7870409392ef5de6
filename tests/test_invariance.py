"""Exact symmetries of the checks: permuting a field's axes, or flipping
the sign of some of them, leaves every report row of the six curve
checks the same; scaling the field by 2^k scales every row by 2^k; and
an x1-only field gives the same rows on a grid of any dimension.

The equal-measure grid is a product of one axis grid symmetric about 0,
so either transform maps its cells onto its cells and keeps the Gaussian
measure; the field and its transform have the same pairs (|f|, |grad f|)
over the cells.  A field is transformed by rewriting its expression, xi
as x(p(i)) or as (-xi), so that it takes the same values by the same
arithmetic, and its rows must be bit-identical.  The one exception is a
3-d permutation: |grad f| sums the squared partials in axis order, so a
curve may move by rounding, at most one machine epsilon of its scale.

Scaling by a power of two is exact in every product and sum, so the
rows of 2^k f are those of f times 2^k, bit for bit, but for two norms
whose last step is no power-of-two map: the 1/1.5 power of lp:1.5's
sum, and the Luxemburg norm, found to a relative root tolerance.  The
``converge`` rows are left out: their absolute floor does not scale.
"""

import functools
import itertools
import math
import re

import numpy as np
import pytest

from gausym import (
    DEFAULT_NORM_FAMILY, RINorm, analyze, equal_measure_grid, parse_field, run_checks,
)
from gausym.majorize import _REL_TOL

from conftest import assert_same_bits

CHECKS = ["uno", "dos", "norm", "mt", "interval", "orlicz"]
INTERVALS = [(0.1, 0.3), (0.5, 0.8)]
EPS = float(np.finfo(float).eps)

# expression -> (dim, N); 129 rows of 129 cells are no whole number of
# sampling blocks
FIELDS = {
    "exp(-x1^2)*cos(x2) + 0.1*x1": (2, 129),
    "sqrt(1+x1^2)*cos(x2) + exp(-x1^2)*tanh(x2)/(2+sin(x1))": (2, 64),
    "tanh(x1 + 0.5*x2*x3) + 0.3*sin(x2)": (3, 33),
    "exp(-(x1^2 + 2*x2^2 + 3*x3^2)/8) + 0.2*x1 - 0.1*x2*x3": (3, 24),
}


def transforms(dim: int) -> dict:
    """Name -> the rewrite of axis i, for every axis permutation and sign
    flip but the identity: ``perm312`` takes x1 to x3, x2 to x1 and x3 to
    x2, and ``flip13`` negates x1 and x3."""
    axes = tuple(range(1, dim + 1))
    out = {}
    for p in itertools.permutations(axes):
        if p != axes:
            out["perm" + "".join(map(str, p))] = lambda i, p=p: f"x{p[i - 1]}"
    for k in axes:
        for s in itertools.combinations(axes, k):
            out["flip" + "".join(map(str, s))] = lambda i, s=s: f"(-x{i})" if i in s else f"x{i}"
    return out


# lp:1100 powers the top of every profile past the double range
NORMS = (*DEFAULT_NORM_FAMILY, RINorm("lp", 1100.0))


@functools.cache
def rows(text: str, dim: int, N: int, M: int = 4096) -> tuple:
    a = analyze(parse_field(text, dim), equal_measure_grid(dim, N), M, CHECKS)
    return tuple(run_checks(a, CHECKS, intervals=INTERVALS, norms=NORMS))


def assert_same_rows(text: str, name: str, mt: bool):
    """The rows of ``text`` and of its transform ``name``, those of ``mt``
    alone or every other, bit-identical; after a 3-d permutation, the
    same verdicts and curves within one epsilon of each curve's scale."""
    dim, N = FIELDS[text]
    rewrite = transforms(dim)[name]
    moved = re.sub(r"x(\d)", lambda m: rewrite(int(m.group(1))), text)
    pairs = [
        (r, q) for r, q in zip(rows(text, dim, N), rows(moved, dim, N), strict=True)
        if (r.check_name == "mt") == mt
    ]
    rounding = name.startswith("perm") and dim == 3
    assert pairs
    for r, q in pairs:
        assert (r.check_name, r.N, r.M, r.passed) == (q.check_name, q.N, q.M, q.passed)
        for curve in ("s_grid", "lhs_curve", "rhs_curve"):
            a, b = getattr(r, curve), getattr(q, curve)
            if rounding:
                assert np.max(np.abs(a - b)) <= EPS * np.max(np.abs(b)), (r.check_name, curve)
            else:
                assert_same_bits(a, b)
        if not rounding:
            assert_same_bits(np.array([r.max_violation, r.tolerance]),
                             np.array([q.max_violation, q.tolerance]))
            assert r.extra == q.extra


CASES = [(text, name) for text, (dim, _) in FIELDS.items() for name in transforms(dim)]

# On the plane x2 = 0, |f| = |tanh(x1)| ties exactly across whole rows of
# cells whose |grad f| differ.  The level order breaks those ties by cell
# index, so which tied cells a cut counts depends on the axis numbering
# and on the sign of x3: mt's rhs moves by 1.2e-4 to 1.3e-4 relative (its
# verdict and max_violation stay).  Taking tied cells at their mean
# |grad f| would mend it.
TIE_BREAK = pytest.mark.xfail(
    strict=True, reason="mt's level order breaks ties in |f| by cell index"
)
MT_CASES = [
    pytest.param(text, name, marks=TIE_BREAK)
    if text.startswith("tanh(x1 + 0.5*x2*x3)")
    and name in ("perm231", "perm312", "perm321", "flip3", "flip13", "flip23", "flip123")
    else (text, name)
    for text, name in CASES
]


@pytest.mark.parametrize("text,name", CASES)
def test_rows_other_than_mt(text, name):
    assert_same_rows(text, name, mt=False)


@pytest.mark.parametrize("text,name", MT_CASES)
def test_mt_row(text, name):
    assert_same_rows(text, name, mt=True)


# expression -> (dim, N), each scaled by 2^k on an M = 1024 analysis
SCALED_FIELDS = {
    "exp(-x1^2)*cos(x2) + 0.1*x1": (2, 64),
    "tanh(x1 + 0.5*x2*x3) + 0.3*sin(x2)": (3, 24),
    "x1 + 0.3*sin(2*x1)": (1, 4096),
}
# extras that are values of f or of its gradient, and scale with them
SCALED_EXTRAS = ("c_max", "pointwise_violation")


def curve_scale(r) -> float:
    return max(float(np.max(np.abs(r.lhs_curve))), float(np.max(np.abs(r.rhs_curve))))


@pytest.mark.parametrize("k", [40, -40, 300, -300, 600, -600])
@pytest.mark.parametrize("text", SCALED_FIELDS)
def test_scaling_by_a_power_of_two(text, k):
    """Every row of 2^k f is that of f times 2^k: its curves, violation,
    tolerance and scaled extras, with the orlicz row's s-grid of hinge
    thresholds; the same verdicts.  Bit for bit but for lp:1.5, whose
    root 1/1.5 of a sum near 2^(1.5 k) errs by up to |k| ln 2 u
    relative, u = 2^-53 (2.3e-14 of the curves' scale measured at k =
    600), and
    orlicz:expsq, whose two norms each lie within the root tolerance,
    1e-10 relative, of theirs (7.0e-11 measured)."""
    dim, N = SCALED_FIELDS[text]
    base, scaled = rows(text, dim, N, 1024), rows(f"2^({k})*({text})", dim, N, 1024)
    bounds = {"norm:lp:1.5": abs(k) * math.log(2.0) * EPS / 2 + 1e-15,
              "norm:orlicz:expsq": _REL_TOL}
    for r, q in zip(base, scaled, strict=True):
        assert (r.check_name, r.N, r.M, r.passed) == (q.check_name, q.N, q.M, q.passed)
        s_grid = np.ldexp(r.s_grid, k) if r.check_name == "orlicz" else r.s_grid
        assert_same_bits(q.s_grid, s_grid)
        want = np.ldexp(np.concatenate((r.lhs_curve, r.rhs_curve, [r.max_violation, r.tolerance])), k)
        got = np.concatenate((q.lhs_curve, q.rhs_curve, [q.max_violation, q.tolerance]))
        bound = bounds.get(r.check_name, 0.0) * math.ldexp(curve_scale(r), k)
        if bound:
            assert np.max(np.abs(got - want)) <= bound, r.check_name
        else:
            assert_same_bits(got, want)
        assert q.extra == {key: math.ldexp(v, k) if key in SCALED_EXTRAS else v
                           for key, v in r.extra.items()}, r.check_name


LIFTED = ["x1 + 0.3*sin(2*x1)", "tanh(x1)", "exp(-x1^2)"]


@pytest.mark.parametrize("dim,N", [(2, 64), (3, 32)])
@pytest.mark.parametrize("text", LIFTED)
def test_dimension_lift(text, dim, N):
    """An x1-only field on the dim-dimensional grid of N cells per axis
    has the rows it has on the 1-d grid of N cells: the same verdicts,
    t-grids and derivative bins, and curves within rounding of their
    scale.  Each level of f* is N^(dim-1) cells there, so the running
    sums add the same masses in other chunks: 6.5e-13 of the scale
    measured (marcinkiewicz:2 in 3-d), 1e-12 allowed; orlicz:expsq, the
    root tolerance (6.3e-11 measured).  Each field is odd or even, so
    its levels tie in pairs in 1-d and the derivative-bin count, which
    asks for bins two levels wide, is the same in either dimension.
    mt is left out: it cuts at round(tK) cells, so its curves move with
    K (by up to 14% of their scale at N = 32)."""
    base, lifted = rows(text, 1, N, 1024), rows(text, dim, N, 1024)
    for r, q in zip(base, lifted, strict=True):
        assert (r.check_name, r.M, r.passed) == (q.check_name, q.M, q.passed)
        if r.check_name == "mt":
            continue
        bound = (_REL_TOL if r.check_name == "norm:orlicz:expsq" else 1e-12) * curve_scale(r)
        got = np.concatenate((q.lhs_curve, q.rhs_curve, [q.max_violation, q.tolerance]))
        want = np.concatenate((r.lhs_curve, r.rhs_curve, [r.max_violation, r.tolerance]))
        assert np.max(np.abs(got - want)) <= bound, r.check_name
        if r.check_name == "orlicz":  # its s-grid is the hinge thresholds
            assert np.max(np.abs(q.s_grid - r.s_grid)) <= bound
            assert r.extra["c_max"] == pytest.approx(q.extra["c_max"], rel=1e-12, abs=0.0)
        else:
            assert_same_bits(q.s_grid, r.s_grid)
            assert q.extra == r.extra, r.check_name
