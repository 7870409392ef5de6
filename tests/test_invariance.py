"""Exact symmetries of the checks: permuting a field's axes, or flipping
the sign of some of them, leaves every report row of the six curve
checks the same.

The equal-measure grid is a product of one axis grid symmetric about 0,
so either transform maps its cells onto its cells and keeps the Gaussian
measure; the field and its transform have the same pairs (|f|, |grad f|)
over the cells.  A field is transformed by rewriting its expression, xi
as x(p(i)) or as (-xi), so that it takes the same values by the same
arithmetic, and its rows must be bit-identical.  The one exception is a
3-d permutation: |grad f| sums the squared partials in axis order, so a
curve may move by rounding, at most one machine epsilon of its scale.
"""

import functools
import itertools
import re

import numpy as np
import pytest

from gausym import analyze, equal_measure_grid, parse_field, run_checks

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


@functools.cache
def rows(text: str, dim: int, N: int) -> tuple:
    a = analyze(parse_field(text, dim), equal_measure_grid(dim, N), 4096, CHECKS)
    return tuple(run_checks(a, CHECKS, intervals=INTERVALS))


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
