"""Shared test helpers: quasi-random point sets, a field's values and
gradients at a batch of points, a grid's cell representatives, the
analysis' rearrangement, reference implementations (central differences,
the stable decreasing sort, a profile's cumulative, the symmetrized field
and its pointwise gradient identity), constant and random profiles,
majorized pairs of them, random field expressions and the grids that
span more than one sampling block."""

import numpy as np
import pytest
from hypothesis import strategies as st

from gausym import NonSmoothFieldError, Phi, Phi_inv, Profile, ScalarField, analyze
from gausym.expr import FUNCTIONS
from gausym.gaussian import BLOCK_CELLS
from gausym.symmetrize import symmetrized_derivative


def quasi_random_points(n: int, dim: int, low: float = -3.0, high: float = 3.0) -> np.ndarray:
    """Deterministic low-discrepancy points via the additive golden-ratio
    lattice, mapped into [low, high]^dim."""
    # generalized golden ratios: x^(dim+1) = x + 1
    g = 1.0
    for _ in range(32):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    alphas = (1.0 / g) ** np.arange(1, dim + 1)
    k = np.arange(1, n + 1)[:, None]
    u = (0.5 + k * alphas[None, :]) % 1.0
    return low + (high - low) * u


def jet_at(field, pts) -> tuple[np.ndarray, np.ndarray]:
    """Values, shape (m,), and gradient rows, shape (m, dim), of ``field``
    at an (m, dim) batch of points (or one point, 1-d), from one call of
    its jet on the batch's columns."""
    pts = np.asarray(pts, dtype=float).reshape(-1, field.dim)
    values, partials = field.jet(tuple(pts.T))
    grads = np.empty(pts.shape)
    for k, d in enumerate(partials):
        grads[:, k] = d
    return np.broadcast_to(values, len(pts)).copy(), grads


def representatives(grid) -> np.ndarray:
    """All N^dim cell representatives of ``grid`` in C order, shape
    (num_cells, dim), read-only: its rows' coordinates broadcast out."""
    coords = np.broadcast_arrays(*grid.rows(0, grid.num_rows))
    reps = np.stack([c.ravel() for c in coords], axis=1)
    reps.setflags(write=False)
    return reps


# Central-difference step: cube root of machine epsilon balances truncation
# against round-off for second-order stencils.
FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


def past_a_block(dim: int) -> int:
    """The smallest per-axis cell count N whose dim-dimensional grid has
    more than ``BLOCK_CELLS`` cells, so that the analysis samples it in
    more than one block."""
    N = 2
    while N**dim <= BLOCK_CELLS:
        N += 1
    return N


# (dim, N) of grids sampled in more than one block of whole rows, none a
# whole number of blocks: the first past a block in each dimension, and
# 33^3, several blocks of 248 rows of 33 cells at BLOCK_CELLS = 8192
BLOCK_GRIDS = [
    *(pytest.param(dim, past_a_block(dim), id=f"{dim}-past-a-block") for dim in (1, 2, 3)),
    (3, 33),
]


def central_differences(field, pts: np.ndarray) -> np.ndarray:
    """Reference gradient of ``field`` at ``pts`` by central differences,
    with per-axis step h = FD_STEP * (1 + |x_i|)."""
    out = np.empty_like(pts)
    for axis in range(field.dim):
        h = FD_STEP * (1.0 + np.abs(pts[:, axis]))
        hi = pts.copy()
        lo = pts.copy()
        hi[:, axis] += h
        lo[:, axis] -= h
        out[:, axis] = (jet_at(field, hi)[0] - jet_at(field, lo)[0]) / (2.0 * h)
    return out


def sort_decreasing(values: np.ndarray) -> np.ndarray:
    """``values`` in nonincreasing order, NaNs last, bit for bit equal to
    ``values[np.argsort(-values, kind="stable")]``, from one value sort.

    Tied values are interchangeable except for +0.0 against -0.0 (equal,
    yet distinct bits) and NaNs (the sort returns them canonical); each
    kind sits in one block of the sorted array, and is copied back in
    input order, as the stable sort keeps it.  The one negated copy is
    sorted and negated back in place.
    """
    out = -values
    out.sort()
    # block bounds in the ascending order, before negating back
    lo = np.searchsorted(out, 0.0, side="left")
    hi = np.searchsorted(out, 0.0, side="right")
    first_nan = np.searchsorted(out, np.nan)
    np.negative(out, out=out)
    if hi > lo:
        out[lo:hi] = values[values == 0.0]
    if first_nan < len(out):
        out[first_nan:] = values[np.isnan(values)]
    return out


def bin_means(p: Profile, n_bins: int) -> np.ndarray:
    """Averages of p over ``n_bins`` uniform bins, differenced off
    ``p.cumulative`` at the bin edges."""
    cum = p.cumulative(np.arange(n_bins + 1) / n_bins)
    return (cum[1:] - cum[:-1]) * n_bins


def symmetrized_field(p: Profile, dim: int = 1, *, n_bins: int) -> ScalarField:
    """Field x -> p(Phi(x1)), nonincreasing in x1, constant in x2..xn: the
    averages of p over ``n_bins`` uniform bins interpolated linearly
    between the bin midpoints, with ``symmetrized_derivative`` as its
    gradient.  Both read the x1 coordinates alone."""
    nodes = (np.arange(n_bins) + 0.5) / n_bins
    means = bin_means(p, n_bins)

    def jet(xs):
        slope = symmetrized_derivative(means, xs[0])
        return np.interp(Phi(xs[0]), nodes, means), (slope,) + (0.0,) * (dim - 1)

    return ScalarField(dim, "symmetrized[linear]", jet)


def pointwise_identity_gap(analysis) -> float:
    """Max interior discrepancy between the two gradient routes of the
    symmetrized field.

    Route one is the analysis' surrogate: bin averages of (-p)' * I on the
    derivative grid of ``m_d`` bins.  Route two is |grad| of the
    symmetrized field at x1 = Phi_inv(s), the bin midpoints, which are its
    slope nodes: the mean of its exact one-sided gradients there, the
    limit of central differences.  Compared on s in [0.05, 0.95] only:
    toward the endpoints I vanishes and Phi_inv blows up.  Shrinks under
    refinement for smooth fields.
    """
    field, surr = analysis.field, analysis.surr
    s = (np.arange(analysis.m_d) + 0.5) / analysis.m_d
    if not field.smooth:
        raise NonSmoothFieldError(
            f"pointwise identity check needs a smooth field, got {field.label!r}"
        )
    mask = (s >= 0.05) & (s <= 0.95)
    x1 = Phi_inv(s[mask])
    # the slope right of each node, then the one left of it
    x1 = np.concatenate((x1, np.nextafter(x1, -np.inf)))
    right, left = np.split(np.abs(symmetrized_derivative(analysis.sym_means, x1)), 2)
    return float(np.max(np.abs(surr[mask] - 0.5 * (right + left))))


def rearrangement(field, grid) -> Profile:
    """The decreasing rearrangement of |f| on ``grid``, as the analysis builds it."""
    return analyze(field, grid, grid.num_cells).p


def assert_same_bits(a: np.ndarray, b: np.ndarray):
    """Bitwise equality of two float arrays (tells -0.0 from 0.0, matches NaNs)."""
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def cumulative_reference(p: Profile, t) -> np.ndarray:
    """p's integral over (0, t], read off one whole-array cumsum of its
    pieces' masses: the reference for ``Profile.cumulative`` at a chunk of
    1 (``rearrange.SUM_CHUNK``)."""
    prefix = np.concatenate(([0.0], np.cumsum(p.values * p.widths)))
    t = np.asarray(t, dtype=float)
    knots = p.knots
    idx = np.clip(np.searchsorted(knots, t, side="left") - 1, 0, p.num_pieces - 1)
    return prefix[idx] + p.values[idx] * (t - knots[idx])


def constant_profile(c: float) -> Profile:
    """The one-piece profile of the constant c >= 0 on (0, 1]."""
    return Profile(np.array([float(c)]))


def random_profile(rng: np.random.Generator, max_pieces: int = 64) -> Profile:
    """k random levels, 4 <= k < ``max_pieces``, each repeated on 1 to 16
    equal pieces: a profile whose levels hold unequal rational measures."""
    k = int(rng.integers(4, max_pieces))
    counts = rng.integers(1, 17, size=k)
    values = np.sort(rng.gamma(2.0, 1.0, size=k))[::-1]
    return Profile(np.repeat(values, counts))


def averaged_profile(rng: np.random.Generator, h: Profile) -> Profile:
    """Block-average a decreasing profile over a random partition of its
    pieces into 1 to 64 runs: the result is majorized by the original
    (averaging only flattens partial sums), with equal total integral."""
    k = h.num_pieces
    n_blocks = int(rng.integers(1, min(k, 64) + 1))
    cuts = np.sort(rng.choice(np.arange(1, k), size=n_blocks - 1, replace=False))
    bounds = np.concatenate(([0], cuts, [k]))
    sizes = np.diff(bounds)
    means = np.add.reduceat(h.values, bounds[:-1]) / sizes
    # a mean may round an ulp above the one before it: the constructor snaps it
    return Profile(np.repeat(means, sizes))


def majorized_pair(rng: np.random.Generator) -> tuple[Profile, Profile]:
    """(g, h) with g majorized by h: block averages scaled by u <= 1,
    with occasional identical pairs."""
    h = random_profile(rng)
    if rng.random() < 0.1:
        return h, h
    g = averaged_profile(rng, h)
    if rng.random() < 0.5:
        g = g.scaled(float(rng.uniform(0.75, 1.0)))
    return g, h


def expressions():
    """Strategy for 2-d expression texts over the grammar of
    ``gausym.expr``: positive literals, variables, every binary operator,
    unary minus and every function."""
    return st.recursive(
        st.one_of(
            st.floats(min_value=0.1, max_value=5.0).map(lambda v: f"{v:.3f}"),
            st.sampled_from(["x1", "x2"]),
        ),
        lambda children: st.one_of(
            st.tuples(children, st.sampled_from("+-*/^"), children).map(
                lambda t: f"({t[0]}{t[1]}{t[2]})"
            ),
            st.tuples(st.sampled_from(sorted(FUNCTIONS)), children).map(
                lambda t: f"{t[0]}({t[1]})"
            ),
            children.map(lambda c: f"-{c}"),
        ),
        max_leaves=12,
    )
