"""Shared test helpers: quasi-random point sets, the analysis'
rearrangement, a central-difference gradient reference, random profile
pairs and random field expressions."""

import numpy as np
from hypothesis import strategies as st

from gausym import Profile, analyze
from gausym.expr import FUNCTIONS


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


# Central-difference step: cube root of machine epsilon balances truncation
# against round-off for second-order stencils.
FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


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
        out[:, axis] = (field(hi) - field(lo)) / (2.0 * h)
    return out


def rearrangement(field, grid) -> Profile:
    """The decreasing rearrangement of |f| on ``grid``, as the analysis builds it."""
    return analyze(field, grid, grid.num_cells).p


def assert_same_bits(a: np.ndarray, b: np.ndarray):
    """Bitwise equality of two float arrays (tells -0.0 from 0.0, matches NaNs)."""
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def random_profile(rng: np.random.Generator, max_pieces: int = 64) -> Profile:
    k = int(rng.integers(4, max_pieces))
    widths = rng.dirichlet(np.ones(k))
    values = np.sort(rng.gamma(2.0, 1.0, size=k))[::-1]
    knots = np.concatenate(([0.0], np.cumsum(widths)))
    knots[-1] = 1.0
    return Profile(knots, values)


def averaged_profile(rng: np.random.Generator, h: Profile) -> Profile:
    """Block-average a decreasing profile over a random consecutive
    partition: the result is majorized by the original (averaging only
    flattens partial sums), with equal total integral."""
    k = h.num_pieces
    n_blocks = int(rng.integers(1, k + 1))
    cuts = np.sort(rng.choice(np.arange(1, k), size=min(n_blocks - 1, k - 1), replace=False))
    bounds = np.concatenate(([0], cuts, [k]))
    widths = h.widths
    new_vals = []
    new_widths = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        w = widths[lo:hi].sum()
        new_vals.append(float(np.sum(h.values[lo:hi] * widths[lo:hi]) / w))
        new_widths.append(w)
    knots = np.concatenate(([0.0], np.cumsum(new_widths)))
    knots[-1] = 1.0
    return Profile(knots, np.asarray(new_vals))


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
