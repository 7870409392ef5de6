"""Young functions, hinge integrals, r.i. norms, and the theorems that tie
them to partial sums: Hardy-Littlewood-Polya (hinge integrals ordered iff
partial sums ordered) and Calderon (partial sums ordered implies every
r.i. norm ordered), checked on ``Profile.cumulative``, ``hinge_integrals``
and ``ri_norm`` directly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausym import (
    DEFAULT_NORM_FAMILY,
    InvalidParameterError,
    Profile,
    RINorm,
    YoungFunction,
    hinge_integrals,
    lebesgue_rearrangement,
    parse_field,
    parse_norm,
    ri_norm,
)
from gausym import majorize
from gausym.majorize import EXPSQ_DEFAULT_CAP
from gausym.fields import builtin_field, corpus_names
from gausym.gaussian import equal_measure_grid
from gausym.rearrange import PASS_BLOCK
from gausym.verify import analyze

from conftest import averaged_profile, constant_profile, majorized_pair, random_profile

THREE_ONE = Profile(np.array([0.0, 0.5, 1.0]), np.array([3.0, 1.0]))
TWO_TWO = Profile(np.array([0.0, 0.5, 1.0]), np.array([2.0, 2.0]))
# the t-grid on which partial sums are compared
T_GRID = np.arange(1, 1025) / 1024
ORLICZ = RINorm("orlicz")
A = YoungFunction()  # the Young function of ORLICZ


class TestYoungFunction:
    def test_zero_at_zero(self):
        assert A(0.0) == 0.0

    def test_convex_nondecreasing(self):
        # sample grid stays below the exp-square cap, where the truncation
        # never bites
        vals = A(np.linspace(0.0, 6.0, 241))
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(np.diff(vals, 2) >= -1e-9)

    def test_in_place_evaluation_matches_reference(self):
        def reference(t):
            capped = np.minimum(np.abs(np.asarray(t, dtype=float)), EXPSQ_DEFAULT_CAP)
            return np.expm1(capped * capped)

        t = np.concatenate((np.linspace(-30.0, 30.0, 1001), [0.0, -0.0, 1e-300, np.inf]))
        t.setflags(write=False)
        with np.errstate(over="ignore"):
            got, ref = A(t), reference(t)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        # into a given array, or into the argument itself
        other, same = np.empty_like(t), t.copy()
        with np.errstate(over="ignore"):
            assert A(t, out=other) is other
            assert A(same, out=same) is same
        for buf in (other, same):
            assert np.array_equal(buf.view(np.uint64), ref.view(np.uint64))
        assert type(A(-1.5)) is type(reference(-1.5))
        assert A(-1.5) == reference(-1.5)

    def test_truncation_keeps_finite(self):
        assert np.isfinite(A(1e6))


class TestOrliczIntegral:
    """Integrals of a Young function over a profile: the Lp:1 norm for
    |t|, the hinge integrals for (|t| - c)+."""

    def test_constant_identity(self):
        assert ri_norm(constant_profile(2.5), RINorm("lp", 1.0)) == 2.5

    def test_hand_hinge(self):
        # (3 - 1) * 1/2 + 0 * 1/2
        assert np.array_equal(hinge_integrals(THREE_ONE, [1.0]), [1.0])

    def test_hinge_above_sup(self):
        assert np.array_equal(hinge_integrals(THREE_ONE, [3.0, 17.0]), [0.0, 0.0])


def _hinge_thresholds(values, extra):
    """Thresholds hitting the edge cases: 0, every sample exactly, above the
    maximum, plus arbitrary ones."""
    top = float(np.max(values))
    return np.concatenate(([0.0, top, top + 1.0], np.asarray(values), np.asarray(extra)))


# few distinct levels, so ties are common; no subnormals, where the
# products with weights underflow in either form
_LEVELS = st.sampled_from([0.0, 0.25, 1.0, 1.0 / 3.0, 2.5, 7.0, 1e3])
_VALUES = st.one_of(_LEVELS, st.floats(1e-9, 1e3))
_SAMPLES = st.lists(_VALUES, min_size=1, max_size=200)
_THRESHOLDS = st.lists(st.floats(0.0, 2e3), max_size=20)


class TestHingeIntegrals:
    """Prefix-sum hinge integrals against the dense (thresholds x pieces)
    reference, within 1e-12 of the size of the terms involved."""

    @staticmethod
    def _assert_matches_dense(fast, dense, values, weights, c):
        scale = float(np.sum(np.abs(values) * weights)) + np.abs(c)
        assert np.all(np.abs(fast - dense) <= 1e-12 * scale)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_VALUES, st.floats(0.01, 1.0)), min_size=1, max_size=200),
           _THRESHOLDS)
    def test_profile_matches_dense(self, pieces, extra):
        values = np.sort([v for v, _ in pieces])[::-1]
        widths = np.array([w for _, w in pieces])
        widths = widths / widths.sum()
        knots = np.concatenate(([0.0], np.cumsum(widths)))
        knots[-1] = 1.0
        p = Profile(knots, values)
        c = _hinge_thresholds(values, extra)
        dense = np.maximum(p.values[None, :] - c[:, None], 0.0) @ p.widths
        self._assert_matches_dense(hinge_integrals(p, c), dense, p.values, p.widths, c)

    @settings(max_examples=100, deadline=None)
    @given(_SAMPLES, _THRESHOLDS)
    def test_rearranged_samples_match_dense_mean(self, values, extra):
        # the orlicz check's form: equal-weight samples in arbitrary order
        values = np.asarray(values)
        n = len(values)
        p = lebesgue_rearrangement(np.column_stack((np.full(n, 1.0 / n), values)))
        c = _hinge_thresholds(values, extra)
        dense = np.mean(np.maximum(values[None, :] - c[:, None], 0.0), axis=1)
        self._assert_matches_dense(hinge_integrals(p, c), dense, values, 1.0 / n, c)

    def test_hand_values(self):
        c = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(hinge_integrals(THREE_ONE, c), [2.0, 1.0, 0.5, 0.0, 0.0])


class TestMajorizes:
    """h majorizes g where h's partial sums are at least g's at every t,
    read off ``Profile.cumulative`` on ``T_GRID``."""

    def test_reflexive(self):
        margins = THREE_ONE.cumulative(T_GRID) - THREE_ONE.cumulative(T_GRID)
        assert np.all(margins == 0.0)

    def test_hand_pair(self):
        margins = THREE_ONE.cumulative(T_GRID) - TWO_TWO.cumulative(T_GRID)
        assert np.min(margins) >= -1e-12
        assert margins[T_GRID == 0.5][0] == pytest.approx(0.5)
        assert margins[-1] == pytest.approx(0.0, abs=1e-15)

    def test_reversed_fails(self):
        margins = TWO_TWO.cumulative(T_GRID) - THREE_ONE.cumulative(T_GRID)
        assert np.min(margins) < -1e-12
        assert T_GRID[np.argmin(margins)] == pytest.approx(0.5, abs=1e-3)

    def test_zero_profile(self):
        zero = constant_profile(0.0)
        assert np.min(THREE_ONE.cumulative(T_GRID) - zero.cumulative(T_GRID)) >= -1e-12

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_averaging_is_majorized(self, seed):
        rng = np.random.default_rng(seed)
        h = random_profile(rng)
        g = averaged_profile(rng, h)
        assert np.min(h.cumulative(T_GRID) - g.cumulative(T_GRID)) >= -1e-10

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_transitive(self, seed):
        rng = np.random.default_rng(seed)
        h = random_profile(rng)
        g = averaged_profile(rng, h)
        f = averaged_profile(rng, g).scaled(0.9)
        for upper, lower in ((h, g), (g, f), (h, f)):
            assert np.min(upper.cumulative(T_GRID) - lower.cumulative(T_GRID)) >= -1e-10


class TestHlpEquivalence:
    """g's hinge integrals at most h's at every threshold c, exactly when
    g's partial sums are at most h's at every t, each within 1e-10.  The
    hinge gap is piecewise linear in c with kinks at the profiles' values,
    so its max over c is attained at one of them, however narrow the band
    of c where it is positive: those are the thresholds compared."""

    @staticmethod
    def _gaps(g, h):
        """g's excess over h in hinge integrals at the profiles' values,
        and in partial sums on ``T_GRID``."""
        c = np.union1d(g.values, h.values)
        hinge = hinge_integrals(g, c) - hinge_integrals(h, c)
        partial = g.cumulative(T_GRID) - h.cumulative(T_GRID)
        return hinge, partial

    def test_equal_profiles(self):
        hinge, partial = self._gaps(THREE_ONE, THREE_ONE)
        assert np.all(hinge == 0.0) and np.all(partial == 0.0)

    def test_hand_pair_both_directions(self):
        hinge, partial = self._gaps(TWO_TWO, THREE_ONE)
        assert np.max(hinge) <= 1e-10 and np.max(partial) <= 1e-10
        # the reverse pair breaks both: the hinge at c = 2, the partial sums
        # most at t = 1/2
        hinge, partial = self._gaps(THREE_ONE, TWO_TWO)
        assert np.array_equal(hinge, [0.0, 0.5, 0.0])
        assert T_GRID[np.argmax(partial)] == 0.5 and np.max(partial) == 0.5

    def test_shifted_profile(self):
        # g = h + 1 dominates h in both senses, so domination of g by h
        # fails under both predicates
        h = THREE_ONE
        g = Profile(h.knots, h.values + 1.0)
        hinge, partial = self._gaps(g, h)
        assert np.max(hinge) > 1e-10 and np.max(partial) > 1e-10
        hinge, partial = self._gaps(h, g)
        assert np.max(hinge) <= 1e-10 and np.max(partial) <= 1e-10

    def test_narrow_hinge_band_found(self):
        # h fails to be majorized by g by 3.2e-4 at t = 0.135, but the hinge
        # gap is positive only on a band of c narrower than a 256-point grid
        g, h = majorized_pair(np.random.default_rng(71250))
        hinge, partial = self._gaps(h, g)
        assert np.max(partial) > 1e-10
        assert np.max(hinge) == pytest.approx(3.19e-4, rel=1e-2)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_agreement_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        g, h = majorized_pair(rng)
        for pair in ((g, h), (h, g)):
            hinge, partial = self._gaps(*pair)
            assert (np.max(hinge) <= 1e-10) == (np.max(partial) <= 1e-10)


class TestRiNorm:
    def test_constant_lp(self):
        assert ri_norm(constant_profile(2.0), RINorm("lp", 2.0)) == pytest.approx(2.0)

    def test_hand_values(self):
        assert ri_norm(THREE_ONE, RINorm("lp", 1.0)) == pytest.approx(2.0)
        assert ri_norm(THREE_ONE, RINorm("lp", math.inf)) == 3.0
        assert ri_norm(THREE_ONE, RINorm("lp", 2.0)) == pytest.approx(math.sqrt(5.0))
        # Lorentz lambda_2: 3*sqrt(1/2) + 1*(1 - sqrt(1/2)) = 1 + sqrt(2)
        assert ri_norm(THREE_ONE, RINorm("lorentz", 2.0)) == pytest.approx(1.0 + math.sqrt(2.0))
        # Marcinkiewicz_2: max(t^{-1/2} * P(t)) hit at t = 1/2
        assert ri_norm(THREE_ONE, RINorm("marcinkiewicz", 2.0)) == pytest.approx(
            1.5 * math.sqrt(2.0)
        )

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.5])
    def test_lorentz_bits_match_differenced_powers(self, q):
        # the knots are powered, then differenced in place
        p = random_profile(np.random.default_rng(5))
        ref = float(np.sum(np.diff(p.knots ** (1.0 / q)) * p.values))
        assert ri_norm(p, RINorm("lorentz", q)) == ref

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("block", [1, 3, 64, PASS_BLOCK])
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.5])
    def test_marcinkiewicz_bits_match_whole_array_formula(self, q, block, monkeypatch):
        """The powered knots multiply the in-place prefix sums a block at a
        time, and only in the blocks whose bound can reach the max so far;
        the max keeps the bits of weighting every prefix.  Also where the
        sup sits in the first or the last block, where runs of tied values
        cross block boundaries, where the max is tied across blocks, and
        on values near the top of the double range, whose blocks' bounds
        overflow (with no warning: every warning fails this test)."""
        monkeypatch.setattr(majorize, "PASS_BLOCK", block)
        rng = np.random.default_rng(int(10 * q) + block)
        n = 2 * PASS_BLOCK + 3
        unequal = [random_profile(rng) for _ in range(4)]
        equal = [Profile(np.arange(k + 1) / k, np.sort(rng.gamma(2.0, 1.0, k))[::-1])
                 for k in (5, 64, n)]
        first = np.sort(rng.gamma(2.0, 1.0, n))[::-1]
        first[0] = 1e6  # the sup at the first knot
        last = 1.0 + np.sort(rng.random(n))[::-1] * 1e-3  # t^(1/q) grows: the sup at t = 1
        equal += [Profile(np.arange(n + 1) / n, v) for v in (first, last)]
        # runs of equal values whose ends fall inside blocks of every size
        ties = tied_profile([4.0, 3.0, 1.0, 0.5, 0.0], [7, 2 * block + 5, PASS_BLOCK, 11, 3])
        # 6 on (0, 1/4] and 2 beyond: t^(-1/2) P(t) reads 3.0 exactly at
        # t = 1/4 and t = 1, in different blocks, and less between
        quarter = 4 * max(block, 16)
        tie = tied_profile([6.0, 2.0], [quarter // 4, 3 * quarter // 4])
        profiles = unequal + equal + [ties, tie]
        profiles += [Profile(p.knots, np.ldexp(p.values, 1023 - math.frexp(p.sup)[1]))
                     for p in profiles]
        for p in profiles:
            ref = float(np.max(np.cumsum(p.values * p.widths) * p.knots[1:] ** (1.0 / q - 1.0)))
            assert ri_norm(p, RINorm("marcinkiewicz", q)) == ref
        if q == 2.0:
            assert ri_norm(tie, RINorm("marcinkiewicz", q)) == 3.0

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(5)
        p = random_profile(rng)
        q = p.scaled(2.5)
        for X in DEFAULT_NORM_FAMILY:
            rel = 1e-9 if X.kind == "orlicz" else 1e-12
            assert ri_norm(q, X) == pytest.approx(2.5 * ri_norm(p, X), rel=rel)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [600, -600])
    def test_lp_of_huge_and_tiny_profiles(self, k):
        """The Lp norms of 2^k * x1 are 2^k times those of x1, also where
        the powers of the values over- or underflow (lp:2 and lp:4 gave
        inf at k = 600, 0.0 at k = -600).  An unscaled power sum S near
        2^(kp) errs in S ** (1/p) by up to |k| ln 2 eps relative, the
        rounding of 1/p times ln(S) / p: 2.3e-14 measured for lp:1.5 at
        k = 600.  The rescaled sums err by an ulp or two."""
        grid = equal_measure_grid(1, 64)
        base = analyze(parse_field("x1", 1), grid, 512, ["norm"])
        scaled = analyze(parse_field(f"2^{k}*x1", 1), grid, 512, ["norm"])
        bound = abs(k) * math.log(2.0) * 2.0 ** -53 + 1e-15
        for name in ("surr_prof", "grad_prof"):
            for q in (1.0, 1.5, 2.0, 4.0, math.inf):
                X = RINorm("lp", q)
                expected = math.ldexp(ri_norm(getattr(base, name), X), k)
                got = ri_norm(getattr(scaled, name), X)
                assert got == pytest.approx(expected, rel=bound, abs=0.0), (name, X.label)

    def test_zero_profile(self):
        zero = constant_profile(0.0)
        for X in DEFAULT_NORM_FAMILY:
            assert ri_norm(zero, X) == 0.0

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_luxemburg_normalization(self, seed):
        # the Luxemburg functional sits at the unit-integral level
        rng = np.random.default_rng(seed)
        p = random_profile(rng)
        lam = ri_norm(p, ORLICZ)
        assert lam > 0
        val = float(np.sum(A(p.values / lam) * p.widths))
        assert 1 - 1e-8 <= val <= 1 + 1e-8


def bisection_luxemburg(p: Profile, rel_tol: float = 1e-13) -> float:
    """Reference Luxemburg norm: plain bisection on theta(lam) = integral of
    A(p / lam), bracketed by doubling and halving from sup p."""

    def theta(lam):
        with np.errstate(over="ignore"):
            return float(np.sum(A(p.values / lam) * p.widths))

    if p.sup == 0.0:
        return 0.0
    hi = p.sup
    while theta(hi) > 1.0:
        hi *= 2.0
    lo = hi / 2.0
    while theta(lo) <= 1.0:
        if lo < np.finfo(float).tiny:
            return 0.0
        hi, lo = lo, lo / 2.0
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if theta(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def tied_profile(levels, counts) -> Profile:
    """Equal-width profile, as the CLI builds them: each level repeated
    ``counts`` times, in decreasing order of level."""
    values = np.repeat(np.sort(levels)[::-1], counts)
    return Profile(np.arange(len(values) + 1) / len(values), values)


@st.composite
def tied_profiles(draw):
    """1 to 8 levels repeated 1 to 12500 times each (ties, a single piece,
    K up to 1e5), with values up to 1e3 that lie far above the expsq cap
    times the norm."""
    levels = draw(st.lists(_VALUES, min_size=1, max_size=8))
    counts = draw(st.lists(st.integers(1, 12500), min_size=len(levels), max_size=len(levels)))
    return tied_profile(levels, counts)


_LUXEMBURG_PROFILES = st.one_of(
    tied_profiles(),
    st.integers(0, 2**31).map(lambda seed: random_profile(np.random.default_rng(seed))),
)


@pytest.fixture
def young_calls(monkeypatch):
    """Number of elements of each YoungFunction call made while the test
    runs: a whole pass over a profile, or a pass over a smaller coarse
    profile built from it."""
    calls = []
    call = YoungFunction.__call__

    def counting_call(self, t, **kwargs):
        calls.append(np.size(t))
        return call(self, t, **kwargs)

    monkeypatch.setattr(YoungFunction, "__call__", counting_call)
    return calls


def _passes(young_calls, p):
    """The Orlicz norm and the work it took in whole passes over ``p``:
    the elements passed to A, divided by the pieces of ``p``."""
    young_calls.clear()
    value = ri_norm(p, ORLICZ)
    return value, sum(young_calls) / p.num_pieces


class TestLuxemburg:
    @settings(max_examples=30, deadline=None)
    @given(_LUXEMBURG_PROFILES)
    def test_matches_bisection(self, p):
        assert ri_norm(p, ORLICZ) == pytest.approx(bisection_luxemburg(p), rel=1e-10, abs=0.0)

    def test_constant_profiles_at_every_scale(self, young_calls):
        # A(c / lam) = 1 at lam = c / sqrt(ln 2); small profiles used to pay
        # log2(1/c) extra halvings, and c = 1e-305 came out as 0
        passes = []
        for c in (1.0, 1e-6, 1e-100, 1e-305, 1e300):
            value, n = _passes(young_calls, constant_profile(c))
            assert value == pytest.approx(c / math.sqrt(math.log(2.0)), rel=1e-10, abs=0.0), c
            passes.append(n)
        assert max(passes) - min(passes) <= 1, passes

    def test_pass_ceiling(self, young_calls):
        """At most 12 passes per profile (bisection took 35 or more): on
        constants at every scale, on spikes whose norm lies well below
        sup, and on random profiles.  The builtins' profiles also on grids
        of 65536 cells, whose gradient profiles start from the coarse
        bracket, all within 1e-10 of bisection."""
        spikes = (tied_profile([1e3, 1e-3], [1, 99999]), tied_profile([7.0, 0.25], [10, 9990]),
                  tied_profile([1e3, 2.5, 1e-6], [3, 300, 30000]))
        cases = [*map(constant_profile, (1.0, 1e-6, 1e-100, 1e-305, 1e300)), *spikes]
        cases += [random_profile(np.random.default_rng(seed)) for seed in range(20)]
        builtins = []
        for dim, N in ((1, 4096), (2, 64), (1, 2**16), (2, 256)):
            for name in corpus_names():
                a = analyze(builtin_field(name, None, dim), equal_measure_grid(dim, N), 4096)
                builtins += [a.grad_prof, a.surr_prof]
        assert sum(p.num_pieces >= majorize._COARSE_MIN_PIECES for p in builtins) == 12
        for p in cases + builtins:
            value, n = _passes(young_calls, p)
            assert value > 0.0 and n <= 12, (p.sup, n)
        for p in builtins:
            assert ri_norm(p, ORLICZ) == pytest.approx(
                bisection_luxemburg(p), rel=1e-10, abs=0.0), (p.num_pieces, p.sup)

    def test_dense_gradient_profile(self, young_calls):
        """The 2^20-piece gradient profile of poly_tanh takes three whole
        passes (the walk from sup took ten, and the coarse bracket checked
        on the profile five), plus the coarse profiles' work, under half a
        pass; the norm matches bisection."""
        grid = equal_measure_grid(1, 2**20)
        p = analyze(builtin_field("poly_tanh"), grid, 4096, ["norm"]).grad_prof
        value, n = _passes(young_calls, p)
        whole = [size for size in young_calls if size == p.num_pieces]
        assert len(whole) <= 3 and n <= 3.5, (len(whole), n)
        assert value == pytest.approx(bisection_luxemburg(p), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("name", corpus_names())
    def test_coarse_bracket_makes_no_pass_over_the_profile(self, young_calls, name):
        """The coarse bracket reads only the two coarse profiles, K/64
        pieces each, yet brackets the norm of the whole profile: theta >
        1 at lo and theta <= 1 at hi, each start value on its side of 0."""
        grid = equal_measure_grid(1, 2**16)
        p = analyze(builtin_field(name), grid, 4096, ["norm"]).grad_prof
        young_calls.clear()
        lo, y_lo, hi, y_hi, last_lo = majorize._coarse_bracket(p)
        assert max(young_calls) <= p.num_pieces // majorize._COARSE_STEP
        assert y_lo > 0.0 >= y_hi and last_lo is None

        def theta(lam):
            return float(np.sum(A(p.values / lam) * p.widths))

        assert theta(lo) > 1.0 >= theta(hi)
        assert lo < bisection_luxemburg(p) < hi

    @pytest.mark.parametrize("pieces", [64, 1 << 16], ids=["walk", "coarse"])
    def test_scales_up_to_the_top_of_the_double_range(self, pieces):
        """The orlicz:expsq norm of 2^k p is 2^k times that of p, to the
        root tolerance, for every k up to the largest the double range
        holds.  A profile flat near its top, tanh on an equal-width grid,
        needs a bracket end above sup: doubled past the largest double, it
        made the norm inf."""
        flat = np.tanh(np.linspace(3.0, 0.01, pieces))
        flat.setflags(write=False)
        profiles = [Profile.equal_width(flat),
                    *(random_profile(np.random.default_rng(seed)) for seed in range(10))]
        for p in profiles:
            base = ri_norm(p, ORLICZ)
            top = 1024 - math.frexp(p.sup)[1]  # the largest k with 2^k sup finite
            for k in (0, 500, *range(top - 8, top + 1)):
                got = ri_norm(Profile(p.knots, np.ldexp(p.values, k)), ORLICZ)
                with np.errstate(over="ignore"):
                    want = float(np.ldexp(base, k))
                if want == math.inf:  # the norm itself exceeds the largest double
                    assert got == math.inf, (p.num_pieces, k)
                else:
                    assert got == pytest.approx(want, rel=1e-10, abs=0.0), (p.num_pieces, k)

    def test_coarse_bracket_falls_back_to_the_walk(self, monkeypatch):
        """A coarse profile of group minima can lose the support that makes
        the norm positive: 63 of 65536 pieces at 5 give a positive norm,
        but no whole group of 64 is positive, so the coarse profile of
        minima is 0 and the norm is walked from sup."""
        p = tied_profile([5.0, 0.0], [63, 65536 - 63])
        walks, walk = [], majorize._walk_bracket

        def counting(*args):
            walks.append(args[0])
            return walk(*args)

        monkeypatch.setattr(majorize, "_walk_bracket", counting)
        got = ri_norm(p, ORLICZ)
        assert walks == [p.sup]
        assert got > 0.0
        assert got == pytest.approx(bisection_luxemburg(p), rel=1e-10, abs=0.0)

    def test_bounded_young_function_can_give_zero(self, young_calls):
        # A never exceeds e^400 - 1: on a support of measure below
        # 1/(e^400 - 1), theta(lam) < 1 for every lam, so the norm is 0,
        # found without a pass instead of by halving lam down to the
        # smallest double
        p = Profile(np.array([0.0, 1e-180, 1.0]), np.array([5.0, 0.0]))
        assert _passes(young_calls, p) == (0.0, 0)
        assert bisection_luxemburg(p) == 0.0


class TestParseNorm:
    def test_valid_specs(self):
        assert parse_norm("lp:2").param == 2.0
        assert math.isinf(parse_norm("lp:inf").param)
        assert parse_norm("lorentz:2").kind == "lorentz"
        assert parse_norm("marcinkiewicz:2").kind == "marcinkiewicz"
        assert parse_norm("orlicz:expsq") == RINorm("orlicz")

    def test_labels_round_trip(self):
        for spec in ("lp:2", "lp:inf", "lorentz:2", "marcinkiewicz:2", "orlicz:expsq"):
            assert parse_norm(spec).label == spec

    def test_distinct_exponents_get_distinct_labels(self):
        # six significant digits made lp:1.0000001 and lp:1 one label
        norms = [RINorm("lp", p) for p in (1.0, 1.0000001, 1.5, 1234567.0, 1e20, math.inf)]
        norms += [RINorm("lorentz", 2.0 + 2.0 ** -40), RINorm("marcinkiewicz", 1.0 + 1e-15)]
        assert len({X.label for X in norms}) == len(norms)
        for X in norms:
            assert parse_norm(X.label) == X, X.label
        assert [X.label for X in DEFAULT_NORM_FAMILY] == [
            "lp:1", "lp:1.5", "lp:2", "lp:4", "lp:inf", "lorentz:2", "marcinkiewicz:2",
            "orlicz:expsq"]

    def test_invalid_specs(self):
        for bad in ("lp", "lp:0.5", "lorentz:0", "marcinkiewicz:1", "orlicz:power", "huh:3",
                    "lp:nan", "lorentz:nan", "marcinkiewicz:nan",
                    "lorentz:inf", "lorentz:1e400"):
            with pytest.raises(InvalidParameterError):
                parse_norm(bad)


class TestCalderon:
    """g majorized by h gives ri_norm(g) <= ri_norm(h) for every norm of
    the family, to 1e-9 relative."""

    @staticmethod
    def _margins(g, h):
        return {X.label: ri_norm(h, X) - ri_norm(g, X) for X in DEFAULT_NORM_FAMILY}

    def test_equal_profiles(self):
        assert all(m == 0.0 for m in self._margins(THREE_ONE, THREE_ONE).values())

    def test_hand_pair_margins(self):
        margins = self._margins(TWO_TWO, THREE_ONE)
        for X in DEFAULT_NORM_FAMILY:
            assert margins[X.label] >= -1e-9 * (1.0 + ri_norm(THREE_ONE, X)), X.label
        assert margins["lp:1"] == pytest.approx(0.0, abs=1e-15)
        assert margins["lp:2"] == pytest.approx(math.sqrt(5.0) - 2.0)

    def test_margins_scale(self):
        base = self._margins(TWO_TWO, THREE_ONE)
        scaled = self._margins(TWO_TWO.scaled(2.5), THREE_ONE.scaled(2.5))
        for label, margin in base.items():
            assert scaled[label] == pytest.approx(2.5 * margin, abs=1e-8)

    def test_fails_without_majorization(self):
        # THREE_ONE is not majorized by TWO_TWO, and lp:2 orders them the
        # other way
        assert np.min(TWO_TWO.cumulative(T_GRID) - THREE_ONE.cumulative(T_GRID)) < -1e-12
        assert self._margins(THREE_ONE, TWO_TWO)["lp:2"] < -1e-9
