"""Young functions, Orlicz integrals, majorization, and r.i. norms."""

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
    calderon_check,
    hinge_integrals,
    hlp_equivalence_check,
    lebesgue_rearrangement,
    majorizes,
    orlicz_integral,
    parse_norm,
    ri_norm,
)
from gausym import majorize
from gausym.fields import builtin_field, corpus_names
from gausym.gaussian import equal_measure_grid
from gausym.rearrange import PASS_BLOCK
from gausym.verify import analyze

from conftest import averaged_profile, majorized_pair, random_profile

THREE_ONE = Profile(np.array([0.0, 0.5, 1.0]), np.array([3.0, 1.0]))
TWO_TWO = Profile(np.array([0.0, 0.5, 1.0]), np.array([2.0, 2.0]))


class TestYoungFunction:
    def test_zero_at_zero(self):
        for A in (
            YoungFunction.power(1),
            YoungFunction.power(2.5),
            YoungFunction.hinge(0.3),
            YoungFunction.exp_sq_truncated(),
        ):
            assert A(0.0) == 0.0

    def test_convex_nondecreasing(self):
        # sample grid stays below the exp-square cap, where the default
        # truncation never bites
        t = np.linspace(0.0, 6.0, 241)
        for A in (
            YoungFunction.power(1.3),
            YoungFunction.hinge(0.7),
            YoungFunction.exp_sq_truncated(),
        ):
            vals = A(t)
            assert np.all(np.diff(vals) >= -1e-12)
            assert np.all(np.diff(vals, 2) >= -1e-9)

    @pytest.mark.parametrize("A", [
        YoungFunction.power(1), YoungFunction.power(1.5), YoungFunction.power(2),
        YoungFunction.power(4), YoungFunction.hinge(0.0), YoungFunction.hinge(0.7),
        YoungFunction.exp_sq_truncated(), YoungFunction.exp_sq_truncated(2.0),
    ])
    def test_in_place_evaluation_matches_reference(self, A):
        def reference(t):
            x = np.abs(np.asarray(t, dtype=float))
            if A.kind == "power":
                return x**A.param
            if A.kind == "hinge":
                return np.maximum(x - A.param, 0.0)
            capped = np.minimum(x, A.param)
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
        A = YoungFunction.exp_sq_truncated(20.0)
        assert np.isfinite(A(1e6))

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            YoungFunction.power(0.5)
        with pytest.raises(InvalidParameterError):
            YoungFunction.hinge(-0.1)
        with pytest.raises(InvalidParameterError):
            YoungFunction.exp_sq_truncated(0.0)


class TestOrliczIntegral:
    def test_constant_identity(self):
        assert orlicz_integral(Profile.constant(2.5), YoungFunction.power(1)) == 2.5

    def test_hand_hinge(self):
        # (3 - 1) * 1/2 + 0 * 1/2
        assert orlicz_integral(THREE_ONE, YoungFunction.hinge(1.0)) == 1.0

    def test_hinge_above_sup(self):
        assert orlicz_integral(THREE_ONE, YoungFunction.hinge(3.0)) == 0.0
        assert orlicz_integral(THREE_ONE, YoungFunction.hinge(17.0)) == 0.0


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
    def test_reflexive(self):
        v = majorizes(THREE_ONE, THREE_ONE)
        assert v.holds and v.min_margin == 0.0

    def test_hand_pair(self):
        v = majorizes(THREE_ONE, TWO_TWO)
        assert v.holds
        i_half = np.argmin(np.abs(v.t_grid - 0.5))
        i_one = np.argmin(np.abs(v.t_grid - 1.0))
        assert v.margins[i_half] == pytest.approx(0.5)
        assert v.margins[i_one] == pytest.approx(0.0, abs=1e-15)

    def test_reversed_fails(self):
        v = majorizes(TWO_TWO, THREE_ONE)
        assert not v.holds
        assert v.argmin_t == pytest.approx(0.5, abs=1e-3)

    def test_zero_profile(self):
        zero = Profile.constant(0.0)
        assert majorizes(THREE_ONE, zero).holds

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_averaging_is_majorized(self, seed):
        rng = np.random.default_rng(seed)
        h = random_profile(rng)
        g = averaged_profile(rng, h)
        assert majorizes(h, g, tol=1e-10).holds

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_transitive(self, seed):
        rng = np.random.default_rng(seed)
        h = random_profile(rng)
        g = averaged_profile(rng, h)
        f = averaged_profile(rng, g).scaled(0.9)
        assert majorizes(h, g, tol=1e-10).holds
        assert majorizes(g, f, tol=1e-10).holds
        assert majorizes(h, f, tol=1e-10).holds


class TestHlpEquivalence:
    def test_equal_profiles(self):
        rep = hlp_equivalence_check(THREE_ONE, THREE_ONE)
        assert rep.orlicz_dominated and rep.majorization_holds and rep.agree

    def test_hand_pair_both_directions(self):
        forward = hlp_equivalence_check(TWO_TWO, THREE_ONE)
        assert forward.orlicz_dominated and forward.majorization_holds
        backward = hlp_equivalence_check(THREE_ONE, TWO_TWO)
        assert not backward.orlicz_dominated and not backward.majorization_holds
        assert backward.witness_c is not None and backward.witness_t is not None
        assert forward.agree and backward.agree

    def test_shifted_profile(self):
        # g = h + 1 dominates h in both senses, so domination of g by h
        # fails under both predicates
        h = THREE_ONE
        g = Profile(h.knots, h.values + 1.0)
        rep = hlp_equivalence_check(g, h)
        assert not rep.orlicz_dominated and not rep.majorization_holds and rep.agree
        rep2 = hlp_equivalence_check(h, g)
        assert rep2.orlicz_dominated and rep2.majorization_holds and rep2.agree

    def test_narrow_hinge_band_found(self):
        # h fails to be majorized by g by 3.2e-4 at t = 0.135, but the hinge
        # gap is positive only on a band of c narrower than a 256-point grid
        g, h = majorized_pair(np.random.default_rng(71250))
        rep = hlp_equivalence_check(h, g)
        assert not rep.majorization_holds and not rep.orlicz_dominated and rep.agree
        assert rep.max_hinge_excess == pytest.approx(3.19e-4, rel=1e-2)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_agreement_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        g, h = majorized_pair(rng)
        assert hlp_equivalence_check(g, h).agree
        assert hlp_equivalence_check(h, g).agree


class TestRiNorm:
    def test_constant_lp(self):
        assert ri_norm(Profile.constant(2.0), RINorm("lp", 2.0)) == pytest.approx(2.0)

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

    @pytest.mark.parametrize("block", [1, 3, 64, PASS_BLOCK])
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.5])
    def test_marcinkiewicz_bits_match_whole_array_formula(self, q, block, monkeypatch):
        # the powered knots multiply the in-place prefix sums a block at a time
        monkeypatch.setattr(majorize, "PASS_BLOCK", block)
        rng = np.random.default_rng(int(10 * q) + block)
        unequal = [random_profile(rng) for _ in range(4)]
        equal = [Profile(np.arange(k + 1) / k, np.sort(rng.gamma(2.0, 1.0, k))[::-1])
                 for k in (5, 64, 2 * PASS_BLOCK + 3)]
        for p in unequal + equal:
            ref = float(np.max(np.cumsum(p.values * p.widths) * p.knots[1:] ** (1.0 / q - 1.0)))
            assert ri_norm(p, RINorm("marcinkiewicz", q)) == ref

    def test_orlicz_power2_equals_l2(self):
        X2 = RINorm("orlicz", young=YoungFunction.power(2))
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_profile(rng)
            assert ri_norm(p, X2) == pytest.approx(
                ri_norm(p, RINorm("lp", 2.0)), rel=1e-8
            )

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(5)
        p = random_profile(rng)
        q = p.scaled(2.5)
        for X in DEFAULT_NORM_FAMILY:
            rel = 1e-9 if X.kind == "orlicz" else 1e-12
            assert ri_norm(q, X) == pytest.approx(2.5 * ri_norm(p, X), rel=rel)

    def test_zero_profile(self):
        zero = Profile.constant(0.0)
        for X in DEFAULT_NORM_FAMILY:
            assert ri_norm(zero, X) == 0.0

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_luxemburg_normalization(self, seed):
        # the Luxemburg functional sits at the unit-integral level
        rng = np.random.default_rng(seed)
        p = random_profile(rng)
        for A in (YoungFunction.exp_sq_truncated(), YoungFunction.power(3)):
            lam = ri_norm(p, RINorm("orlicz", young=A))
            assert lam > 0
            val = orlicz_integral(Profile(p.knots, p.values / lam), A)
            assert 1 - 1e-8 <= val <= 1 + 1e-8


def bisection_luxemburg(p: Profile, A: YoungFunction, rel_tol: float = 1e-13) -> float:
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


def _passes(young_calls, p, A):
    """The norm and the work it took in whole passes over ``p``: the
    elements passed to A, divided by the pieces of ``p``."""
    young_calls.clear()
    value = ri_norm(p, RINorm("orlicz", young=A))
    return value, sum(young_calls) / p.num_pieces


class TestLuxemburg:
    @settings(max_examples=30, deadline=None)
    @given(_LUXEMBURG_PROFILES, st.floats(0.0, 4.0), st.sampled_from([20.0, 2.0]))
    def test_matches_bisection(self, p, c, T):
        for A in (YoungFunction.power(1), YoungFunction.power(3), YoungFunction.hinge(c),
                  YoungFunction.exp_sq_truncated(T)):
            got = ri_norm(p, RINorm("orlicz", young=A))
            assert got == pytest.approx(bisection_luxemburg(p, A), rel=1e-10, abs=0.0), A.label

    @settings(max_examples=30, deadline=None)
    @given(_LUXEMBURG_PROFILES, st.floats(1.0, 8.0))
    def test_power_is_lp(self, p, q):
        got = ri_norm(p, RINorm("orlicz", young=YoungFunction.power(q)))
        assert got == pytest.approx(ri_norm(p, RINorm("lp", q)), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("A, norm_of_one", [
        (YoungFunction.exp_sq_truncated(), 1.0 / math.sqrt(math.log(2.0))),
        (YoungFunction.hinge(0.5), 1.0 / 1.5),
        (YoungFunction.power(3), 1.0),
    ], ids=["expsq", "hinge", "power"])
    def test_constant_profiles_at_every_scale(self, young_calls, A, norm_of_one):
        # A(c / lam) = 1 at lam = c * norm_of_one; small profiles used to pay
        # log2(1/c) extra halvings, and c = 1e-305 came out as 0
        passes = []
        for c in (1.0, 1e-6, 1e-100, 1e-305, 1e300):
            value, n = _passes(young_calls, Profile.constant(c), A)
            assert value == pytest.approx(c * norm_of_one, rel=1e-10, abs=0.0), c
            passes.append(n)
        assert max(passes) - min(passes) <= 1, passes

    def test_pass_ceiling(self, young_calls):
        """At most 12 passes per profile (bisection took 35 or more): also
        where the first secant lands on the root (log theta is linear in
        log lam for power(p)) and where the norm lies up to 1e5 below sup."""
        young = (YoungFunction.exp_sq_truncated(), YoungFunction.hinge(0.5),
                 YoungFunction.power(1), YoungFunction.power(3))
        spikes = (tied_profile([1e3, 1e-3], [1, 99999]), tied_profile([7.0, 0.25], [10, 9990]),
                  tied_profile([1e3, 2.5, 1e-6], [3, 300, 30000]))
        cases = [(p, A) for p in (*map(Profile.constant, (1.0, 1e-6, 1e-100, 1e-305, 1e300)),
                                  *spikes)
                 for A in young]
        cases += [(random_profile(np.random.default_rng(seed)), YoungFunction.power(q))
                  for seed in range(20) for q in (1.0, 1.5, 3.0, 8.0)]
        for dim, N in ((1, 4096), (2, 64)):
            for name in corpus_names():
                a = analyze(builtin_field(name, None, dim), equal_measure_grid(dim, N), 4096)
                cases += [(a.grad_prof, YoungFunction.exp_sq_truncated()),
                          (a.surr_prof, YoungFunction.exp_sq_truncated())]
        for p, A in cases:
            value, n = _passes(young_calls, p, A)
            assert value > 0.0 and n <= 12, (A.label, p.sup, n)

    def test_dense_gradient_profile(self, young_calls):
        """The 2^20-piece gradient profile of poly_tanh takes at most six
        whole passes (the walk from sup took ten), matching bisection."""
        grid = equal_measure_grid(1, 2**20)
        p = analyze(builtin_field("poly_tanh"), grid, 4096, ["norm"]).grad_prof
        A = YoungFunction.exp_sq_truncated()
        value, n = _passes(young_calls, p, A)
        assert n <= 6, n
        assert value == pytest.approx(bisection_luxemburg(p, A), rel=1e-10, abs=0.0)

    def test_coarse_bracket_falls_back_to_the_walk(self):
        """A coarse profile of group minima can lose the support that makes
        the norm positive: 1250 of 65536 pieces at 5 give expsq(2) a
        positive norm, but the 1216 pieces of whole groups of 64 do not
        (theta stays below (e^4 - 1) * 1216 / 65536 < 1)."""
        p = tied_profile([5.0, 0.0], [1250, 65536 - 1250])
        A = YoungFunction.exp_sq_truncated(2.0)
        got = ri_norm(p, RINorm("orlicz", young=A))
        assert got > 0.0
        assert got == pytest.approx(bisection_luxemburg(p, A), rel=1e-10, abs=0.0)

    def test_bounded_young_function_can_give_zero(self, young_calls):
        # expsq(2) never exceeds e^4 - 1: on a support of measure 1/64,
        # theta(lam) < 1 for every lam, so the norm is 0, found without a
        # pass instead of by halving lam down to the smallest double
        p = Profile(np.array([0.0, 1.0 / 64.0, 1.0]), np.array([5.0, 0.0]))
        assert _passes(young_calls, p, YoungFunction.exp_sq_truncated(2.0)) == (0.0, 0)
        A = YoungFunction.exp_sq_truncated()
        assert _passes(young_calls, p, A)[0] == pytest.approx(bisection_luxemburg(p, A),
                                                              rel=1e-10, abs=0.0)


class TestParseNorm:
    def test_valid_specs(self):
        assert parse_norm("lp:2").param == 2.0
        assert math.isinf(parse_norm("lp:inf").param)
        assert parse_norm("lorentz:2").kind == "lorentz"
        assert parse_norm("marcinkiewicz:2").kind == "marcinkiewicz"
        assert parse_norm("orlicz:expsq").young is not None

    def test_labels_round_trip(self):
        for spec in ("lp:2", "lp:inf", "lorentz:2", "marcinkiewicz:2", "orlicz:expsq"):
            assert parse_norm(spec).label == spec

    def test_invalid_specs(self):
        for bad in ("lp", "lp:0.5", "lorentz:0", "marcinkiewicz:1", "orlicz:power", "huh:3",
                    "lp:nan", "lorentz:nan", "marcinkiewicz:nan",
                    "lorentz:inf", "lorentz:1e400"):
            with pytest.raises(InvalidParameterError):
                parse_norm(bad)


class TestCalderon:
    def test_equal_profiles(self):
        rep = calderon_check(THREE_ONE, THREE_ONE)
        assert rep.precondition_holds and rep.all_ok
        assert all(v.margin == 0.0 for v in rep.verdicts)

    def test_hand_pair_margins(self):
        rep = calderon_check(TWO_TWO, THREE_ONE)
        assert rep.all_ok
        by_label = {v.label: v for v in rep.verdicts}
        assert by_label["lp:1"].margin == pytest.approx(0.0, abs=1e-15)
        assert by_label["lp:2"].margin == pytest.approx(math.sqrt(5.0) - 2.0)

    def test_margins_scale(self):
        base = calderon_check(TWO_TWO, THREE_ONE)
        scaled = calderon_check(TWO_TWO.scaled(2.5), THREE_ONE.scaled(2.5))
        for a, b in zip(base.verdicts, scaled.verdicts):
            assert b.margin == pytest.approx(2.5 * a.margin, abs=1e-8)

    def test_precondition_reported_not_skipped(self):
        rep = calderon_check(THREE_ONE, TWO_TWO)
        assert not rep.precondition_holds
        assert not rep.all_ok
        assert len(rep.verdicts) == len(DEFAULT_NORM_FAMILY)
