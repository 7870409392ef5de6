"""Young functions, Orlicz integrals, partial-sum majorization, and
rearrangement-invariant norms on profiles.

The "all Young functions" quantifier of the comparison principle is
realized by the hinge family (t-c)+ on a finite c-grid: hinges are the
extreme rays characterizing partial-sum domination between nonincreasing
profiles.  The "any r.i. norm" quantifier is realized by a finite family
spanning the standard scale: Lp, a Lorentz lambda-norm, a Marcinkiewicz
maximal norm, and an Orlicz (Luxemburg) norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BracketingError, InvalidParameterError
from .rearrange import PASS_BLOCK, Profile

EXPSQ_DEFAULT_CAP = 20.0
HINGE_GRID_SIZE = 256
_TINY = float(np.finfo(float).tiny)  # smallest normal double
_MAX_PASSES = 100  # Luxemburg refinement; typical profiles take five to ten
_REL_TOL = 1e-10  # relative width at which the Luxemburg bracket stops
_COARSE_STEP = 64  # knots apart in the coarse profiles of a Luxemburg bracket
# fewest pieces for which that bracket pays: measured on gradient
# profiles, it was slower at 8192 pieces, about even at 16384, faster at 32768
_COARSE_MIN_PIECES = 32768


@dataclass(frozen=True)
class YoungFunction:
    """Convex nondecreasing A on [0, inf) with A(0) = 0.

    Kinds: power(p >= 1) t^p; hinge(c >= 0) max(t-c, 0);
    expsq(T) exp(min(t, T)^2) - 1, truncated to stay finite in double
    precision (default T = 20).
    """

    kind: str
    param: float

    def __call__(self, t, out=None):
        """A(t) elementwise, into ``out`` when given (a float array shaped
        like ``t``, or ``t`` itself), else into one fresh array.  In place
        from there: the Luxemburg root-finder calls this on whole profiles
        five to ten times per norm."""
        if out is None:
            t = out = np.array(t, dtype=float)
        x = np.abs(t, out=out)
        if self.kind == "power":
            x **= self.param
        elif self.kind == "hinge":
            x -= self.param
            np.maximum(x, 0.0, out=x)
        else:
            np.minimum(x, self.param, out=x)
            x *= x
            np.expm1(x, out=x)
        return x if x.ndim else x[()]

    @property
    def label(self) -> str:
        return f"{self.kind}({self.param:g})"

    @property
    def sup(self) -> float:
        """Supremum of A over [0, inf): finite only for the truncated expsq."""
        if self.kind != "expsq":
            return math.inf
        with np.errstate(over="ignore"):
            return float(np.expm1(self.param * self.param))

    @classmethod
    def power(cls, p: float) -> "YoungFunction":
        if p < 1:
            raise InvalidParameterError(f"power exponent must be >= 1, got {p}")
        return cls("power", float(p))

    @classmethod
    def hinge(cls, c: float) -> "YoungFunction":
        if c < 0:
            raise InvalidParameterError(f"hinge threshold must be >= 0, got {c}")
        return cls("hinge", float(c))

    @classmethod
    def exp_sq_truncated(cls, T: float = EXPSQ_DEFAULT_CAP) -> "YoungFunction":
        if T <= 0:
            raise InvalidParameterError(f"truncation level must be positive, got {T}")
        return cls("expsq", float(T))


@dataclass(frozen=True)
class RINorm:
    """Rearrangement-invariant norm specification.

    kinds: lp (p in [1, inf]), lorentz (lambda_p, 1 <= p < inf), marcinkiewicz
    (maximal-function form, p > 1), orlicz (Luxemburg norm of a Young
    function).
    """

    kind: str
    param: float = math.nan
    young: Optional[YoungFunction] = None

    @property
    def label(self) -> str:
        if self.kind == "orlicz":
            return f"orlicz:{self.young.kind}"
        p = "inf" if math.isinf(self.param) else f"{self.param:g}"
        return f"{self.kind}:{p}"


def parse_norm(spec: str) -> RINorm:
    """Parse the CLI mini-syntax: lp:2, lp:inf, lorentz:2, marcinkiewicz:2,
    orlicz:expsq."""
    kind, sep, arg = spec.strip().partition(":")
    if not sep:
        raise InvalidParameterError(f"norm spec {spec!r} needs kind:parameter")
    if kind == "lp":
        p = math.inf if arg == "inf" else float(arg)
        if not p >= 1:  # NaN fails too
            raise InvalidParameterError(f"lp exponent must be >= 1, got {arg}")
        return RINorm("lp", p)
    if kind == "lorentz":
        p = float(arg)
        # lorentz:inf would integrate against d(s^0) = 0: a norm of 0 for every profile
        if not 1 <= p < math.inf:
            raise InvalidParameterError(f"lorentz exponent must be finite and >= 1, got {arg}")
        return RINorm("lorentz", p)
    if kind == "marcinkiewicz":
        p = float(arg)
        if not p > 1:
            raise InvalidParameterError(f"marcinkiewicz exponent must be > 1, got {arg}")
        return RINorm("marcinkiewicz", p)
    if kind == "orlicz":
        if arg != "expsq":
            raise InvalidParameterError(f"unknown orlicz spec {arg!r}; use expsq")
        return RINorm("orlicz", young=YoungFunction.exp_sq_truncated())
    raise InvalidParameterError(
        f"unknown norm kind {kind!r}; use lp, lorentz, marcinkiewicz or orlicz"
    )


DEFAULT_NORM_FAMILY: tuple[RINorm, ...] = (
    RINorm("lp", 1.0),
    RINorm("lp", 1.5),
    RINorm("lp", 2.0),
    RINorm("lp", 4.0),
    RINorm("lp", math.inf),
    RINorm("lorentz", 2.0),
    RINorm("marcinkiewicz", 2.0),
    RINorm("orlicz", young=YoungFunction.exp_sq_truncated()),
)


def orlicz_integral(p: Profile, A) -> float:
    """Integral of A over a Profile, an exact piecewise sum."""
    return float(np.sum(A(p.values) * p.widths))


@dataclass(frozen=True)
class MajorizationVerdict:
    holds: bool
    min_margin: float
    argmin_t: float
    t_grid: np.ndarray
    margins: np.ndarray


def majorizes(h: Profile, g: Profile, M: int = 1024, tol: float = 1e-12) -> MajorizationVerdict:
    """Partial-sum domination: integral of g over (0,t] <= same for h,
    for every t on the uniform M-grid; reports the minimal margin and
    where it occurs."""
    t_grid = np.arange(1, M + 1) / M
    margins = h.cumulative(t_grid) - g.cumulative(t_grid)
    k = int(np.argmin(margins))
    return MajorizationVerdict(
        holds=bool(margins[k] >= -tol),
        min_margin=float(margins[k]),
        argmin_t=float(t_grid[k]),
        t_grid=t_grid,
        margins=margins,
    )


def hinge_integrals(p: Profile, c_grid) -> np.ndarray:
    """Integral of (p - c)+ over (0, 1) for every threshold c in c_grid.

    A profile is nonincreasing, so (p - c)+ lives on its first
    k = #{values > c} pieces, where it integrates to the cumulative up to
    knot k minus c times that knot: O(K + C log K), no C x K temporary.
    """
    c = np.asarray(c_grid, dtype=float)
    knot = p.knots[np.searchsorted(-p.values, -c, side="left")]
    return p.cumulative(knot) - c * knot


@dataclass(frozen=True)
class HlpEquivalenceReport:
    orlicz_dominated: bool  # all hinge integrals of g below those of h
    majorization_holds: bool
    witness_c: Optional[float]  # first c breaking the hinge comparison
    witness_t: Optional[float]  # argmin margin when majorization fails
    max_hinge_excess: float

    @property
    def agree(self) -> bool:
        return self.orlicz_dominated == self.majorization_holds


def hlp_equivalence_check(
    g: Profile,
    h: Profile,
    c_grid: Optional[np.ndarray] = None,
    M: int = 1024,
    tol: float = 1e-10,
) -> HlpEquivalenceReport:
    """Cross-check the two equivalent domination predicates for g against h:
    hinge integrals ordered for every c, and partial sums ordered for
    every t.  Disagreement beyond tolerance comes with a witness.

    The default c-grid is the profiles' own values: the hinge gap is
    piecewise linear in c with kinks there, so its max over c is attained
    at one of them, however narrow the band of c where it is positive."""
    if c_grid is None:
        c_grid = np.union1d(g.values, h.values)
    c_grid = np.asarray(c_grid, dtype=float)
    excess = hinge_integrals(g, c_grid) - hinge_integrals(h, c_grid)
    bad = np.nonzero(excess > tol)[0]
    orlicz_dominated = bad.size == 0
    verdict = majorizes(h, g, M=M, tol=tol)
    return HlpEquivalenceReport(
        orlicz_dominated=orlicz_dominated,
        majorization_holds=verdict.holds,
        witness_c=float(c_grid[bad[0]]) if bad.size else None,
        witness_t=None if verdict.holds else verdict.argmin_t,
        max_hinge_excess=float(np.max(excess)),
    )


def _luxemburg(p: Profile, A: YoungFunction) -> float:
    """Luxemburg norm inf{lam > 0 : theta(lam) <= 1}, theta(lam) = integral
    of A(p / lam), to ``_REL_TOL`` relative.

    Root of log theta against log lam (exactly linear for power(p)) by
    Illinois regula falsi (Dowell & Jarratt 1971) on a bracket
    theta(lo) > 1 >= theta(hi), one pass over the profile per probe.  A
    profile of at least ``_COARSE_MIN_PIECES`` pieces takes its bracket
    from the norms of two coarse profiles (``_coarse_bracket``): two
    passes to check its ends, and a third of one for those norms.  Any
    other profile, or one whose coarse ends do not bracket the root,
    walks from sup p.  The search stops when hi - lo <= _REL_TOL * hi and
    returns the midpoint.
    The norm is 0 when theta <= 1 for every lam, which a bounded A allows;
    norms below the smallest normal double are returned as 0 too.
    """
    if p.sup < _TINY or A.sup * p.super_level_measure(0.0) <= 1.0:
        return 0.0

    values, widths = p.values, p.widths
    # One profile-sized array for every pass: A runs in place on it.
    # Fresh arrays per pass let the C allocator trim and regrow its heap on
    # every pass, which tripled the time of this loop depending on earlier
    # allocations.
    scaled = np.empty_like(values)

    def log_theta(lam: float) -> float:
        np.multiply(values, 1.0 / lam, out=scaled)
        with np.errstate(over="ignore"):
            theta = float(np.dot(A(scaled, out=scaled), widths))
        return math.log(theta) if theta > 0.0 else -math.inf

    bracket = None
    if p.num_pieces >= _COARSE_MIN_PIECES:
        bracket = _coarse_bracket(p, A, log_theta)
    if bracket is None:
        bracket = _walk_bracket(p.sup, log_theta)
        if bracket is None:
            return 0.0
    lo, y_lo, hi, y_hi, last_lo = bracket

    for _ in range(_MAX_PASSES):
        if hi - lo <= _REL_TOL * hi:
            return 0.5 * (lo + hi)
        if math.isfinite(y_lo + y_hi):
            # y_lo > 0 >= y_hi: the secant root lies in [lo, hi] up to rounding
            x_lo, x_hi = math.log(lo), math.log(hi)
            lam = math.exp(x_hi - y_hi * (x_hi - x_lo) / (y_hi - y_lo))
        else:
            lam = 0.5 * (lo + hi)
        # A probe within _REL_TOL/2 of an end goes _REL_TOL/2 inside instead:
        # once a secant lands that close to the root, the next probe falls
        # just across it and the bracket closes, where a secant pinned to that
        # end would only creep.
        delta = 0.5 * _REL_TOL * hi
        lam = min(max(lam, lo + delta), hi - delta)
        y = log_theta(lam)
        if y > 0.0:
            if last_lo:
                y_hi *= 0.5  # Illinois: the same end moved twice running
            lo, y_lo, last_lo = lam, y, True
        else:
            if not last_lo:
                y_lo *= 0.5
            hi, y_hi, last_lo = lam, y, False
    raise BracketingError(f"Luxemburg root-finding did not converge in {_MAX_PASSES} passes")


def _coarse_bracket(p: Profile, A: YoungFunction, log_theta):
    """A bracket (lo, log theta(lo), hi, log theta(hi), last_lo) from two
    coarse profiles on every ``_COARSE_STEP``-th knot of ``p``, or None
    when its ends do not bracket the root.

    One coarse profile takes each group's first (largest) value, the other
    its last (smallest).  A is nondecreasing, so their theta bound that of
    ``p`` from above and from below at every lam, whatever the widths, and
    their norms bound the norm of ``p``.  Each end is widened by
    ``_REL_TOL``, the accuracy of those norms, and checked on ``p`` itself.
    """
    K = p.num_pieces
    first = np.arange(0, K, _COARSE_STEP)
    knots = np.append(p.knots[first], 1.0)
    last = np.append(first[1:] - 1, K - 1)
    lo = _luxemburg(Profile(knots, p.values[last]), A) * (1.0 - _REL_TOL)
    if not lo >= _TINY:
        return None
    hi = _luxemburg(Profile(knots, p.values[first]), A) * (1.0 + _REL_TOL)
    del first, knots, last  # not held through the two passes over p
    y_hi = log_theta(hi)
    y_lo = log_theta(lo)  # probed last: the bracket starts as if lo had just moved
    if not y_lo > 0.0 >= y_hi:
        return None
    return lo, y_lo, hi, y_hi, True


def _walk_bracket(sup: float, log_theta):
    """A bracket (lo, log theta(lo), hi, log theta(hi), last_lo) walked
    from ``sup``, or None when the norm lies below the smallest normal
    double."""
    lo, hi = 0.0, sup
    y_hi = log_theta(hi)
    last_lo = False  # whether the last probe became the lower end
    while y_hi > 0.0:  # at most once: theta(2 sup) <= A(1/2) <= 1/2 for every kind
        lo, y_lo = hi, y_hi
        hi *= 2.0
        y_hi = log_theta(hi)
    above = None  # the upper end before the last one
    halvings = 0
    while lo == 0.0:
        if hi <= _TINY:
            return None
        lam = 0.5 * hi
        if halvings >= 2 and y_hi > above[1]:
            # Profiles whose norm lies far below sup: extrapolate the secant
            # through the last two upper ends, but not below hi * theta(hi)/2,
            # where theta > 1 already holds for convex A (t A'(t) >= A(t), so
            # log theta falls at least as fast as log lam rises).  Near sup
            # the secant is too shallow for expsq and would overshoot into
            # the cap, hence two plain halvings first.
            x_hi, x_above = math.log(hi), math.log(above[0])
            x = x_hi - y_hi * (x_hi - x_above) / (y_hi - above[1])
            lam = min(lam, max(math.exp(x), lam * math.exp(y_hi)))
        lam = max(lam, _TINY)  # keeps 1 / lam finite
        y = log_theta(lam)
        if y > 0.0:
            lo, y_lo, last_lo = lam, y, True
        else:
            above, hi, y_hi = (hi, y_hi), lam, y
            halvings += 1
    return lo, y_lo, hi, y_hi, last_lo


def ri_norm(p: Profile, X: RINorm) -> float:
    """Evaluate a rearrangement-invariant norm of a profile.

    Lp by exact piecewise quadrature (L-inf is the top value), the
    Lorentz lambda-norm integrates the profile against d(s^(1/p)), the
    Marcinkiewicz norm takes the exact sup of t^(1/p-1) * integral over
    (0,t] (attained at knots: on each piece that function is a sum of a
    decreasing and an increasing term), and the Orlicz norm is the
    Luxemburg functional, located to 1e-10 relative by Illinois regula
    falsi on log theta against log lambda (about ten passes over the
    profile; about five for one of 32768 pieces or more, whose bracket
    comes from two coarse profiles of its block bounds)."""
    if X.kind == "lp":
        if math.isinf(X.param):
            return p.sup
        # products in place: one profile-sized temporary per norm
        terms = p.values ** X.param
        terms *= p.widths
        return float(np.sum(terms) ** (1.0 / X.param))
    if X.kind == "lorentz":
        # the powered knots differenced in place: one temporary per norm
        powered = p.knots ** (1.0 / X.param)
        terms = np.subtract(powered[1:], powered[:-1], out=powered[:-1])
        terms *= p.values
        return float(np.sum(terms))
    if X.kind == "marcinkiewicz":
        # every prefix is read: one cumsum, in place, weighted in place by
        # the powered knots a block at a time (one temporary per norm)
        terms = p.values * p.widths
        np.cumsum(terms, out=terms)
        knots, power = p.knots, 1.0 / X.param - 1.0
        for start in range(0, terms.size, PASS_BLOCK):
            stop = start + PASS_BLOCK
            terms[start:stop] *= knots[start + 1:stop + 1] ** power
        return float(np.max(terms))
    if X.kind == "orlicz":
        return _luxemburg(p, X.young)
    raise InvalidParameterError(f"unknown norm kind {X.kind!r}")


@dataclass(frozen=True)
class NormVerdict:
    label: str
    norm_g: float
    norm_h: float
    margin: float
    ok: bool


@dataclass(frozen=True)
class CalderonReport:
    precondition_holds: bool
    min_majorization_margin: float
    verdicts: tuple

    @property
    def all_ok(self) -> bool:
        return self.precondition_holds and all(v.ok for v in self.verdicts)


def calderon_check(
    g: Profile,
    h: Profile,
    norms: Sequence[RINorm] = DEFAULT_NORM_FAMILY,
    M: int = 1024,
    tol: float = 1e-9,
) -> CalderonReport:
    """Norm domination under majorization: given g majorized by h, every
    norm in the family must order the pair the same way.  A violated
    precondition is reported, never silently skipped."""
    verdict = majorizes(h, g, M=M)
    results = []
    for X in norms:
        ng = ri_norm(g, X)
        nh = ri_norm(h, X)
        margin = nh - ng
        results.append(
            NormVerdict(X.label, ng, nh, margin, bool(margin >= -tol * (1.0 + abs(nh))))
        )
    return CalderonReport(
        precondition_holds=verdict.holds,
        min_majorization_margin=verdict.min_margin,
        verdicts=tuple(results),
    )
