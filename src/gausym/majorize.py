"""The Orlicz norm's Young function, hinge integrals and
rearrangement-invariant norms on profiles.

The "all Young functions" quantifier of the comparison principle is
realized by the hinge family (t-c)+ on a finite c-grid: hinges are the
extreme rays characterizing partial-sum domination between nonincreasing
profiles.  The "any r.i. norm" quantifier is realized by a finite family
spanning the standard scale: Lp, a Lorentz lambda-norm, a Marcinkiewicz
maximal norm, and the Orlicz (Luxemburg) norm of one Young function,
exp(t^2) - 1 truncated at ``EXPSQ_DEFAULT_CAP``.  The ``orlicz`` and
``norm`` checks compare profiles of one analysis through these; the
partial sums themselves are ``Profile.cumulative``.

The norm record ``RINorm`` is a ``NamedTuple``, immutable and compared by
value: a frozen dataclass would generate its methods through ``exec``
each time the module is imported.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import BracketingError, InvalidParameterError
from .rearrange import PASS_BLOCK, Profile

EXPSQ_DEFAULT_CAP = 20.0
HINGE_GRID_SIZE = 256
_TINY = float(np.finfo(float).tiny)  # smallest normal double
_TINY_SUM = 2.0 ** -500  # an Lp power sum below this may have lost terms to underflow
_MAX_PASSES = 100  # Luxemburg refinement; typical profiles take two to ten
_REL_TOL = 1e-10  # relative width at which the Luxemburg bracket stops
_COARSE_STEP = 64  # knots apart in the coarse profiles of a Luxemburg bracket
# fewest pieces for which that bracket pays: measured on gradient
# profiles, it was slower at 8192 pieces, about even at 16384, faster at 32768
_COARSE_MIN_PIECES = 32768
_BOUND_STEP = 256  # knots per run bounded at once in the Marcinkiewicz norm's pruning


class YoungFunction:
    """The Young function A(t) = exp(min(|t|, T)^2) - 1 of the Orlicz norm,
    T = ``EXPSQ_DEFAULT_CAP``: convex and nondecreasing on [0, inf) with
    A(0) = 0, truncated to stay finite in double precision: its sup is
    e^(T^2) - 1, about 5.2e173.
    """

    __slots__ = ()

    def __call__(self, t, out=None, nonnegative=False):
        """A(t) elementwise, into ``out`` when given (a float array shaped
        like ``t``, or ``t`` itself), else into one fresh array.  In place
        from there: the Luxemburg root-finder calls this on whole profiles
        a few times per norm.  ``nonnegative`` says that t >= 0 already,
        so the |t| pass is skipped."""
        if out is None:
            t = out = np.array(t, dtype=float)
        x = out if nonnegative and t is out else np.abs(t, out=out)
        np.minimum(x, EXPSQ_DEFAULT_CAP, out=x)
        x *= x
        np.expm1(x, out=x)
        return x if x.ndim else x[()]


_EXPSQ = YoungFunction()
_EXPSQ_SUP = float(np.expm1(EXPSQ_DEFAULT_CAP * EXPSQ_DEFAULT_CAP))


class RINorm(NamedTuple):
    """Rearrangement-invariant norm specification.

    kinds: lp (p in [1, inf]), lorentz (lambda_p, 1 <= p < inf), marcinkiewicz
    (maximal-function form, p > 1), orlicz (the Luxemburg norm of
    ``YoungFunction``, no exponent).
    """

    kind: str
    param: float = math.nan

    @property
    def label(self) -> str:
        """``kind:exponent``, the exponent in its shortest round-trip form
        less a trailing ``.0``, so that two norms share a label only when
        they are the same norm and ``parse_norm`` reads it back."""
        if self.kind == "orlicz":
            return "orlicz:expsq"
        return f"{self.kind}:{self.param!r}".removesuffix(".0")


# norm kind -> (whether an exponent is accepted, the rule a refused one breaks);
# each test is written so that NaN fails it, and lorentz:inf would integrate
# against d(s^0) = 0: a norm of 0 for every profile
_EXPONENT_RULES = {
    "lp": (lambda p: p >= 1, ">= 1"),
    "lorentz": (lambda p: 1 <= p < math.inf, "finite and >= 1"),
    "marcinkiewicz": (lambda p: p > 1, "> 1"),
}


def parse_norm(spec: str) -> RINorm:
    """Parse the CLI mini-syntax: lp:2, lp:inf, lorentz:2, marcinkiewicz:2,
    orlicz:expsq."""
    kind, sep, arg = spec.strip().partition(":")
    if not sep:
        raise InvalidParameterError(f"norm spec {spec!r} needs kind:parameter")
    if kind in _EXPONENT_RULES:
        accepts, rule = _EXPONENT_RULES[kind]
        p = float(arg)
        if not accepts(p):
            raise InvalidParameterError(f"{kind} exponent must be {rule}, got {arg}")
        return RINorm(kind, p)
    if kind == "orlicz":
        if arg != "expsq":
            raise InvalidParameterError(f"unknown orlicz spec {arg!r}; use expsq")
        return RINorm("orlicz")
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
    RINorm("orlicz"),
)


def hinge_integrals(p: Profile, c_grid) -> np.ndarray:
    """Integral of (p - c)+ over (0, 1) for every threshold c in c_grid.

    A profile is nonincreasing, so (p - c)+ lives on its first
    k = #{values > c} pieces, where it integrates to the cumulative up to
    knot k minus c times that knot: O(K + C log K), no C x K temporary.
    """
    c = np.asarray(c_grid, dtype=float)
    knot = p.knot(np.searchsorted(-p.values, -c, side="left"))
    return p.cumulative(knot) - c * knot


def _luxemburg(p: Profile) -> float:
    """Luxemburg norm inf{lam > 0 : theta(lam) <= 1}, theta(lam) = integral
    of A(p / lam) for A the ``YoungFunction``, to ``_REL_TOL`` relative.

    Root of log theta against log lam by Illinois regula falsi (Dowell &
    Jarratt 1971) on a bracket theta(lo) > 1 >= theta(hi), one pass over
    the profile per probe.  A profile of at least ``_COARSE_MIN_PIECES``
    pieces takes its bracket, and the log theta it starts from at either
    end, from two coarse profiles (``_coarse_bracket``), a third of a pass
    in all, so every whole pass is a probe that shrinks the bracket: three
    on the 2^20-piece gradient profile of the 1-d ``poly_tanh`` field.  Any other profile,
    or one whose coarse profiles give no usable start, walks from sup p.
    The search stops when hi - lo <= _REL_TOL * hi and returns the
    midpoint.
    The norm is 0 when theta <= 1 for every lam, which the bounded A
    allows on a support of measure at most 1/sup A; norms below the
    smallest normal double are returned as 0 too.
    """
    if p.sup < _TINY or _EXPSQ_SUP * p.super_level_measure(0.0) <= 1.0:
        return 0.0

    values, widths = p.values, p.widths
    # a profile that ends at or above 0 is its own |p|: A skips that pass
    nonnegative = bool(values[-1] >= 0.0)
    # One profile-sized array for every pass: A runs in place on it.
    # Fresh arrays per pass let the C allocator trim and regrow its heap on
    # every pass, which tripled the time of this loop depending on earlier
    # allocations.
    scaled = np.empty_like(values)

    def log_theta(lam: float) -> float:
        np.multiply(values, 1.0 / lam, out=scaled)
        # weighted in place and summed pairwise: np.dot would hand the sum
        # to BLAS, whose bits depend on its thread count
        with np.errstate(over="ignore"):
            np.multiply(_EXPSQ(scaled, out=scaled, nonnegative=nonnegative), widths, out=scaled)
            theta = float(np.sum(scaled))
        return math.log(theta) if theta > 0.0 else -math.inf

    bracket = None
    if p.num_pieces >= _COARSE_MIN_PIECES:
        bracket = _coarse_bracket(p)
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
            if last_lo is False:
                y_lo *= 0.5
            hi, y_hi, last_lo = lam, y, False
    raise BracketingError(f"Luxemburg root-finding did not converge in {_MAX_PASSES} passes")


def _coarse_bracket(p: Profile):
    """A bracket (lo, log theta(lo), hi, log theta(hi), last_lo) of the
    norm of ``p`` read off two coarse profiles on every
    ``_COARSE_STEP``-th knot of ``p``, with no pass over ``p`` itself, or
    None when they give no usable start.

    One coarse profile takes each group's first (largest) value, the other
    its last (smallest).  A is nondecreasing, so their theta bound that of
    ``p`` from above and from below at every lam, whatever the widths, and
    their norms bound the norm of ``p``.  Each coarse norm is found to
    ``_REL_TOL`` and its end widened by ``_REL_TOL``, so theta(lo) > 1 >=
    theta(hi) holds without a check on ``p``.  The log theta at either end
    is that of the mean of the two coarse thetas there, the rule of an
    upper and a lower sum: it lies between the bounds, on the right side
    of 1, and near the true value, so the first secant lands near the
    root.  Neither end has just moved (``last_lo`` is None).
    """
    K = p.num_pieces
    first = np.arange(0, K, _COARSE_STEP)
    knots = np.append(p.knot(first), 1.0)
    last = np.append(first[1:] - 1, K - 1)
    upper, lower = Profile(knots, p.values[first]), Profile(knots, p.values[last])
    lo = _luxemburg(lower) * (1.0 - _REL_TOL)
    if not lo >= _TINY:
        return None
    hi = _luxemburg(upper) * (1.0 + _REL_TOL)

    def log_mean_theta(lam: float) -> float:
        with np.errstate(over="ignore"):
            up, low = (float(np.sum(_EXPSQ(c.values / lam) * c.widths)) for c in (upper, lower))
        theta = 0.5 * (up + low)
        return math.log(theta) if theta > 0.0 else -math.inf

    y_lo, y_hi = log_mean_theta(lo), log_mean_theta(hi)
    if not y_lo > 0.0 >= y_hi:
        return None
    return lo, y_lo, hi, y_hi, None


def _walk_bracket(sup: float, log_theta):
    """A bracket (lo, log theta(lo), hi, log theta(hi), last_lo) walked
    from ``sup`` by doubling, then halving, or None when the norm lies
    below the smallest normal double.  A(20) = e^400 - 1, so the norm is
    at least sup / 20 whenever the top piece is wider than 1/(e^400 - 1):
    then at most five halvings find the lower end."""
    lo, hi = 0.0, sup
    y_hi = log_theta(hi)
    last_lo = False  # whether the last probe became the lower end
    while y_hi > 0.0:  # at most once: theta(2 sup) <= A(1/2) < 1
        lo, y_lo = hi, y_hi
        hi *= 2.0
        y_hi = log_theta(hi)
    while lo == 0.0:
        if hi <= _TINY:
            return None
        lam = max(0.5 * hi, _TINY)  # keeps 1 / lam finite
        y = log_theta(lam)
        if y > 0.0:
            lo, y_lo, last_lo = lam, y, True
        else:
            hi, y_hi = lam, y
    return lo, y_lo, hi, y_hi, last_lo


def _power_sum(values: np.ndarray, widths: np.ndarray, power: float) -> float:
    """Sum of values^power * widths, the products in place: one
    profile-sized temporary, and for power 1 no pass to power them."""
    if power == 1.0:
        terms = values * widths
    else:
        terms = values ** power
        terms *= widths
    return float(np.sum(terms))


def _marcinkiewicz(p: Profile, power: float) -> float:
    """max over k of P_k * t_k^power, P_k the integral of ``p`` over (0,
    t_k] and t_k its knot k + 1, with power = 1/q - 1 in (-1, 0).

    The prefix sums are one ``cumsum`` in place (one temporary per norm),
    weighted in place by the powered knots a ``PASS_BLOCK`` at a time.  A
    block is weighted only while it can hold the max: the prefix sums of a
    profile that ends at or above 0 never decrease (rounding is monotone)
    and t^power decreases, so on each ``_BOUND_STEP`` run of knots the
    terms are at most its last prefix sum times its first knot's power.
    Those bounds, with a margin for the rounding of ``pow`` and of the
    products, order the blocks; a block whose bound does not exceed the
    max so far is skipped, and the max keeps the bits of weighting every
    prefix."""
    terms = p.values * p.widths
    np.cumsum(terms, out=terms)
    n = terms.size
    blocks = np.arange(0, n, PASS_BLOCK)
    if p.values[-1] >= 0.0:
        step = math.gcd(PASS_BLOCK, _BOUND_STEP)  # runs that tile the blocks
        starts = np.arange(0, n, step)
        ends = np.minimum(starts + step, n)
        with np.errstate(over="ignore"):
            bound = terms[ends - 1] * p.knot(starts + 1) ** power
            bound *= 1.0 + 2.0 ** -40
            bound += _TINY  # above a subnormal product's absolute rounding
        bound = np.maximum.reduceat(bound, blocks // step)
    else:
        bound = np.full(blocks.size, math.inf)
    top = -math.inf
    for b in np.argsort(-bound, kind="stable"):
        if bound[b] <= top:
            break
        start, stop = int(blocks[b]), min(int(blocks[b]) + PASS_BLOCK, n)
        block = terms[start:stop]
        block *= p.knot(np.arange(start + 1, stop + 1)) ** power
        top = max(top, float(block.max()))
    return top


def ri_norm(p: Profile, X: RINorm) -> float:
    """Evaluate a rearrangement-invariant norm of a profile.

    Lp by exact piecewise quadrature (L-inf is the top value; a power
    sum that over- or underflows is taken again on the values scaled by
    a power of two, exactly, as ``fields.partials_norm`` does), the
    Lorentz lambda-norm integrates the profile against d(s^(1/p)), the
    Marcinkiewicz norm takes the exact sup of t^(1/p-1) * integral over
    (0,t] (attained at knots: on each piece that function is a sum of a
    decreasing and an increasing term; only the blocks of knots that can
    hold it are powered), and the Orlicz norm is the Luxemburg
    functional, located to 1e-10 relative by Illinois regula falsi on log
    theta against log lambda (about ten passes over the profile; usually
    two to five for one of 32768 pieces or more, whose bracket and starting
    values come from two coarse profiles of its block bounds).  A Luxemburg
    norm that comes out inf for a finite profile had a bracket end
    overflow, and is found again on the values scaled by a power of two,
    as for Lp."""
    if X.kind == "lp":
        if math.isinf(X.param):
            return p.sup
        with np.errstate(over="ignore", under="ignore"):
            total = _power_sum(p.values, p.widths, X.param)
            if total == math.inf or (total < _TINY_SUM and p.sup > 0.0):
                # a power over- or underflowed: again on the values scaled
                # by a power of two (exactly) to a top in [1/2, 1)
                exponent = math.frexp(p.sup)[1]
                scaled = np.ldexp(p.values, -exponent)
                total = _power_sum(scaled, p.widths, X.param)
                return math.ldexp(total ** (1.0 / X.param), exponent)
        return float(total ** (1.0 / X.param))
    if X.kind == "lorentz":
        # the powered knots differenced a block at a time into one
        # temporary per norm, then weighted in place
        terms = np.empty(p.num_pieces)
        for start in range(0, terms.size, PASS_BLOCK):
            stop = min(start + PASS_BLOCK, terms.size)
            powered = p.knot(np.arange(start, stop + 1)) ** (1.0 / X.param)
            np.subtract(powered[1:], powered[:-1], out=terms[start:stop])
        terms *= p.values
        return float(np.sum(terms))
    if X.kind == "marcinkiewicz":
        return _marcinkiewicz(p, 1.0 / X.param - 1.0)
    if X.kind == "orlicz":
        norm = _luxemburg(p)
        if norm == math.inf and math.isfinite(p.sup):
            # a bracket end overflowed, the profile's top being within a
            # factor of 2 or so of the largest double: again on the values
            # scaled by a power of two (exactly) to a top in [1/2, 1)
            exponent = math.frexp(p.sup)[1]
            norm = _luxemburg(p.scaled(2.0 ** -exponent))
            with np.errstate(over="ignore"):
                return float(np.ldexp(norm, exponent))
        return norm
    raise InvalidParameterError(f"unknown norm kind {X.kind!r}")
