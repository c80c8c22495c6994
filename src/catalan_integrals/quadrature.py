"""Adaptive Gauss-Kronrod quadrature, with a map of the half line onto (0, 1).

The base rule is the 21-point Kronrod extension of 10-point Gauss
(G10/K21) with the classical QUADPACK error estimate, the rule that
QUADPACK's QAGS takes for smooth integrands (Piessens et al., 1983);
the adaptive driver bisects the panel with the worst estimate first,
and is the only code that tests convergence.  It stops short of the
tolerance once the panels sit at their 50 eps floors, which no
bisection lowers, once the worst panel reaches float resolution, or
once its subdivision budget is spent; a remainder that alone misses
the tolerance does not stop it.

The driver only ever sees finite panels: every infinite integral is
mapped onto (0, 1) before it reaches the driver, as in QUADPACK's
QAGI.  A half-line integral over (0, inf) whose caller supplies an
analytic tail bound |f(t)| <= K exp(-c t) is mapped here, by
t = -(8/c) ln(1 - u), which turns e^{-c t} into the polynomial
(1 - u)^8 and starts from the one panel [0, 1]; the driver counts the
mass the map folds away in doubles, at most (K/c) 2^-424, in its
error estimate from its first pass.  So the bound is all a caller
states about a half-line integrand.  A finite integral starts from one
panel, or from the panels between the breakpoints its caller names.
An integrand with no exponential tail bound is mapped onto (0, 1) by
its caller, who knows how fast it decays and so what the map loses in
doubles, and who puts the width of its peak into the map; the
Penson-Mellin route in the representations module shows how.

The driver calls its integrand once per panel: a panel function takes
the tuple of a panel's 21 nodes and returns their 21 values, in the
same order.  That contract is private to this module.  The two public
entry points, the only ways into the driver, take a plain function of
t and adapt it to the contract themselves, ``integrate_half_line`` in
the one loop that also maps the half line, so every integrand the
package hands them is a plain function.  The rule is open, but
bisection may close in on an endpoint until the panels reach
floating-point resolution, and there a node can round onto the
endpoint itself: 1/sqrt(1 - t) on [0, 1] is sampled at t = 1.0.  So
an integrand must be finite at both endpoints.  Next to t = 0,
resolution means subnormal t (and on the half line t = 0 itself, once
8u/c underflows), so 1/sqrt(t) on [0, 1] is never sampled at 0.  An
integrand with a removable singularity at t = 0 must stay finite down
to there on its own, and accurate wherever its error could move the
integral; the kernels module shows how.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable, NamedTuple, Sequence

from .exact import _check_index, _check_real

__all__ = [
    "IntegrandEvaluationError",
    "QuadConfig",
    "QuadResult",
    "TailBound",
    "integrate_finite",
    "integrate_half_line",
]

_EPS = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_TOP = sys.float_info.max


class IntegrandEvaluationError(ValueError):
    """An integrand sample came back non-finite.

    Carries the offending abscissa so the caller can tell an endpoint
    singularity from an interior blow-up.
    """

    def __init__(self, abscissa: float, value: float):
        self.abscissa = abscissa
        self.value = value
        super().__init__(f"integrand returned {value!r} at t = {abscissa!r}")


class TailBound(NamedTuple):
    """Constants of an analytic bound |f(t)| <= K exp(-c t) valid for large
    t; ``integrate_half_line`` takes each as an int or a float, at most
    the largest float, K positive and c at least 8 over the largest
    float, so that the map's scale 8/c is finite."""

    K: float
    c: float


class _QuadConfigFields(NamedTuple):
    abs_tol: float = 1e-12
    rel_tol: float = 1e-11
    max_subdivisions: int = 2000


class QuadConfig(_QuadConfigFields):
    """Tolerances and subdivision budget shared by all quadrature entry points.

    Convergence target is max(abs_tol, rel_tol * |value|).  Each
    tolerance is an int or a float from 0 to the largest float, and at
    least one is positive; max_subdivisions is an integer >= 1 (any type
    that operator.index takes, stored as a plain int).  No field may be
    a bool, and anything else raises ValueError.  An infinite tolerance,
    or an int past the largest float, would accept any first estimate as
    converged.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> QuadConfig:
        fields = _QuadConfigFields(*args, **kwargs)
        abs_tol = _check_real(fields.abs_tol, 0, _TOP, "abs_tol")
        rel_tol = _check_real(fields.rel_tol, 0, _TOP, "rel_tol")
        if abs_tol == 0 and rel_tol == 0:
            raise ValueError("at least one tolerance must be positive")
        budget = _check_index(fields.max_subdivisions, math.inf, "max_subdivisions", 1)
        return super().__new__(cls, abs_tol, rel_tol, budget)

    @classmethod
    def _make(cls, iterable) -> QuadConfig:
        # _replace builds through _make, which would skip __new__'s checks.
        return cls(*iterable)

    def tolerance_for(self, value: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))


class QuadResult(NamedTuple):
    """Outcome of one integration.

    ``converged`` is True only when error_estimate is finite and met the
    configured tolerance; callers decide whether non-convergence is fatal.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


# G10/K21 nodes and weights (positive abscissae; the rule is symmetric),
# as in QUADPACK's QK21.  Indices 1, 3, 5, 7 and 9 of _XGK are the Gauss
# points; G10 has no centre node.  Each entry solves the rules' moment
# equations to 33 digits, checked in 50-digit arithmetic.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831075,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
)
_WGK_CENTER = 0.149445554002916905664936468389821
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_PANEL_EVALUATIONS = 1 + 2 * len(_XGK)

# An integrand as the driver calls it: the nodes of one panel in, their
# values out, in the same order.
Panel = Callable[[tuple[float, ...]], Sequence[float]]


def _midpoint(a: float, b: float) -> float:
    """0.5 (a + b) for finite a and b, or 0.5 a + 0.5 b where a + b
    overflows.  The two differ only where halving an edge rounds, at
    subnormal edges, whose sum never overflows."""
    mid = 0.5 * (a + b)
    return mid if abs(mid) != math.inf else 0.5 * a + 0.5 * b


def _kronrod_panel(f: Panel, a: float, b: float) -> tuple[float, float, float]:
    """One G10/K21 application on [a, b]: returns (K21 value, error
    estimate, error floor).

    The estimate is |K21 - G10| sharpened by the scaled mean absolute
    deviation resasc (the (200 x)^1.5 rule) and floored at 50 eps times
    the absolute integral resabs, exactly as in the classical library
    routine; the floor, 50 eps resabs, is returned too, since no
    bisection lowers it.  f is called once, on the tuple of the center,
    then center - h x_j and center + h x_j for j = 0..9, and each sum
    adds its terms in that order.  The center and the half-width h are
    taken as 0.5 a + 0.5 b and 0.5 b - 0.5 a where a + b or b - a
    overflows, so no node is infinite on a panel with finite edges.
    Finiteness is checked once per panel, on the absolute sum: only when
    that is not finite are the samples scanned, after all 21 have been
    taken, and the error names the first non-finite one in that order.
    Finite samples whose sum overflows raise nothing.
    """
    w0, w1, w2, w3, w4, w5, w6, w7, w8, w9 = _WGK
    g1, g3, g5, g7, g9 = _WG
    h = 0.5 * (b - a)
    if h == math.inf:
        h = 0.5 * b - 0.5 * a
    c = _midpoint(a, b)
    d0, d1, d2, d3, d4, d5, d6, d7, d8, d9 = [h * x for x in _XGK]
    ts = (c, c - d0, c + d0, c - d1, c + d1, c - d2, c + d2, c - d3, c + d3,
          c - d4, c + d4, c - d5, c + d5, c - d6, c + d6, c - d7, c + d7,
          c - d8, c + d8, c - d9, c + d9)
    ys = f(ts)
    (fc, l0, r0, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6, l7, r7,
     l8, r8, l9, r9) = ys
    s1, s3, s5, s7, s9 = l1 + r1, l3 + r3, l5 + r5, l7 + r7, l9 + r9
    resk = (
        _WGK_CENTER * fc + w0 * (l0 + r0) + w1 * s1 + w2 * (l2 + r2) + w3 * s3
        + w4 * (l4 + r4) + w5 * s5 + w6 * (l6 + r6) + w7 * s7
        + w8 * (l8 + r8) + w9 * s9
    )
    resabs = (
        _WGK_CENTER * abs(fc) + w0 * (abs(l0) + abs(r0)) + w1 * (abs(l1) + abs(r1))
        + w2 * (abs(l2) + abs(r2)) + w3 * (abs(l3) + abs(r3))
        + w4 * (abs(l4) + abs(r4)) + w5 * (abs(l5) + abs(r5))
        + w6 * (abs(l6) + abs(r6)) + w7 * (abs(l7) + abs(r7))
        + w8 * (abs(l8) + abs(r8)) + w9 * (abs(l9) + abs(r9))
    )
    if not math.isfinite(resabs):
        for t, y in zip(ts, ys):
            if not math.isfinite(y):
                raise IntegrandEvaluationError(t, y)
    resg = g1 * s1 + g3 * s3 + g5 * s5 + g7 * s7 + g9 * s9
    k = 0.5 * resk
    resasc = (
        _WGK_CENTER * abs(fc - k) + w0 * (abs(l0 - k) + abs(r0 - k))
        + w1 * (abs(l1 - k) + abs(r1 - k)) + w2 * (abs(l2 - k) + abs(r2 - k))
        + w3 * (abs(l3 - k) + abs(r3 - k)) + w4 * (abs(l4 - k) + abs(r4 - k))
        + w5 * (abs(l5 - k) + abs(r5 - k)) + w6 * (abs(l6 - k) + abs(r6 - k))
        + w7 * (abs(l7 - k) + abs(r7 - k)) + w8 * (abs(l8 - k) + abs(r8 - k))
        + w9 * (abs(l9 - k) + abs(r9 - k))
    )
    value = resk * h
    resabs *= abs(h)
    resasc *= abs(h)
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = 50.0 * _EPS * resabs
    if resabs > _UFLOW / (50.0 * _EPS):
        err = max(floor, err)
    return value, err, floor


def _fsum(values: Sequence[float]) -> float:
    """``math.fsum``, or the plain sum where fsum cannot finish: finite
    values that overflow on the way, or +inf and -inf together."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return sum(values)


def _adaptive(
    f: Panel,
    edges: list[float],
    config: QuadConfig,
    remainder: float = 0.0,
) -> QuadResult:
    """Globally adaptive G10/K21 integration over the panels between
    consecutive ``edges``, which ascend.

    The estimate is the panels' summed estimates plus ``remainder``, a
    part no bisection can lower, such as the mass a map folds away.  Each
    starting panel costs 21 evaluations and is not a subdivision.  The
    first pass sums the starting panels once; where that meets the
    tolerance, as it does for most calls, the driver returns it and
    builds no heap.  Otherwise it bisects the worst-error panel, and
    stops at the first of:

    * target met: the estimate meets the tolerance;
    * float floor: the panels' summed 50 eps resabs floors plus the
      remainder miss the tolerance, and the error left above those
      floors is no larger than the floors.  Halves carry about their
      parent's floor between them, so no bisection could then meet the
      target, and none could lower the estimate by more than half;
    * resolution: the worst panel has no double between its edges;
    * budget: ``max_subdivisions`` bisections are spent.

    A remainder over the tolerance stops nothing by itself: the panels
    are bisected to their floors all the same.  Finite samples whose
    panels sum past the largest float, or to inf - inf, give an infinite
    or NaN value, with an infinite estimate: unconverged, not bisected.
    """
    panels = [_kronrod_panel(f, lo, hi) for lo, hi in zip(edges, edges[1:])]
    values, errors, floors = zip(*panels)
    total_value = _fsum(values)
    total_err = _fsum(errors)
    count = len(panels)
    target = config.tolerance_for(total_value)
    if math.isfinite(total_value) and total_err + remainder > target:
        # Heap entries: (-error, a, b, value, floor).  Disjoint panels
        # have distinct left edges, which order equal errors.
        heap = [(-err, lo, hi, value, floor)
                for lo, hi, (value, err, floor) in zip(edges, edges[1:], panels)]
        heapq.heapify(heap)
        total_floor = _fsum(floors)
        for _ in range(config.max_subdivisions):
            target = config.tolerance_for(total_value)
            if total_err + remainder <= target:
                break
            if total_floor + remainder > target and total_err - total_floor <= total_floor:
                break  # at the float floor
            neg_err, a, b, value, floor = heap[0]
            mid = _midpoint(a, b)
            if mid <= a or mid >= b:
                break  # at float resolution
            vl, el, floor_l = _kronrod_panel(f, a, mid)
            vr, er, floor_r = _kronrod_panel(f, mid, b)
            total_value += vl + vr - value
            total_err += el + er + neg_err
            total_floor += floor_l + floor_r - floor
            heapq.heapreplace(heap, (-el, a, mid, vl, floor_l))
            heapq.heappush(heap, (-er, mid, b, vr, floor_r))
        # Reassemble the totals with compensated summation; the
        # incremental running totals above only steer the subdivision
        # order.
        total_value = _fsum([entry[3] for entry in heap])
        total_err = _fsum([-entry[0] for entry in heap])
        count = len(heap)
        target = config.tolerance_for(total_value)
    total_err = total_err + remainder if math.isfinite(total_value) else math.inf
    # Each bisection evaluates two panels and adds one to the heap.
    evaluations = _PANEL_EVALUATIONS * (2 * count - len(panels))
    # An infinite estimate bounds nothing, though it meets the infinite
    # target that an infinite value sets.
    converged = math.isfinite(total_err) and total_err <= target
    return QuadResult(total_value, total_err, evaluations, converged)


def integrate_finite(
    f: Callable[[float], float],
    a: float,
    b: float,
    config: QuadConfig,
    *,
    breakpoints: tuple[float, ...] = (),
) -> QuadResult:
    """Globally adaptive G10/K21 integration of f over [a, b], starting
    from the panels between a, the ascending ``breakpoints`` and b.
    Each edge is an int or a float within the largest float of 0, and no
    bool; anything else, or edges out of order, raises ValueError.

    Like those of QUADPACK's QAGP, breakpoints put the panels' edges
    where the caller knows f changes, so that the driver does not have
    to find them by bisection.  The rule is open, but a node can round
    onto an endpoint once the panels next to it reach floating-point
    resolution, so f must be finite at a and b: integrable endpoint
    behavior like sqrt(b - t) is admissible, 1/sqrt(b - t) is not.
    """
    # An int edge is taken as its float: b - a could overflow as an int.
    edges = [float(_check_real(t, -_TOP, _TOP, "an interval edge")) for t in (a, *breakpoints, b)]
    if not all(lo < hi for lo, hi in zip(edges, edges[1:])):
        raise ValueError(f"need a < breakpoints < b ascending, got {edges}")
    return _adaptive(lambda ts: [*map(f, ts)], edges, config)


def integrate_half_line(
    f: Callable[[float], float],
    config: QuadConfig,
    tail: TailBound,
) -> QuadResult:
    """Integrate f over (0, inf), given the constants of an analytic
    bound |f(t)| <= K exp(-c t) as ``tail``.  K and c are each an int or
    a float, at most the largest float, and no bool; K is positive and c
    at least 8 over the largest float, where the scale 8/c below is
    still finite.  Anything else raises ValueError before f is sampled.

    The map t = -(8/c) ln(1 - u), dt = (8/c) du/(1 - u), takes the half
    line onto u in (0, 1), where the integrand reads
    g(u) = f(t) (8/c)/(1 - u), and the driver starts from the one panel
    [0, 1].  The map turns e^{-c t} into (1 - u)^8, so the bound gives
    |g(u)| <= (8K/c)(1 - u)^7: g tends to 0 at u = 1, and a node that
    rounds to 1 gets that value, where t itself would be infinite.

    In doubles the map folds every t past the image of the last double
    below 1, u = 1 - 2^-53, t = (8/c) 53 ln 2 (about 294/c), into that
    point.  The mass there is at most (K/c) e^{-8 53 ln 2} = (K/c)
    2^-424, and the driver counts it in its estimate as a remainder no
    bisection lowers.  So the bound need only hold that far out, and f
    is sampled no further, but f must stay finite up to there.

    Nothing checks the samples against the bound, so a bound that f
    breaks is not detected, only paid for: f = 1 under TailBound(1, 1)
    bisects 8/(1 - u) toward u = 1 until the default budget is spent,
    84,021 evaluations, and returns unconverged, near the fold point.

    Why the scale is 8: under t = -(s/c) ln(1 - u), e^{-c t} with its
    Jacobian is (s/c)(1 - u)^{s - 1}, a polynomial that G10 integrates
    exactly for s <= 20 and K21 for s <= 32.  What f carries besides its
    exponential, such as a kernel's 1/t, becomes a function of
    ln(1 - u), which is not smooth at u = 1, and the factor
    (1 - u)^{s - 1} flattens it there, more as s grows.  The Malmsten
    and Binet kernels' evaluations, summed over n = 0..200, were:

        scale   QuadConfig()   abs_tol = 0
          4        14,070        39,690
          6         8,526        15,960
          8         8,526         8,526
         12         8,652         8,652

    8 is the least scale whose count does not grow when the target is
    relative alone.  There every row takes one panel, 21 evaluations,
    except n = 0, which takes one bisection.
    """
    k = _check_real(tail.K, math.ulp(0.0), _TOP, "TailBound.K")
    c = _check_real(tail.c, 8.0 / _TOP, _TOP, "TailBound.c")
    scale = 8.0 / c

    def mapped(us: tuple[float, ...]) -> list[float]:
        # At u >= 1, t is infinite, and g tends to 0.
        return [0.0 if u >= 1.0 else f(-scale * math.log1p(-u)) * scale / (1.0 - u) for u in us]

    return _adaptive(mapped, [0.0, 1.0], config, k / c * 2.0**-424)
