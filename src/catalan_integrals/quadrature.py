"""Adaptive Gauss-Kronrod quadrature with a half-line reduction.

The base rule is the 15-point Kronrod extension of 7-point Gauss
(G7/K15) with the classical QUADPACK error estimate; the adaptive
driver bisects the panel with the worst estimate first, and is the
only code that tests convergence.

A half-line integral over (0, inf) is reduced to a finite one by
truncation: the caller supplies an analytic tail bound
|f(t)| <= K exp(-c t), the integral is cut at T chosen so that the
discarded remainder (K/c) exp(-c T) is below a tenth of the absolute
tolerance (of the least normal double when that is less), and the
driver counts the remainder in its error estimate from its first pass.
The decay length 1/c also seeds the mesh on [0, T], with dyadic panels
that halve down to it, so the bound is all a caller states about a
half-line integrand.  A finite integral starts from one panel.
An integrand with no exponential tail bound is mapped onto a finite
interval by its caller, who knows how fast it decays and so what the
map loses in doubles, and who puts the width of its peak into the map;
the Penson-Mellin route in the representations module shows how.

Integrands are plain functions.  The rule is open, so an endpoint is
never sampled, but bisection may close in on one until the panels
reach floating-point resolution, which next to t = 0 means subnormal
t.  An integrand with a removable singularity at t = 0 must therefore
stay accurate and finite down to there on its own; the kernels module
shows how.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable, NamedTuple

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
    """Constants of an analytic bound |f(t)| <= K exp(-c t) valid for large t."""

    K: float
    c: float


class _QuadConfigFields(NamedTuple):
    abs_tol: float = 1e-12
    rel_tol: float = 1e-11
    max_subdivisions: int = 2000


class QuadConfig(_QuadConfigFields):
    """Tolerances and subdivision budget shared by all quadrature entry points.

    Convergence target is max(abs_tol, rel_tol * |value|); both
    tolerances must be finite and nonnegative, and at least one positive.
    An infinite tolerance would accept any first estimate as converged.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> QuadConfig:
        self = super().__new__(cls, *args, **kwargs)
        # The comparisons are False for NaN as well.
        if not (0 <= self.abs_tol < math.inf and 0 <= self.rel_tol < math.inf):
            raise ValueError("tolerances must be finite and nonnegative")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise ValueError("at least one tolerance must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        return self

    @classmethod
    def _make(cls, iterable) -> QuadConfig:
        # _replace builds through _make, which would skip __new__'s checks.
        return cls(*iterable)

    def tolerance_for(self, value: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))


class QuadResult(NamedTuple):
    """Outcome of one integration.

    ``converged`` is True only when error_estimate met the configured
    tolerance; callers decide whether non-convergence is fatal.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


# G7/K15 nodes and weights (positive abscissae; the rule is symmetric).
# Indices 1, 3, 5 of _XGK are the Gauss points; the center completes G7.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTER = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTER = 0.417959183673469387755102040816327


def _kronrod_panel(
    f: Callable[[float], float], a: float, b: float
) -> tuple[float, float]:
    """One G7/K15 application on [a, b]: returns (K15 value, error estimate).

    The estimate is |K15 - G7| sharpened by the scaled mean absolute
    deviation resasc (the (200 x)^1.5 rule) and floored at 50 eps times
    the absolute integral, exactly as in the classical library routine.
    f is sampled at the center, then at center - h x_j and center + h x_j
    for j = 0..6, and each sum adds its terms in that order.  Finiteness
    is checked once per panel, on the absolute sum: only when that is not
    finite are the samples scanned, after all 15 have been taken, and the
    error names the first non-finite one in that order.  Finite samples
    whose sum overflows raise nothing.
    """
    w0, w1, w2, w3, w4, w5, w6 = _WGK
    g1, g3, g5 = _WG
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    d0, d1, d2, d3, d4, d5, d6 = [h * x for x in _XGK]
    ts = (c, c - d0, c + d0, c - d1, c + d1, c - d2, c + d2, c - d3, c + d3,
          c - d4, c + d4, c - d5, c + d5, c - d6, c + d6)
    ys = [f(t) for t in ts]
    fc, l0, r0, l1, r1, l2, r2, l3, r3, l4, r4, l5, r5, l6, r6 = ys
    s1, s3, s5 = l1 + r1, l3 + r3, l5 + r5
    resk = (
        _WGK_CENTER * fc + w0 * (l0 + r0) + w1 * s1 + w2 * (l2 + r2) + w3 * s3
        + w4 * (l4 + r4) + w5 * s5 + w6 * (l6 + r6)
    )
    resabs = (
        _WGK_CENTER * abs(fc) + w0 * (abs(l0) + abs(r0)) + w1 * (abs(l1) + abs(r1))
        + w2 * (abs(l2) + abs(r2)) + w3 * (abs(l3) + abs(r3))
        + w4 * (abs(l4) + abs(r4)) + w5 * (abs(l5) + abs(r5))
        + w6 * (abs(l6) + abs(r6))
    )
    if not math.isfinite(resabs):
        for t, y in zip(ts, ys):
            if not math.isfinite(y):
                raise IntegrandEvaluationError(t, y)
    resg = _WG_CENTER * fc + g1 * s1 + g3 * s3 + g5 * s5
    k = 0.5 * resk
    resasc = (
        _WGK_CENTER * abs(fc - k) + w0 * (abs(l0 - k) + abs(r0 - k))
        + w1 * (abs(l1 - k) + abs(r1 - k)) + w2 * (abs(l2 - k) + abs(r2 - k))
        + w3 * (abs(l3 - k) + abs(r3 - k)) + w4 * (abs(l4 - k) + abs(r4 - k))
        + w5 * (abs(l5 - k) + abs(r5 - k)) + w6 * (abs(l6 - k) + abs(r6 - k))
    )
    value = resk * h
    resabs *= abs(h)
    resasc *= abs(h)
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return value, err


def _adaptive(
    f: Callable[[float], float],
    edges: list[float],
    config: QuadConfig,
    remainder: float = 0.0,
) -> QuadResult:
    """Globally adaptive G7/K15 integration over the panels between
    consecutive ``edges``, which ascend.

    The estimate is the panels' summed estimates plus ``remainder``, a
    part no bisection can lower, such as a truncated tail.  Each
    starting panel costs 15 evaluations and is not a subdivision.  The
    driver bisects the worst-error panel until the estimate meets the
    tolerance; it stops with converged = False once ``max_subdivisions``
    bisections are spent or the remainder alone misses the tolerance.
    """
    # Heap entries: (-error, tiebreak, a, b, value, error).
    heap = []
    for counter, (lo, hi) in enumerate(zip(edges, edges[1:])):
        value, err = _kronrod_panel(f, lo, hi)
        heap.append((-err, counter, lo, hi, value, err))
    heapq.heapify(heap)
    evaluations = 15 * len(heap)
    total_value = math.fsum(entry[4] for entry in heap)
    total_err = math.fsum(entry[5] for entry in heap)
    subdivisions = 0
    while (
        remainder <= config.tolerance_for(total_value) < total_err + remainder
        and subdivisions < config.max_subdivisions
    ):
        _, _, a1, b1, v1, e1 = heapq.heappop(heap)
        mid = 0.5 * (a1 + b1)
        if mid <= a1 or mid >= b1:
            # Interval at floating-point resolution; no further refinement
            # is possible, so put it back and stop.
            heapq.heappush(heap, (-e1, counter + 1, a1, b1, v1, e1))
            break
        vl, el = _kronrod_panel(f, a1, mid)
        vr, er = _kronrod_panel(f, mid, b1)
        evaluations += 30
        subdivisions += 1
        total_value += vl + vr - v1
        total_err += el + er - e1
        counter += 1
        heapq.heappush(heap, (-el, counter, a1, mid, vl, el))
        counter += 1
        heapq.heappush(heap, (-er, counter, mid, b1, vr, er))
    # Reassemble the totals with compensated summation; the incremental
    # running totals above only steer the subdivision order.
    total_value = math.fsum(entry[4] for entry in heap)
    total_err = math.fsum(entry[5] for entry in heap) + remainder
    return QuadResult(
        value=total_value,
        error_estimate=total_err,
        evaluations=evaluations,
        converged=total_err <= config.tolerance_for(total_value),
    )


def integrate_finite(
    f: Callable[[float], float], a: float, b: float, config: QuadConfig
) -> QuadResult:
    """Globally adaptive G7/K15 integration of f over [a, b], starting
    from the one panel [a, b].

    Endpoints are never sampled (the rule is open), so integrable
    endpoint behavior like sqrt(b - t) is admissible.
    """
    if not -math.inf < a < b < math.inf:  # also rejects NaN
        raise ValueError(f"need finite a < b, got [{a}, {b}]")
    return _adaptive(f, [a, b], config)


def integrate_half_line(
    f: Callable[[float], float],
    config: QuadConfig,
    tail: TailBound,
) -> QuadResult:
    """Integrate f over (0, inf), given the constants of an analytic
    bound |f(t)| <= K exp(-c t) as ``tail``.

    The integral is truncated at T, and the driver counts the bounded
    remainder in its error estimate from the first pass on.  [0, T] is
    seeded at the decay length 1/c: an integrand that decays like
    e^{-c t} changes over that width near t = 0, and one that changes
    faster there states a larger c with a larger K.  The driver starts
    from the dyadic panels with edges T/2, T/4, ... down to the last one
    more than 4/c from 0, as QUADPACK's QAGP starts from its
    breakpoints, so that it does not have to find that width by
    bisecting one panel at a time.
    """
    if tail.K <= 0 or tail.c <= 0:
        raise ValueError(f"tail bound constants must be positive, got {tail}")
    # Truncation point: remainder (K/c) exp(-c T) <= tol_ref / 10.  An
    # absolute target below the least normal double counts as that
    # double: a remainder under it is lost next to any value, and c times
    # a subnormal target may round to 0.  The ratio may overflow to inf,
    # and T then lands on the cap.
    tol_ref = max(config.abs_tol, _UFLOW)
    cutoff = math.log(max(10.0 * tail.K / (tail.c * tol_ref), 10.0)) / tail.c
    cutoff = min(cutoff, 1400.0)
    remainder = (tail.K / tail.c) * math.exp(-tail.c * cutoff)
    edges = [cutoff]
    while 0.5 * edges[-1] > 4.0 / tail.c:
        edges.append(0.5 * edges[-1])
    return _adaptive(f, [0.0, *reversed(edges)], config, remainder)
