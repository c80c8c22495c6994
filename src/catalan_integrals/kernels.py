"""Log-Gamma integral kernels and a Stirling-series reference evaluator.

The half-line integrands here all follow the Malmsten pattern: smooth
for t > 0, a removable singularity at t = 0 with a finite analytic
limit, and exponential decay with explicit constants.  Each kernel
constructor returns a ``KernelSpec`` bundling the origin-guarded
``Integrand`` with the tail-bound constants the quadrature layer needs
for sound truncation.

The two Catalan kernels integrate to ln Gamma(n + 1/2) - ln Gamma(n + 2),
the integral factor common to both integral representations of C_n:

* ``malmsten_catalan_kernel``: from Malmsten's formula for ln Gamma,
  applied to the two Gamma factors of the central-binomial closed form
  and simplified to a single integrand.
* ``binet_catalan_kernel``: from the Binet correction theta(x) in
  ln Gamma(x + 1) = x ln x - x + ln(2 pi x)/2 + theta(x), applied at
  x = n + 1/2 and x = n + 2.

Origin limits and slopes are hard-coded from Taylor expansions about
t = 0 (derivations sketched per kernel); the test suite re-derives each
one by numerical extrapolation of the raw formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exact import _check_index
from .quadrature import Integrand, QuadConfig, QuadResult, TailBound, integrate_half_line

__all__ = [
    "KernelSpec",
    "binet_catalan_kernel",
    "binet_core",
    "binet_theta",
    "log_gamma_difference_kernel",
    "log_gamma_malmsten",
    "log_gamma_reference",
    "malmsten_catalan_kernel",
]

_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

# Stirling coefficients B_{2k} / (2k (2k-1)) for k = 1..7; the series
# runs in inverse odd powers z^-1 .. z^-13.  With the z >= 10 shift
# threshold the first omitted term is ~3e-17, far below the 1e-14
# accuracy budget of this reference.
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)
_STIRLING_SHIFT = 10.0


def log_gamma_reference(x: float) -> float:
    """ln Gamma(x) for x > 0, by argument shift plus the Stirling series.

    Arguments below 10 are raised by the recurrence
    ln Gamma(x) = ln Gamma(x + m) - sum ln(x + k); the asymptotic series
    then converges to well under 1e-14.  Purely elementary operations,
    so it is an arithmetic-independent reference for the integral
    representations.
    """
    if x <= 0:
        raise ValueError(f"argument must be positive, got {x}")
    shift = 0.0
    z = x
    while z < _STIRLING_SHIFT:
        shift += math.log(z)
        z += 1.0
    w = 1.0 / (z * z)
    series = 0.0
    for c in reversed(_STIRLING_COEFFS):
        series = series * w + c
    series /= z
    return (z - 0.5) * math.log(z) - z + _HALF_LN_2PI + series - shift


@dataclass(frozen=True)
class KernelSpec:
    """A named half-line integrand with its analytic tail-decay constants."""

    name: str
    parameter: float
    integrand: Integrand
    tail_constants: TailBound


def log_gamma_malmsten(x: float, config: QuadConfig) -> QuadResult:
    """ln Gamma(x + 1) as the half-line integral of
    [x - (1 - e^{-x t}) / (1 - e^{-t})] e^{-t} / t,  valid for x > -1.

    Expansion about t = 0: writing the bracket as
    x - (x - x(x+1) t/2 + ...written via the e^{-xt} series.../ (t - t^2/2 + ...)),
    the integrand tends to x(x - 1)/2 with first-order coefficient
    x(5/12 - x/4 - x^2/6).  Tail: the bracket grows at most like
    e^{max(0, -x) t}, so the integrand decays like e^{-min(1, 1+x) t}.
    """
    if x <= -1:
        raise ValueError(f"representation requires x > -1, got {x}")

    def fn(t: float) -> float:
        return (x - math.expm1(-x * t) / math.expm1(-t)) * math.exp(-t) / t

    integrand = Integrand(
        fn=fn,
        origin_limit=0.5 * x * (x - 1.0),
        origin_slope=x * (5.0 / 12.0 - 0.25 * x - x * x / 6.0),
    )
    tail = TailBound(K=abs(x) + 3.0, c=min(1.0, 1.0 + x))
    return integrate_half_line(integrand, config, tail=tail)


def binet_core(t: float) -> float:
    """1/(e^t - 1) - 1/t + 1/2, stable for all t > 0.

    The direct formula loses about half its digits to cancellation as
    t -> 0, so below 0.2 the odd Bernoulli series
    t/12 - t^3/720 + t^5/30240 - t^7/1209600 takes over; its first
    omitted term there is below 1e-13 relative.  The function increases
    from 0 to 1/2 and is bounded by min(t/12, 1/2).
    """
    if t < 0.2:
        t2 = t * t
        return t * (
            1.0 / 12.0
            + t2 * (-1.0 / 720.0 + t2 * (1.0 / 30240.0 + t2 * (-1.0 / 1209600.0)))
        )
    return math.exp(-t) / (-math.expm1(-t)) - 1.0 / t + 0.5


def _theta_kernel(x: float) -> KernelSpec:
    """Integrand of the Binet correction theta(x): binet_core(t) e^{-x t} / t.

    binet_core(t)/t = 1/12 - t^2/720 + ... has zero slope at the origin,
    so multiplying by e^{-x t} = 1 - x t + ... gives limit 1/12 with
    slope -x/12.
    """

    def fn(t: float) -> float:
        return binet_core(t) * math.exp(-x * t) / t

    return KernelSpec(
        name="binet_theta",
        parameter=x,
        integrand=Integrand(
            fn=fn,
            origin_limit=1.0 / 12.0,
            origin_slope=-x / 12.0,
        ),
        # binet_core <= 1/2 and 1/t <= 1 for t >= 1.
        tail_constants=TailBound(K=1.0, c=x),
    )


def binet_theta(x: float, config: QuadConfig) -> QuadResult:
    """Binet correction theta(x) = ln Gamma(x+1) - x ln x + x - ln(2 pi x)/2
    as a half-line integral, for x > 0.

    Satisfies 0 < theta(x) < 1/(12 x).
    """
    if x <= 0:
        raise ValueError(f"Binet correction requires x > 0, got {x}")
    spec = _theta_kernel(x)
    return integrate_half_line(spec.integrand, config, tail=spec.tail_constants)


def malmsten_catalan_kernel(n: int) -> KernelSpec:
    """Kernel whose half-line integral is ln Gamma(n + 1/2) - ln Gamma(n + 2).

    Defining form: [(e^{3t/2} - 1) / (e^t - 1) e^{-n t} - 3/2] e^{-t} / t.
    Evaluated in the overflow-safe equivalent
        [e^{-(n + 1/2) t} (1 - e^{-3t/2}) / (1 - e^{-t}) - (3/2) e^{-t}] / t,
    obtained by multiplying the ratio through by e^{-3t/2} / e^{-t}.

    Taylor expansion about t = 0: (e^{3t/2} - 1)/(e^t - 1) =
    3/2 + 3t/8 + 3t^2/32 + ..., so after multiplying by e^{-(n+1)t} and
    subtracting 3/2, the integrand tends to 3/8 - 3n/2 with first-order
    coefficient 3n^2/4 + 9n/8 - 1/4.

    Tail: for t >= 1 both exponential terms sit under 1.5 e^{-c t} with
    c = min(1, n + 1/2), and dividing by t >= 1 keeps the difference
    under that same envelope; K = 2.5 adds margin.
    """
    _check_index(n)
    half = n + 0.5

    def fn(t: float) -> float:
        ratio = math.expm1(-1.5 * t) / math.expm1(-t)
        return (math.exp(-half * t) * ratio - 1.5 * math.exp(-t)) / t

    return KernelSpec(
        name="malmsten_catalan",
        parameter=float(n),
        integrand=Integrand(
            fn=fn,
            origin_limit=0.375 - 1.5 * n,
            origin_slope=0.75 * n * n + 1.125 * n - 0.25,
        ),
        tail_constants=TailBound(K=2.5, c=min(1.0, n + 0.5)),
    )


def log_gamma_difference_kernel(n: int) -> KernelSpec:
    """The same integral as ``malmsten_catalan_kernel`` through the
    pre-simplification form [(e^{-t} - e^{t/2}) / (e^{-t} - 1) e^{-n t} - 3/2] e^{-t} / t.

    This is the two-Gamma Malmsten difference before the ratio is
    normalized: (e^{-t} - e^{t/2})/(e^{-t} - 1) = (e^{3t/2} - 1)/(e^t - 1)
    after multiplying numerator and denominator by e^t.  Kept as a
    deliberately distinct arithmetic path for pointwise cross-checks;
    past t = 300 the literal e^{t/2} would overflow long after the
    integrand is negligible, so the normalized form takes over there.
    """
    _check_index(n)
    half = n + 0.5

    def fn(t: float) -> float:
        if t > 300.0:
            ratio = math.expm1(-1.5 * t) / math.expm1(-t)
            return (math.exp(-half * t) * ratio - 1.5 * math.exp(-t)) / t
        num = math.expm1(-t) - math.expm1(0.5 * t)
        return (num / math.expm1(-t) * math.exp(-n * t) - 1.5) * math.exp(-t) / t

    base = malmsten_catalan_kernel(n)
    return KernelSpec(
        name="log_gamma_difference",
        parameter=float(n),
        integrand=Integrand(
            fn=fn,
            origin_limit=base.integrand.origin_limit,
            origin_slope=base.integrand.origin_slope,
        ),
        tail_constants=base.tail_constants,
    )


def binet_catalan_kernel(n: int) -> KernelSpec:
    """Kernel whose integral closes the gap between the Stirling parts of
    ln Gamma(n + 3/2) and ln Gamma(n + 2): binet_core(t) (e^{-t/2} - e^{-2t}) e^{-n t} / t.

    Equals theta-integrand(n + 1/2) - theta-integrand(n + 2) pointwise,
    so its integral is theta(n + 1/2) - theta(n + 2).

    Origin: binet_core(t)/t -> 1/12 and (e^{-t/2} - e^{-2t}) -> 3t/2 - 15t^2/8,
    so the product tends to 0 with slope (1/12)(3/2) = 1/8.

    Tail: binet_core <= 1/2 and e^{-t/2} - e^{-2t} <= e^{-t/2}; with
    1/t <= 1 for t >= 1 the integrand sits under e^{-(n + 1/2) t} / 2.
    """
    _check_index(n)

    def fn(t: float) -> float:
        gap = math.expm1(-0.5 * t) - math.expm1(-2.0 * t)
        return binet_core(t) * gap * math.exp(-n * t) / t

    return KernelSpec(
        name="binet_catalan",
        parameter=float(n),
        integrand=Integrand(fn=fn, origin_limit=0.0, origin_slope=0.125),
        tail_constants=TailBound(K=1.0, c=n + 0.5),
    )
