"""Log-Gamma integral kernels and a Stirling-series reference evaluator.

The half-line integrands here all follow the Malmsten pattern: smooth
for t > 0, a removable singularity at t = 0 with a finite analytic
limit, and exponential decay with explicit constants.  Each kernel
constructor returns a ``KernelSpec``: the plain function of t and the
tail-bound constants the quadrature layer needs for sound truncation.
The rate c of that bound is also the one the kernel changes at near
t = 0, so the quadrature seeds its mesh there at the width 1/c.

The two Catalan kernels carry the integral factor common to both
integral representations of C_n, ln Gamma(n + 1/2) - ln Gamma(n + 2):

* ``malmsten_catalan_kernel``: Malmsten's formula for ln Gamma, applied
  to the two Gamma factors of the central-binomial closed form and
  simplified to a single integrand.  Its one term free of n is
  integrated in closed form by Frullani's integral, so the kernel
  integrates to the Gamma difference plus (3/2) ln(n + 1/2).
* ``binet_catalan_kernel``: from the Binet correction theta(x) in
  ln Gamma(x + 1) = x ln x - x + ln(2 pi x)/2 + theta(x), applied at
  x = n + 1/2 and x = n + 2.

Both are written so that no two nearly equal terms are subtracted, so
they hold their accuracy at every t > 0 a quadrature rule may sample,
down to the smallest normal double, and need no special case at the
origin.  Both decay like e^{-(n + 1/2) t}, and their tail bounds hold
for every t > 0, as they must: the truncation point falls below t = 1
from n of about 26 on at the default config.  The test suite checks
each kernel's origin limit and slope, derived by hand from its Taylor
expansion, against the formula itself, and the Malmsten kernel against
its defining form.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

from .exact import _check_index
from .quadrature import TailBound

__all__ = [
    "KernelSpec",
    "binet_catalan_kernel",
    "binet_core",
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
# |B_16| / (16 * 15), the coefficient of z^-15, the first omitted term.
_STIRLING_NEXT = 3617.0 / (510.0 * 240.0)


def _stirling(x: float) -> tuple[float, float, float]:
    """(value, truncation, size) of the Stirling reference at x > 0.

    ``value`` is ln Gamma(x), as ``log_gamma_reference`` describes.
    ``truncation`` bounds the remainder of the Stirling series: for real
    z > 0 it is smaller than the first omitted term, |B_16|/(16 15 z^15)
    (DLMF 5.11.ii), under 3e-17 at z >= 10.  ``size`` is the sum of the
    absolute values of the terms the reference adds up, the logs of the
    shift included, which its rounding errors scale with.
    """
    shift = size = 0.0
    z = x
    while z < _STIRLING_SHIFT:
        ln_z = math.log(z)
        shift += ln_z
        size += abs(ln_z)
        z += 1.0
    ln_z = math.log(z)
    w = 1.0 / (z * z)
    series = 0.0
    for c in reversed(_STIRLING_COEFFS):
        series = series * w + c
    series /= z
    value = (z - 0.5) * ln_z - z + _HALF_LN_2PI + series - shift
    # Added left to right: size += (...) would round differently.
    size = size + (z - 0.5) * ln_z + z + _HALF_LN_2PI + 1.0 / (12.0 * z)
    return value, _STIRLING_NEXT / z**15, size


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
    return _stirling(x)[0]


class KernelSpec(NamedTuple):
    """A half-line integrand and the constants of its tail bound, by
    which ``integrate_half_line`` both truncates and seeds its mesh."""

    integrand: Callable[[float], float]
    tail_constants: TailBound


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


def malmsten_catalan_kernel(n: int) -> KernelSpec:
    """Kernel whose half-line integral is
    ln Gamma(n + 1/2) - ln Gamma(n + 2) + (3/2) ln(n + 1/2).

    Defining form: Malmsten's integral for the Gamma difference,
    [(e^{3t/2} - 1) / (e^t - 1) e^{-(n+1) t} - (3/2) e^{-t}] / t.  Its
    one term free of n, -(3/2) e^{-t}/t, is split off with Frullani's
    integral_0^inf (e^{-a t} - e^{-b t}) / t dt = ln(b/a): subtracting
    (3/2)(e^{-(n+1/2) t} - e^{-t}) / t, whose integral is
    -(3/2) ln(n + 1/2), leaves

        [R - 3/2] e^{-(n+1/2) t} / t,  R = (1 - q^3)/(1 - q^2), q = e^{-t/2},

    and with R - 3/2 = (q - 1)(q + 1/2)/(1 + q) the evaluated form

        expm1(-t/2) (q + 1/2)/(1 + q) e^{-(n+1/2) t} / t.

    The route adds -(3/2) ln(n + 1/2) back in closed form.  The three
    factors need no subtraction of nearly equal terms and no exponent
    above 0, so nothing cancels or overflows at any n, and expm1 keeps
    q - 1 accurate however small t is: the value stays within a few ulp
    for every t > 0 whose result is a normal double, apart from the
    rounding of the argument (n + 1/2) t that every double evaluation of
    e^{-(n + 1/2) t} carries.

    Tail, for every t > 0: |expm1(-t/2)| <= t/2 and (q + 1/2)/(1 + q)
    <= 3/4 (it increases with q <= 1), so |f| <= (3/8) e^{-(n+1/2) t};
    K = 1/2 adds margin.

    Scale: the factor e^{-(n + 1/2) t} sets the width 1/(n + 1/2) over
    which the kernel changes near t = 0, the decay length 1/c of the
    tail bound, at which the quadrature seeds its mesh.
    """
    _check_index(n)
    rate = n + 0.5

    def fn(t: float) -> float:
        q = math.exp(-0.5 * t)
        return math.expm1(-0.5 * t) / t * (q + 0.5) / (1.0 + q) * math.exp(-rate * t)

    return KernelSpec(fn, TailBound(K=0.5, c=rate))


def binet_catalan_kernel(n: int) -> KernelSpec:
    """Kernel whose integral closes the gap between the Stirling parts of
    ln Gamma(n + 3/2) and ln Gamma(n + 3): binet_core(t) (e^{-t/2} - e^{-2t}) e^{-n t} / t.

    Equals theta-integrand(n + 1/2) - theta-integrand(n + 2) pointwise,
    so its integral is theta(n + 1/2) - theta(n + 2).  Near t = 0
    binet_core takes its series branch and the gap subtracts -2t from
    -t/2, which costs under one bit, so it needs no special case there.

    Tail, for every t > 0: binet_core(t) <= t/12 and e^{-t/2} - e^{-2t}
    <= e^{-t/2}, so the integrand sits under e^{-(n + 1/2) t} / 12;
    K = 1 adds margin.  Scale: the same factor e^{-(n + 1/2) t} sets the
    width 1/(n + 1/2) = 1/c over which the kernel changes near t = 0.
    """
    _check_index(n)

    def fn(t: float) -> float:
        gap = math.expm1(-0.5 * t) - math.expm1(-2.0 * t)
        return binet_core(t) * gap * math.exp(-n * t) / t

    return KernelSpec(fn, TailBound(K=1.0, c=n + 0.5))
