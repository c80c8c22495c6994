"""Log-Gamma integral kernels and Binet's correction by the Stirling series.

``_binet_theta`` gives Binet's correction theta(x) to Stirling's
formula, with a proved error bound, to ``log_gamma_reference`` and the
gamma route; the Binet route integrates theta instead.

The half-line integrands here all follow the Malmsten pattern: smooth
for t > 0, a removable singularity at t = 0 with a finite analytic
limit, and exponential decay with explicit constants.  Each kernel
constructor returns a ``KernelSpec``: the plain function of t, the one
form of the kernel, which the routes integrate and ``dump-kernel``
prints, and the tail-bound constants by which
``quadrature.integrate_half_line`` maps the half line onto (0, 1).
The rate c of that bound is also the one the kernel changes at near
t = 0, so the map's one scale, 8/c, fits the kernel both there and in
its tail.

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
they need no special case at the origin, and both stay finite at every
t > 0 a quadrature rule may sample, subnormal t included.  Their
accuracy holds down to a limit each, with lam = 2.2e-308 the least
normal double:

* Malmsten: within a few ulp at every t >= lam, apart from the
  rounding of (n + 1/2) t that its constructor describes.  At subnormal
  t, -t/2 rounds, and the value with it: -0 at the least subnormal t,
  -0.5 at 1.5e-323, where the limit is -0.375, and 334 ulp off at
  1e-310.  It stays within 0.375 of the kernel, on a stretch of width
  lam.
* Binet: within a few ulp from t = sqrt(8 lam), about 4.2e-154, up.
  Below it binet_core(t) times the gap, about t^2/8, is subnormal and
  loses bits: 1.1e-5 relatively off at t = 1e-160, 19% at 1e-161, and
  0.0 from about 4.4e-162 down, where t/8 is still a normal double.
  The absolute error stays below 1e-162.

So neither loss moves an integral.  Both kernels decay like
e^{-(n + 1/2) t}, and their tail bounds hold for every t > 0, although
the map needs them only past about 294/(n + 1/2), where it folds the
rest of the line away.  The test suite checks each kernel's origin
limit and slope, derived by hand from its Taylor expansion, against the
formula itself, and the Malmsten kernel against its defining form.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

from .exact import _STIRLING, _check_index, _check_real
from .quadrature import _EPS, _TOP, _UFLOW, TailBound

__all__ = [
    "KernelSpec",
    "binet_catalan_kernel",
    "binet_core",
    "log_gamma_reference",
    "malmsten_catalan_kernel",
]

_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

# Stirling coefficients B_{2k} / (2k (2k-1)) for k = 1..7, of the
# inverse odd powers z^-1 .. z^-13, each correctly rounded.
_STIRLING_COEFFS = tuple(num / den for num, den in _STIRLING[:7])
_STIRLING_SHIFT = 10.0
# |B_16| / (16 * 15), the coefficient of z^-15, the first omitted term.
_STIRLING_NEXT = -_STIRLING[7][0] / _STIRLING[7][1]
# binet_core's Taylor coefficients B_2k / (2k)! = c_k / (2k - 2)!, each
# named by its power t^(2k - 1), k = 1..6, with c_k the same table's
# B_2k / (2k (2k - 1)); each is correctly rounded.
_B1, _B3, _B5, _B7, _B9, _B11 = (
    num / (den * math.factorial(2 * k - 2)) for k, (num, den) in enumerate(_STIRLING[:6], 1)
)


def _binet_theta(x: float) -> tuple[float, float]:
    """(theta(x), a bound on its error) for normal x > 0, with Binet's
    theta(x) = ln Gamma(x) - (x - 1/2) ln x + x - ln(2 pi)/2, equally
    ln Gamma(x + 1) - x ln x + x - ln(2 pi x)/2.

    Below 10, x is raised by theta(x) = theta(x + 1) + d(x),
    d(x) = (x + 1/2) log1p(1/x) - 1 > 0 (from Gamma(x + 1) = x Gamma(x));
    from z >= 10 on the Stirling series of ``_STIRLING_COEFFS`` is
    summed, whose remainder is below its first omitted term,
    |B_16|/(16 15 z^15) (DLMF 5.11.ii).

    Rounding, with u = 2^-53 and log1p within one ulp (2u).  A step's
    p = (x + 1/2) log1p(1/x) is within 5u p: u each for 1/x (which moves
    log1p by at most as much, relatively), x + 1/2 and the product, and
    2u for log1p; p - 1 is exact for p <= 2 (Sterbenz) and adds u p
    above, so d is within 6u (1 + d).  x + 1 rounds by at most 8u below
    16, which moves theta(x + 1) by under 8u |theta'(1)| < 0.7u.  The
    m <= 10 steps' d add up to s with (m - 1) u s of rounding, and
    s + series to theta with u theta more.  The series is within 3.1u of
    its value: u each for the leading coefficient, its addition and the
    division by z, and 0.1u for all that w = z^-2 <= 1/100 scales.  So
    the error is at most the truncation plus u (6.7 m + (6 + m) s
    + 4.1 series) to first order; with m <= 10 the returned
    truncation + 4 eps (m + 2 theta) covers it, and its spare 1.3u a
    step and 11.9u series take the higher orders and the rounding of
    the truncation bound.
    """
    steps, shift = 0, 0.0
    while x < _STIRLING_SHIFT:
        shift += (x + 0.5) * math.log1p(1.0 / x) - 1.0
        x += 1.0
        steps += 1
    w = 1.0 / (x * x)
    series = 0.0
    for c in reversed(_STIRLING_COEFFS):
        series = series * w + c
    theta = series / x + shift
    return theta, _STIRLING_NEXT * w**7 / x + 4.0 * _EPS * (steps + 2.0 * theta)


def log_gamma_reference(x: float) -> float:
    """ln Gamma(x) = (x - 1/2) ln x - x + ln(2 pi)/2 + theta(x) for an
    int or a float x from the least normal double, below which 1/x
    overflows, to the largest float: elementary operations only, so an
    arithmetic-independent reference for the integral representations.
    An int is taken as its float: its square could overflow."""
    x = float(_check_real(x, _UFLOW, _TOP, "x"))
    return (x - 0.5) * math.log(x) - x + _HALF_LN_2PI + _binet_theta(x)[0]


class KernelSpec(NamedTuple):
    """A half-line integrand and the constants of its tail bound, by
    which ``integrate_half_line`` maps the half line onto (0, 1) and
    bounds the mass the map folds away."""

    integrand: Callable[[float], float]
    tail_constants: TailBound


def binet_core(t: float) -> float:
    """1/(e^t - 1) - 1/t + 1/2, stable for all t > 0.

    The direct formula loses about half its digits to cancellation as
    t -> 0, so below 0.2 the odd Bernoulli series, the sum of
    B_2k t^(2k - 1) / (2k)! for k = 1..6, takes over.  Its first omitted
    term, B_14 t^13 / 14!, is below 7e-19 of the sum there, far below an
    ulp; against 40-digit mpmath over 2,000 points of (0, 0.2) the series
    was within 2 ulp.  The direct formula is 3.3e-14 relative off at
    t = 0.2, and up to 7.3e-14 over 2,000 points of [0.2, 0.21].  The
    function increases from 0 to 1/2 and is bounded by min(t/12, 1/2).
    """
    if t < 0.2:
        t2 = t * t
        return t * (_B1 + t2 * (_B3 + t2 * (_B5 + t2 * (_B7 + t2 * (_B9 + t2 * _B11)))))
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
    for every normal t > 0 (the module docstring gives subnormal t),
    apart from the rounding of the argument (n + 1/2) t that every
    double evaluation of e^{-(n + 1/2) t} carries.

    Tail, for every t > 0: |expm1(-t/2)| <= t/2 and (q + 1/2)/(1 + q)
    <= 3/4 (it increases with q <= 1), so |f| <= (3/8) e^{-(n+1/2) t};
    K = 1/2 adds margin.

    Scale: the factor e^{-(n + 1/2) t} sets the width 1/(n + 1/2) over
    which the kernel changes near t = 0, the decay length 1/c of the
    tail bound, and the quadrature's map t = -(8/c) ln(1 - u) turns that
    factor into (1 - u)^8: at the default config one 21-point panel on
    u in [0, 1] holds the kernel at every n from 1 on that was measured
    (1..200 and four per decade from 10 to 1e8).
    """
    n = _check_index(n)
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
    width 1/(n + 1/2) = 1/c over which the kernel changes near t = 0,
    and the quadrature's map, at the scale 8/c, holds this kernel in one
    panel at the same n as the Malmsten kernel.
    """
    n = _check_index(n)

    def fn(t: float) -> float:
        gap = math.expm1(-0.5 * t) - math.expm1(-2.0 * t)
        return binet_core(t) * gap * math.exp(-n * t) / t

    return KernelSpec(fn, TailBound(K=1.0, c=n + 0.5))
