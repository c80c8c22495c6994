"""Catalan series sum rules and the Glaisher-Kinkelin constant.

Sum rules
---------
Two series over products of Catalan numbers, summed with certified
truncation against closed-form targets:

* plain:       sum_{n>=0} C_{2n} C_n / 64^n
               target (4/pi) ln(3 + 2 sqrt(2)) - 8 sqrt(2) / (3 pi)
* odd-weight:  sum_{n>=0} C_{2n} C_n / ((2n + 1) 64^n)
               target 8 sqrt(2) / (3 pi)

The first N + 1 terms are streamed in floats by their exact ratio

    r(n) = term(n + 1) / term(n)
         = (4n + 1)(4n + 3)(2n + 1) / (16 (n + 1)(2n + 3)(n + 2)),

the product of C_{2n+2} (2n + 2)(2n + 3) = C_{2n} 4 (4n + 1)(4n + 3),
C_{n+1} (n + 2) = C_n 2 (2n + 1) and 64^-1 (times (2n + 1)/(2n + 3)
with the odd weight), in O(N) operations on doubles.  The first N
enter one compensated sum, and term(N) sets the tail, which closed
forms with no big integers enclose:

* Telescoping.  The terms are hypergeometric, so, as in Gosper's
  algorithm (PNAS 75, 1978), a rational R(n) = a n + b + c/n + d/n^2
  nearly solves R(n) - r(n) R(n + 1) = 1.  With the defect
  D(n) = R(n) - r(n) R(n + 1) - 1,
  term(n) R(n) - term(n + 1) R(n + 1) = term(n) (1 + D(n)), and
  term(n) R(n) -> 0, so summing from N gives the exact

      sum_{n>=N} term(n) = term(N) R(N) - sum_{n>=N} term(n) D(n).

  (a, b, c, d) cancel D through n^-3: (1/2, 25/32, 435/2048,
  -3699/32768) for the plain rule, where D(n) = 9 (114 n^3 -
  51823 n^2 - 90160 n - 39456) / (524288 n^2 (n + 1)^3 (n + 2)
  (2n + 3)), and (1/3, 131/192, 1603/5120, -5465/32768) for the odd
  weight.  Write D = num/den with den > 0.  kappa den -+ n^4 num has
  only nonnegative coefficients as a polynomial in m = n - 4, for
  kappa = 0.041 (plain) and 0.378 (odd weight), so |D(n)| <= kappa/n^4
  for every n >= 4 (n^4 |D(n)| peaks at 0.0407 at n = 4 for the plain
  rule, and approaches 0.3777 for the odd weight).
* Per-term bound.  term(n) <= L/n^3 for n >= 1, with
  L = 1/(pi 2^{3/2}), from binomial(2m, m) <= 4^m/sqrt(pi m) at m = n
  and 2n; with the odd weight, 1/(2n + 1) < 1/(2n) gives
  term(n) <= (L/2)/n^4.  So the sum of term(n) D(n) is at most
  kappa L zeta(7, N) in size, or kappa (L/2) zeta(8, N), with
  zeta(s, N) = sum_{n>=N} n^{-s}, and the tail lies within that of the
  centre term(N) R(N).
* Zeta bracket.  The derivatives of x^{-s} alternate in sign, so the
  Euler-Maclaurin remainders do too and zeta(s, N) lies between
  E = N^{1-s}/(s-1) + N^{-s}/2 + s N^{-s-1}/12 and
  E - s(s+1)(s+2) N^{-s-3}/720; the width takes E.

The enclosure's width w is 2 kappa L E at s = 7, or kappa L E at
s = 8, widened by 16 ulp for rounding.  It falls strictly with N, like
2 kappa L/(6 N^6) = 0.00154/N^6 for the plain rule and kappa L/(7 N^7)
= 0.00608/N^7 for the odd weight: tol 1e-10 takes 17 and 14 terms.

Rounding of the partial sum, in the model of Higham (Accuracy and
Stability of Numerical Algorithms, 2nd ed., 2002, sec. 3.1): every
operation is exact times 1 + d with |d| <= u = 2^-53, and
gamma_k = k u/(1 - k u).  The ratio's numerator and denominator are
integers below 2^53 for n < 65,535, as are all their partial
products, so doubles hold them exactly and their quotient rounds once;
each step of the stream multiplies by (1 + d1)(1 + d2), one factor for
the quotient and one for the product; the computed term(n) is within a
relative gamma_{2n} of the true one, and within gamma_{2n+1} after the
odd weight's division by 2n + 1.  The sum stops at N <= 364 (see
below), and for n <= N <= 364, gamma_{2n+7} <= (2n + 7) u (1 + 5e-12).
The errors are:

* Terms.  The N computed terms add up to within u (1 + 5e-12) S of
  the true ones, where S bounds sum (2n + 1) term(n).  By term(0) = 1
  and term(n) <= L/n^3, S <= 1 + L (2 zeta(2) + zeta(3)) = 1.5056 for
  the plain rule, and S <= 1 + L zeta(3) = 1.1353 for the odd weight,
  whose (2n + 1) term(n) is the plain term.
* Centre.  R(N) is evaluated as (a N + b) + (c + d/N)/N.  All of it
  adds positive numbers but c + d/N, which cancels by a factor below
  1.31 for N >= 4; so, with the odd weight's rounded a, b and c, the
  computed R(N) is within gamma_5 of R(N), and the centre, with the
  streamed term(N) and one product, within gamma_{2N+7}.  R(N) <=
  N/2 + 1 (plain) and N/3 + 1 (odd weight), so the centre is off by at
  most (2N + 7)(N/2 + 1) L/N^3 (1 + 5e-12) u, or (2N + 7)(N/3 + 1)
  L/(2 N^4) (1 + 5e-12) u.  Both fall with N, from 0.0792 u and
  0.0077 u at N = 4.
* Ends.  The enclosure's ends are the centre less and plus the reach
  w/2 + e; rounding the reach and the lower end adds at most
  u (centre + w/2 + e) (1 + 1e-15) < 0.006 u, as the centre is at most
  (N/2 + 1) L/N^3 <= 3 L/64 = 0.0053 (plain), or (N/3 + 1) L/(2 N^4)
  <= 0.0006 (odd weight).
* The sum.  ``math.fsum`` rounds the exact sum P of the N terms and
  the lower end once, by at most u |P|, and |P| < S, since
  sum term(n) <= sum (2n + 1) term(n); the width w + 2e rounds by at
  most u (w + 2e) < 1e-5 u more, as w < 1e-6 for every N >= 4.

So the computed interval, from the rounded P to that plus the rounded
w + 2e, contains the true sum once e is at least the sum of these
bounds:

    e = u (2 S + C),  with S = 1.51, C = 0.1 (plain),
                      and S = 1.14, C = 0.01 (odd weight).

The margins over the bounds above, 2 (1.51 - 1.5056) + 0.1 - 0.0792
- 0.006 = 0.023 and 2 (1.14 - 1.1353) + 0.01 - 0.0077 - 0.0006 =
0.011 in units of u, cover the rounding of the width and of e itself
and the factors 1 + 5e-12.  e does not depend on N, so the sum
stops at the least N whose whole width w + 2e meets tol, or else at
the least N whose w is at most 2e 2^-10: N = 364 for the plain rule
and 200 for the odd weight, past which no term could narrow the
interval by more than 0.1%.  No N meets a tol at or below 2e, so such
a sum stops there, unconverged.  Against terms from exact integers
over n <= 364, the streamed terms are within 0.17 (2n + 1) u; against
the 40-digit limit, the interval of every N from 4 to 364 (200 with
the odd weight) holds it at least 1.5 u inside each end.

Note on the odd-weight target: the plain series matches its target to
full precision, but the odd-weight series as written converges to
1.0124197378042575..., not to 8 sqrt(2)/(3 pi) = 1.20042175487614143.
The target is hit instead by the companion series with the odd weight
as a factor, sum (2n + 1) C_{2n} C_n / 64^n.  Both behaviors are
pinned by tests; the verification command reports the discrepancy
honestly rather than hiding it.

Glaisher-Kinkelin
-----------------
ln A enters through the closed form

    integral_0^{1/2} ln Gamma(x + 1) dx
        = -1/2 - (7/24) ln 2 + (1/4) ln pi + (3/2) ln A,

inverted here as ln A = (2/3)(I + 1/2 + (7/24) ln 2 - (1/4) ln pi).
The check is ln A correctly rounded to a double, so the reported error
is the result's own.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from itertools import count
from typing import NamedTuple

from .exact import _LN2, _LN_PI, _check_index, _check_real
from .kernels import log_gamma_reference
from .quadrature import QuadConfig, integrate_finite

__all__ = [
    "GlaisherResult",
    "ODD_WEIGHT_TARGET",
    "PLAIN_TARGET",
    "SeriesResult",
    "glaisher_from_integral",
    "series_tail_bound",
    "stewart_sum_odd_weight",
    "stewart_sum_plain",
]

_SQRT2 = math.sqrt(2.0)

ODD_WEIGHT_TARGET = 8.0 * _SQRT2 / (3.0 * math.pi)
PLAIN_TARGET = (4.0 / math.pi) * math.log(3.0 + 2.0 * _SQRT2) - ODD_WEIGHT_TARGET

_TAIL_CONSTANT = 1.0 / (math.pi * 2.0 ** 1.5)

# By odd_weight: the coefficients (a, b, c, d) of R(n) = a n + b + c/n +
# d/n^2, kappa with |D(n)| <= kappa/n^4, and (M, s) with term(n) <=
# M/n^(s-4), so that the enclosure's width is 2 kappa M zeta(s, N)
# (module docstring).
_TELESCOPE = {
    False: ((0.5, 25 / 32, 435 / 2048, -3699 / 32768), 0.041, _TAIL_CONSTANT, 7),
    True: ((1 / 3, 131 / 192, 1603 / 5120, -5465 / 32768), 0.378, 0.5 * _TAIL_CONSTANT, 8),
}

# ln A correctly rounded, from 40-digit mpmath, which a test recomputes.
_LN_A_ORACLE = 0.24875447703378425

# Relative widening of the tail enclosure's width: it covers fewer than
# thirty float roundings of at most 2^-53 each, and the error of math.pi.
_ROUNDING = 16 * sys.float_info.epsilon


class SeriesResult(NamedTuple):
    """A certified partial summation.

    The true sum lies in [partial_sum, partial_sum + tail_bound]:
    ``partial_sum`` is the compensated sum of the first ``terms_used``
    streamed terms and of the lower end of the tail enclosure, which
    lies the rounding bound e of the module docstring below the tail's,
    and ``tail_bound`` is the tail enclosure's width plus 2e.
    ``certified_value`` is the midpoint of that interval and ``abs_err``
    its distance to the stated closed-form ``target``.  ``converged`` is
    False when ``tail_bound`` stays above the requested tolerance, as it
    does for any tolerance at or below 2e: the sum then stops where
    ``tail_bound`` is within 0.1% of 2e, and the fields say how far it
    got.
    """

    partial_sum: float
    terms_used: int
    tail_bound: float
    certified_value: float
    target: float
    abs_err: float
    converged: bool


def _zeta_upper(s: int, n: int) -> float:
    """The upper Euler-Maclaurin bound E on zeta(s, n) = sum_{k>=n} k^-s."""
    x = float(n)
    return x ** (1 - s) / (s - 1) + 0.5 * x**-s + s * x ** (-s - 1) / 12.0


def series_tail_bound(n_start: int, *, odd_weight: bool = False) -> float:
    """Width of the certified enclosure of sum_{n >= n_start} of the sum-rule terms.

    The enclosure is centred on term(N) R(N), N = n_start, and the
    remainder sum_{n>=N} term(n) D(n) is at most kappa M zeta(s, N) in
    size, since |D(n)| <= kappa/n^4 and term(n) <= M/n^(s-4): kappa =
    0.041, M = L and s = 7 for the plain series, and kappa = 0.378,
    M = L/2 and s = 8 for the odd weight (module docstring).  The width
    2 kappa M zeta(s, N) takes zeta by its upper Euler-Maclaurin bound
    and is widened for rounding; it falls strictly with N, towards
    0.00154/N^6 and 0.00608/N^7.  n_start is an integer from 4 to the
    largest float, and no bool; anything else raises ValueError.
    """
    return _width(_check_index(n_start, sys.float_info.max, "n_start", 4), odd_weight)


def _width(n: int, odd_weight: bool) -> float:
    """series_tail_bound(n), without its argument checks."""
    _, kappa, m, s = _TELESCOPE[odd_weight]
    return 2.0 * kappa * m * _zeta_upper(s, n) * (1.0 + _ROUNDING)


def _widening(odd_weight: bool) -> float:
    """The rounding bound e = u (2 S + C) of the module docstring."""
    return 2.0**-53 * (2.0 * 1.14 + 0.01 if odd_weight else 2.0 * 1.51 + 0.1)


def _tail_enclosure(n: int, term: float, width: float, odd_weight: bool) -> tuple[float, float]:
    """[lo, hi] around the centre term R(N), given term = term(N) and the
    tail enclosure's width = series_tail_bound(N), N = n.

    Its ends lie the half-width plus the rounding bound e from the
    centre, so that P + lo <= sum_{k>=0} term(k) <= P + hi for P the sum
    of the streamed term(0..N-1), roundings included (module docstring).
    """
    (a, b, c, d), *_ = _TELESCOPE[odd_weight]
    x = float(n)
    centre = term * ((a * x + b) + (c + d / x) / x)
    reach = 0.5 * width + _widening(odd_weight)
    return centre - reach, centre + reach


def _terms(odd_weight: bool) -> Iterator[float]:
    """term(0), term(1), ... in floats, by the exact ratio, without end.

    n is held as a double x: every factor and partial product of the
    ratio is an integer below 2^53 for n < 65,535, far past the N = 364
    at which a sum rule stops at the latest, so the terms are those of
    the ratio in exact ints, to the bit.  Each is within a relative
    gamma_{2n+1} of the true term (module docstring);
    ``tests/oracles.py`` builds term(n) from exact integers as the check
    on that.
    """
    term = 1.0
    for x in count(0.0):
        yield term / (2.0 * x + 1.0) if odd_weight else term
        term *= (4.0 * x + 1.0) * (4.0 * x + 3.0) * (2.0 * x + 1.0) / (
            16.0 * (x + 1.0) * (2.0 * x + 3.0) * (x + 2.0)
        )


def _check_tol(tol: float) -> float:
    """A sum rule's tol: an int or a float, positive and at most the
    largest float.  An infinite tol would certify any partial sum."""
    return _check_real(tol, math.ulp(0.0), sys.float_info.max, "tol")


def _sum_rule(target: float, tol: float, odd_weight: bool) -> SeriesResult:
    """Sum term(0..N-1) for the least N >= 4 whose interval width
    w + 2e meets tol, with w = series_tail_bound(N), or, if that comes
    first, whose w is at most 2e 2^-10: N = 364 for the plain rule and
    200 for the odd weight, which no tol <= 2e meets.

    One pass reads the stream and computes w once for each N from 4 on.
    w falls strictly with N, so the first N that meets tol is the least,
    and past the first w <= 2e 2^-10 no term could narrow the interval
    by more than 0.1%.  The stream's next term, term(N), sets the tail
    enclosure.  The first N terms enter one compensated sum together
    with the enclosure's lower end, which lies the rounding bound e
    below the tail's, and the interval's width is w + 2e.
    """
    tol = _check_tol(tol)
    floor = 2.0 * _widening(odd_weight)
    terms = []
    for n, term in enumerate(_terms(odd_weight)):
        if n >= 4:
            width = _width(n, odd_weight)
            if width + floor <= tol or width <= floor * 2.0**-10:
                break
        terms.append(term)
    terms.append(_tail_enclosure(n, term, width, odd_weight)[0])
    low = math.fsum(terms)
    bound = width + floor
    certified = low + 0.5 * bound
    return SeriesResult(
        partial_sum=low,
        terms_used=n,
        tail_bound=bound,
        certified_value=certified,
        target=target,
        abs_err=abs(certified - target),
        # w stays near 2e 2^-10 or above, far above half an ulp of 2e, so
        # w + 2e > 2e and no tol <= 2e is met.
        converged=bound <= tol,
    )


def stewart_sum_plain(tol: float = 1e-6) -> SeriesResult:
    """Certified summation of sum C_{2n} C_n / 64^n against its closed form."""
    return _sum_rule(PLAIN_TARGET, tol, odd_weight=False)


def stewart_sum_odd_weight(tol: float = 1e-6) -> SeriesResult:
    """Certified summation of sum C_{2n} C_n / ((2n + 1) 64^n) against
    8 sqrt(2) / (3 pi).

    See the module docstring: the series as written does not actually
    meet this target (abs_err converges to about 0.188), and the result
    reports that honestly.
    """
    return _sum_rule(ODD_WEIGHT_TARGET, tol, odd_weight=True)


class GlaisherResult(NamedTuple):
    """Glaisher-Kinkelin extraction from the log-Gamma integral.

    ``integral_value`` is integral_0^{1/2} ln Gamma(x + 1) dx; ``ln_A``
    the constant recovered from it; ``oracle_ln_A`` ln A correctly
    rounded to a double; ``abs_err`` their difference.
    ``error_estimate``, ``evaluations`` and ``converged`` are those of
    the integral's quadrature.
    """

    integral_value: float
    ln_A: float
    oracle_ln_A: float
    abs_err: float
    error_estimate: float
    evaluations: int
    converged: bool


def glaisher_from_integral(config: QuadConfig) -> GlaisherResult:
    """Recover ln A from integral_0^{1/2} ln Gamma(x + 1) dx.

    The integrand is evaluated by the Stirling reference (smooth on the
    interval, no singularity), integrated adaptively, and inverted via
    ln A = (2/3)(I + 1/2 + (7/24) ln 2 - (1/4) ln pi).  A quadrature
    that misses its tolerance is reported through ``converged``.
    """
    qr = integrate_finite(lambda x: log_gamma_reference(x + 1.0), 0.0, 0.5, config)
    ln_a = (2.0 / 3.0) * (qr.value + 0.5 + (7.0 / 24.0) * _LN2 - 0.25 * _LN_PI)
    return GlaisherResult(
        integral_value=qr.value,
        ln_A=ln_a,
        oracle_ln_A=_LN_A_ORACLE,
        abs_err=abs(ln_a - _LN_A_ORACLE),
        error_estimate=qr.error_estimate,
        evaluations=qr.evaluations,
        converged=qr.converged,
    )
