"""Catalan series sum rules and the Glaisher-Kinkelin constant.

Sum rules
---------
Two series over products of Catalan numbers, summed with certified
truncation against closed-form targets:

* plain:       sum_{n>=0} C_{2n} C_n / 64^n
               target (4/pi) ln(3 + 2 sqrt(2)) - 8 sqrt(2) / (3 pi)
* odd-weight:  sum_{n>=0} C_{2n} C_n / ((2n + 1) 64^n)
               target 8 sqrt(2) / (3 pi)

The first N terms are streamed in floats by their exact ratio

    term(n + 1) / term(n) = (4n + 1)(4n + 3)(2n + 1) / (16 (n + 1)(2n + 3)(n + 2)),

the product of C_{2n+2} (2n + 2)(2n + 3) = C_{2n} 4 (4n + 1)(4n + 3),
C_{n+1} (n + 2) = C_n 2 (2n + 1) and 64^-1, in O(N) operations on
doubles, and enter one compensated sum; closed forms with no big
integers enclose the tail, in two steps:

* Per-term bounds.  With L = 1/(pi 2^{3/2}) and g(n) = n^3 /
  (pi sqrt((2n + 1/2)(n + 1/2)) (2n + 1)(n + 1)), g(n)/n^3 <= term(n)
  <= L/n^3 for n >= 1, from 4^m/sqrt(pi (m + 1/2)) <= binomial(2m, m)
  <= 4^m/sqrt(pi m) at m = n and 2n (the lower bound is Kershaw's
  gamma-ratio inequality, Math. Comp. 41, 1983, at s = 1/2).  g is
  increasing, as the product of the increasing sqrt(n/(2n + 1/2)),
  sqrt(n/(n + 1/2)), n/(2n + 1) and n/(n + 1), so the tail lies in
  [g(N) zeta(3, N), L zeta(3, N)] with zeta(s, N) = sum_{n>=N} n^{-s};
  with the odd weight 1/(2n + 1) < 1/(2n), in
  [g(N) N/(2N + 1) zeta(4, N), (L/2) zeta(4, N)].
* Zeta bracket.  The derivatives of x^{-s} alternate in sign, so the
  Euler-Maclaurin remainders do too and zeta(s, N) lies between
  E = N^{1-s}/(s-1) + N^{-s}/2 + s N^{-s-1}/12 and
  E - s(s+1)(s+2) N^{-s-3}/720.

Both ends of the tail enclosure are widened by 16 ulp for rounding.
Its width tends to kappa/N^p from below: to 15 L/(16 N^3) = 0.1055/N^3
for the plain rule, so tol 1e-10 takes about 1,000 terms, and to
19 L/(48 N^4) = 0.04455/N^4 for the odd weight, both from
g(N) = L (1 - 15/(8N) + O(N^-2)).

Rounding of the partial sum, in the model of Higham (Accuracy and
Stability of Numerical Algorithms, 2nd ed., 2002, sec. 3.1): every
operation is exact times 1 + d with |d| <= u = 2^-53, and
gamma_k = k u/(1 - k u).  The ratio's numerator and denominator are
integers below 2^53 for n < TERM_BUDGET, as are all their partial
products, so doubles hold them exactly and their quotient rounds once;
each step of the stream multiplies by (1 + d1)(1 + d2), one factor for
the quotient and one for the product; the computed term(n) is within a
relative gamma_{2n} of the true one, and within gamma_{2n+1} after the
odd weight's division by 2n + 1.  For n < N <= TERM_BUDGET,
gamma_{2n+1} <= (2n + 1) u (1 + 5e-12), so the N computed terms add
up to within u (1 + 5e-12) S of the true ones, where S bounds
sum (2n + 1) term(n).  By term(0) = 1 and term(n) <= L/n^3,
S <= 1 + L (2 zeta(2) + zeta(3)) = 1.5056 for the plain rule, and
S <= 1 + L zeta(3) = 1.1353 for the odd weight, whose (2n + 1) term(n)
is the plain term.  ``math.fsum`` rounds the exact sum
P of its inputs once, by at most u |P|, and |P| < S (1 + 1e-11), since
sum term(n) <= sum (2n + 1) term(n).  The result's lower end P - e and
its width w + 2e (w the tail enclosure's width, below 0.0016 for every
N >= 4) round by at most u |P| and 2 u w more.  So the computed interval
[P - e, P - e + (w + 2e)] contains the true sum once e >= 3 u S + 2 u w,
and the code takes

    e = 3 u S,  with S = 1.51 (plain) and 1.14 (odd weight).

The margin over the bounds above, 3 (1.51 - 1.5056) = 0.013 and
3 (1.14 - 1.1353) = 0.014 in units of u, covers 2 u w, the factors
1 + 1e-11, the term 2 u e that the width's rounding adds and the
rounding of e itself.  e does not depend on N, so the stopping rule
takes the least N whose whole width w + 2e meets tol.  Against terms
from exact integers over n < 20,000, the streamed terms are within
0.17 (2n + 1) u, and the two fsums agree to the bit.

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
from itertools import chain
from typing import NamedTuple

from .exact import _LN2, _LN_PI
from .kernels import log_gamma_reference
from .quadrature import QuadConfig, integrate_finite

__all__ = [
    "GlaisherResult",
    "ODD_WEIGHT_TARGET",
    "PLAIN_TARGET",
    "SeriesResult",
    "TERM_BUDGET",
    "glaisher_from_integral",
    "series_tail_bound",
    "stewart_sum_odd_weight",
    "stewart_sum_plain",
]

_SQRT2 = math.sqrt(2.0)

ODD_WEIGHT_TARGET = 8.0 * _SQRT2 / (3.0 * math.pi)
PLAIN_TARGET = (4.0 / math.pi) * math.log(3.0 + 2.0 * _SQRT2) - ODD_WEIGHT_TARGET

# Hard ceiling on terms per summation.  The tail enclosure's width
# shrinks like 1/N^3 and is about 1.3e-14 here, 13 times the 1.0e-15
# that the rounding of the partial sum adds; tighter tolerances end
# unconverged.  The stream's ratio is exact in doubles only while its
# denominator 16 (n + 1)(2n + 3)(n + 2) stays below 2^53, that is for
# n < 65,535: the budget must stay below that.
TERM_BUDGET = 20_000

_TAIL_CONSTANT = 1.0 / (math.pi * 2.0 ** 1.5)

# (kappa, p) of the tail width's asymptote kappa / N^p, by odd_weight.
_WIDTH_ASYMPTOTE = {
    False: (15.0 / 16.0 * _TAIL_CONSTANT, 3),
    True: (19.0 / 48.0 * _TAIL_CONSTANT, 4),
}

# ln A correctly rounded, from 40-digit mpmath, which a test recomputes.
_LN_A_ORACLE = 0.24875447703378425

# Relative widening of each enclosure end: it covers fewer than thirty
# float roundings of at most 2^-53 each, and the error of math.pi.
_ROUNDING = 16 * sys.float_info.epsilon


class SeriesResult(NamedTuple):
    """A certified partial summation.

    The true sum lies in [partial_sum, partial_sum + tail_bound]:
    ``partial_sum`` is the compensated sum of the first ``terms_used``
    streamed terms plus the lower end of the tail enclosure, less the
    rounding bound e of the module docstring, and ``tail_bound`` is the
    tail enclosure's width plus 2e.  ``certified_value`` is the midpoint of
    that interval and ``abs_err`` its distance to the stated
    closed-form ``target``.  ``converged`` is False when TERM_BUDGET
    terms left ``tail_bound`` above the requested tolerance; the fields
    then say how far the summation got.
    """

    partial_sum: float
    terms_used: int
    tail_bound: float
    certified_value: float
    target: float
    abs_err: float
    converged: bool


def _term_lower_factor(n: int) -> float:
    """g(n), increasing in n, with g(n) / n^3 <= term(n)."""
    root = math.sqrt((2 * n + 0.5) * (n + 0.5))
    return n**3 / (math.pi * root * ((2 * n + 1) * (n + 1)))


def _zeta_bracket(s: int, n: int) -> tuple[float, float]:
    """Lower and upper Euler-Maclaurin bounds on zeta(s, n) = sum_{k>=n} k^-s."""
    x = float(n)
    upper = x ** (1 - s) / (s - 1) + 0.5 * x**-s + s * x ** (-s - 1) / 12.0
    return upper - s * (s + 1) * (s + 2) * x ** (-s - 3) / 720.0, upper


def _tail_enclosure(n_start: int, odd_weight: bool) -> tuple[float, float]:
    """[lo, hi] containing sum_{n >= n_start} term(n), widened for rounding."""
    g = _term_lower_factor(n_start)
    if odd_weight:
        z_lo, z_hi = _zeta_bracket(4, n_start)
        lo = g * (n_start / (2 * n_start + 1)) * z_lo
        hi = 0.5 * _TAIL_CONSTANT * z_hi
    else:
        z_lo, z_hi = _zeta_bracket(3, n_start)
        lo, hi = g * z_lo, _TAIL_CONSTANT * z_hi
    return lo * (1.0 - _ROUNDING), hi * (1.0 + _ROUNDING)


def series_tail_bound(n_start: int, *, odd_weight: bool = False) -> float:
    """Width of the certified enclosure of sum_{n >= n_start} of the sum-rule terms.

    It falls strictly with N = n_start, towards 15 L / (16 N^3) for the
    plain series and 19 L / (48 N^4) for the odd weight.
    """
    if n_start < 4:
        raise ValueError(f"tail bound requires n_start >= 4, got {n_start}")
    lo, hi = _tail_enclosure(n_start, odd_weight)
    return hi - lo


def _terms(n_stop: int, odd_weight: bool) -> Iterator[float]:
    """term(0), ..., term(n_stop - 1) in floats, by the exact ratio.

    n is held as a double x: every factor and partial product of the
    ratio is an integer below 2^53 (see TERM_BUDGET), so the terms are
    those of the ratio in exact ints, to the bit.  Each is within a
    relative gamma_{2n+1} of the true term (module docstring);
    ``tests/oracles.py`` builds term(n) from exact integers as the check
    on that.
    """
    term = 1.0
    for x in map(float, range(n_stop)):
        yield term / (2.0 * x + 1.0) if odd_weight else term
        term *= (4.0 * x + 1.0) * (4.0 * x + 3.0) * (2.0 * x + 1.0) / (
            16.0 * (x + 1.0) * (2.0 * x + 3.0) * (x + 2.0)
        )


def _widening(odd_weight: bool) -> float:
    """The rounding bound e = 3 u S of the module docstring."""
    return 3.0 * 2.0**-53 * (1.14 if odd_weight else 1.51)


def _meets(n: int, tol: float, odd_weight: bool) -> bool:
    """Whether the interval width w + 2e at N = n meets tol."""
    return series_tail_bound(n, odd_weight=odd_weight) + 2.0 * _widening(odd_weight) <= tol


def _sum_rule(target: float, tol: float, odd_weight: bool) -> SeriesResult:
    """Sum term(0..N-1) for the smallest N >= 4 whose interval width
    w + 2e meets tol, with w = series_tail_bound(N), or for
    N = TERM_BUDGET, unconverged, when none does.

    The search for N starts where the width's asymptote kappa / N^p
    (module docstring) meets tol - 2e, clamped to [4, TERM_BUDGET], steps
    up while N misses tol and down while N - 1 meets it.  The width falls
    strictly, so that is the least N whatever the start, which sets only
    the number of widths computed: two or three per call for tol from
    1e-6 to 1e-10.  When tol <= 2e no N meets it.

    The streamed terms enter one compensated sum together with the lower
    end of the tail enclosure, and both ends of the interval are widened
    by the rounding bound e.
    """
    # Also rejects NaN.  An infinite tol would certify any partial sum.
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    widening = _widening(odd_weight)
    room = tol - 2.0 * widening
    if room <= 0.0:
        n_stop = TERM_BUDGET
    else:
        kappa, p = _WIDTH_ASYMPTOTE[odd_weight]
        n_stop = max(4, math.ceil(min((kappa / room) ** (1.0 / p), TERM_BUDGET)))
        while n_stop < TERM_BUDGET and not _meets(n_stop, tol, odd_weight):
            n_stop += 1
        while n_stop > 4 and _meets(n_stop - 1, tol, odd_weight):
            n_stop -= 1
    lo, hi = _tail_enclosure(n_stop, odd_weight)
    low = math.fsum(chain(_terms(n_stop, odd_weight), (lo,))) - widening
    bound = hi - lo + 2.0 * widening
    certified = low + 0.5 * bound
    return SeriesResult(
        partial_sum=low,
        terms_used=n_stop,
        tail_bound=bound,
        certified_value=certified,
        target=target,
        abs_err=abs(certified - target),
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
