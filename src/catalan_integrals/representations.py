"""Floating-point evaluation routes for Catalan numbers.

Five independent routes, all assembled in the log domain because C_n
overflows a double near n = 260 (and the 4^n prefactors even earlier):

* ``gamma_closed_form``: ln C_n = 2n ln 2 - ln(pi)/2
  + ln Gamma(n + 1/2) - ln Gamma(n + 2), from the duplication identity
  binomial(2n, n) = 4^n Gamma(n + 1/2) / (sqrt(pi) Gamma(n + 1)).
  No quadrature: the elementary part of the Binet route below, plus
  theta(n + 1/2) - theta(n + 2) from the Stirling series.
* ``malmsten``: same prefactor, with the Gamma difference evaluated as
  -(3/2) ln(n + 1/2) plus the half-line integral of the
  Malmsten-Catalan kernel: Frullani's integral takes the one term of
  Malmsten's integrand that does not depend on n out in closed form.
* ``binet``: ln C_n = 3/2 + 2n ln 2 + n ln(n + 1/2) - ln(pi)/2
  - (n + 3/2) ln(n + 2) + integral of the Binet-Catalan kernel.
  Derivation of the prefactor: write ln Gamma(x + 1) = S(x) + theta(x)
  with Stirling core S(x) = x ln x - x + ln(2 pi x)/2 and Binet
  correction theta.  Shifting both Gamma factors up by one via
  Gamma(z + 1) = z Gamma(z),

      ln Gamma(n + 1/2) - ln Gamma(n + 2)
          = S(n + 1/2) - S(n + 2) - ln((n + 1/2)/(n + 2))
            + theta(n + 1/2) - theta(n + 2),

  and expanding S gives
  S(n + 1/2) - S(n + 2) = (n + 1/2) ln(n + 1/2) - (n + 2) ln(n + 2)
  + 3/2 + ln((n + 1/2)/(n + 2))/2, so the elementary part collapses to

      S(n + 1/2) - S(n + 2) - ln((n + 1/2)/(n + 2))
          = 3/2 + n ln(n + 1/2) - (n + 3/2) ln(n + 2).

  Adding the common ln(4^n / sqrt(pi)) yields the prefactor; in linear
  scale it reads e^{3/2} 4^n (n + 1/2)^n / (sqrt(pi) (n + 2)^{n + 3/2}).
  It is evaluated as 3/2 + 2n ln 2 - ln(pi)/2 - (3/2) ln(n + 2)
  + n log1p(-3/(2n + 4)), since n ln(n + 1/2) - n ln(n + 2)
  = n ln(1 - (3/2)/(n + 2)): the two terms of size n ln n that cancel
  never appear.
  The collapsed identity is verified numerically in the test suite, and
  the theta difference is exactly the Binet-Catalan kernel integral.
* ``penson_moment``: C_n = (2/pi) 4^n integral_{-1}^{1} t^{2n}
  sqrt(1 - t^2) dt, a finite-interval moment form.  With t = cos(phi)
  the integrand becomes f(phi) = sin^2(phi) cos^{2n}(phi), which is
  even, so C_n = (4/pi) 4^n J with J = integral_0^{pi/2} f.  f is also
  pi-periodic: a trigonometric polynomial of degree n + 1 in
  e^{2 i phi}, with coefficients a_k = (2 b_k - b_{k-1} - b_{k+1})/4,
  b_k = binomial(2n, n + k)/4^n.  So J is half the M-point trapezoid
  sum T_M over [0, pi) up to aliasing alone, T_M/2 - J =
  pi sum_{j>=1} a_{jM}, which is 0 once M >= n + 2 (Trefethen and
  Weideman, SIAM Review 56, 2014).  The b_k fall for k >= 0, so
  |a_k| <= b_{k-1}/2 for k >= 1, and Hoeffding's inequality for a
  binomial(2n, 1/2) count gives b_{k-1} <= e^{-(k-1)^2/n}: the
  aliasing error is proved to be at most pi sum e^{-(jM-1)^2/n} over
  the jM <= n + 1.  The target is max(abs_tol, rel_tol), relative
  because an error on the ln scale is J's relative error, with J
  bounded below by Kershaw's inequality, J >= sqrt(pi)/(4 (n + 1)
  sqrt(n + 1/2)); it is capped at 1/2, where the bound still keeps T_M
  positive.  The rule is odd, M = 2k + 1: f(0) = 0 and
  f(pi - phi) = f(phi) leave k samples, in (0, pi/2), and no node at
  pi/2.  The route takes, in closed form, the least odd M whose first
  aliased term meets the target less a share kept for the rounding
  (``_moment_points``).  Of the k samples it sums only the first j0, a
  window of width O(1/sqrt(n)) around phi = 0 (``_moment_window``):
  at the nodes, sin(phi) >= 2 phi/pi gives
  f(j pi/M) <= e^{-n (2j/M)^2}, a Gaussian in j whose terms past j0
  fall at least geometrically, so their sum is bounded by the first of
  them over one less the ratio.  j0 is found in closed form, with one
  check of the bound, for a share of u/4 of Kershaw's floor, and M is
  about sqrt(n) times a log, so j0 + 1 is about
  (M/2) sqrt(ln(pi/(M target))/n), a few dozen at every n: 20, 23 and 27
  samples at n = 10^3, 10^5 and 10^8, where k is 98, 1,056 and 37,054.
  The share is u/4 at every tolerance: the rounding bound alone is at
  least 12 eps of the floor, so no row converges below that, and a
  smaller share would only cost samples.  The route reports converged
  only when the aliasing, rounding and window bounds together meet the
  target.  j0 is capped at what the adaptive driver may spend on one
  call, 21 + 42 max_subdivisions evaluations; a window cut short
  reports the bound from the cut.  f is evaluated as
  sin^2(phi) exp(n log1p(-sin^2 phi)),
  whose rounding does not grow with n as that of cos^{2n} does, and
  each sample carries a bound on its rounding
  (``_penson_moment``).
* ``penson_mellin``: C_n = (4^{n+2}/pi) integral_0^inf sqrt(t) /
  (4t + 1)^{n+2} dt.  With t = s^2 this is C_n = (4^{n+2}/pi) I with
  I = integral_0^inf 2 s^2 / (4 s^2 + 1)^{n+2} ds.  The integrand decays
  only algebraically, so it has no exponential tail bound; the map
  s = w u/(1 - u), as in QUADPACK's QAGI, takes I onto u in (0, 1),
  where the integrand tends to 1/8 (n = 0) or 0 (n >= 1) at u = 1.  It
  peaks at s = w/2 with w = 1/sqrt(n + 1), its width, so the map puts
  the peak at u = 1/3 for every n.  The driver starts from the thirds
  [0, 1/3], [1/3, 2/3] and [2/3, 1], which put an edge on the peak
  and one past it: at the default config none of them is bisected at
  any n measured (0..3000 and log-spaced n up to 10^8), 63 evaluations
  a row, where the same rule from the one panel (0, 1) took 20,979
  over n = 0..200 and with an edge at 1/3 or 1/2 alone about 16,800.
  The substitution 4t = tan^2(phi) would map onto a finite interval as
  well, but it turns I into (1/4) integral_0^{pi/2} sin^2(phi)
  cos^{2n}(phi) d phi, exactly a quarter of the moment route's
  integrand: the two Penson routes would then evaluate the same
  integrand and stop being independent checks.

The substitutions remove the algebraic singularities of the original
integrands (sqrt(1 - t^2) at t = +-1 and sqrt(t) at t = 0), which the
adaptive driver could only resolve by bisecting into them many times;
the substituted integrands are smooth on their whole intervals.  I is
computed in linear scale (it is of order n^{-3/2}, far from the limits
of a double) and only its log enters the assembly, so the quadrature
error estimate is propagated to the ln scale as estimate / value.
That estimate stays honest at every n, but the quadrature's target
max(abs_tol, rel_tol |value|) is absolute once the value falls below
abs_tol / rel_tol, so at large n it is loose: at n = 10^6, where I is
about 1.1e-10, a row that bisected would accept about 1% of I under
the default config.  The thirds keep the row from bisecting, so its
bar there is 9.9e-9 on the ln scale, after 63 evaluations, against a
true error of 1.6e-11, below one ulp of ln C_n (2.3e-10).

Every route sums its terms of ln C_n with ``math.fsum`` and adds a
bound on their rounding, 4 eps times the sum of their absolute values,
to its error estimate (``_assemble``).  At the default config that
bound is the larger part from n = 4 (gamma), n = 157 (Binet) and
n = 321 (Malmsten) on, and the smaller one at every n below.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

from .exact import _LN2, _LN_PI, _check_index, ln_exact
from .kernels import (
    KernelSpec,
    _binet_theta,
    binet_catalan_kernel,
    malmsten_catalan_kernel,
)
from .quadrature import (
    _EPS,
    _PANEL_EVALUATIONS,
    _UFLOW,
    IntegrandEvaluationError,
    QuadConfig,
    integrate_finite,
    integrate_half_line,
)

__all__ = [
    "ROUTES",
    "RepresentationResult",
    "Route",
    "catalan_binet",
    "catalan_gamma_closed_form",
    "catalan_malmsten",
    "catalan_penson_mellin",
    "catalan_penson_moment",
    "compare_representations",
]


_U = 0.5 * _EPS  # unit roundoff, 2^-53
_SQRT_PI = math.sqrt(math.pi)


class RepresentationResult(NamedTuple):
    """One route's output for one n, against the exact value.

    ``method`` is the ``Route`` that computed it; ``ln_value`` the
    route's ln C_n; ``exact_ln`` the reference, ``ln_exact(n)``;
    ``quad_error_estimate`` the route's error bar on the ln scale (for
    the quadrature-free closed form, the bounds of its Stirling series
    and the rounding of its sum).  ``converged`` is False when the
    underlying quadrature gave up or the route failed outright (then
    ln_value and abs_err_ln are NaN).
    """

    n: int
    method: Route
    ln_value: float
    exact_ln: float
    abs_err_ln: float
    quad_error_estimate: float
    evaluations: int
    converged: bool


# What a route computes before the comparison with the exact value:
# (ln_value, quad_error_estimate, evaluations, converged).
_Estimate = tuple[float, float, int, bool]


def _row(n: int, route: Route, estimate: _Estimate, exact: float) -> RepresentationResult:
    ln_value, error, evaluations, converged = estimate
    return RepresentationResult(
        n, route, ln_value, exact, abs(ln_value - exact), error, evaluations, converged
    )


def _assemble(
    evaluations: int, converged: bool, ln_error: float, *terms: float
) -> _Estimate:
    """A route's ln C_n, the sum of ``terms``.

    ``math.fsum`` rounds the sum once, and each term was rounded by its
    own few operations; 4 eps sum |terms| bounds both, and is added to
    ``ln_error``, the terms' own error on the ln scale (a quadrature's
    estimate, or the gamma route's series bounds).  At large n, ln C_n
    is about 2n ln 2, and no estimate below a few ulp of it could be
    honest.
    """
    rounding = 4.0 * _EPS * math.fsum(map(abs, terms))
    return math.fsum(terms), ln_error + rounding, evaluations, converged


def _prefactor_ln(n: int) -> float:
    """ln(4^n / sqrt(pi)), the prefactor common to the Gamma-based routes."""
    return 2.0 * n * _LN2 - 0.5 * _LN_PI


def _binet_terms(n: int) -> tuple[float, ...]:
    """The terms of Binet's elementary part, ln C_n less theta(n + 1/2)
    - theta(n + 2): 3/2, ln(4^n / sqrt(pi)), -(3/2) ln(n + 2) and
    n log1p(-3/(2n + 4)), the sum the module docstring derives."""
    log_ratio = n * math.log1p(-3.0 / (2.0 * n + 4.0))
    return 1.5, _prefactor_ln(n), -1.5 * math.log(n + 2.0), log_ratio


def _gamma_closed_form(n: int, config: QuadConfig) -> _Estimate:
    """ln C_n = Binet's elementary part + theta(n + 1/2) - theta(n + 2).

    Quadrature-free, and so the cheapest route at every n.  The bounds
    of the two theta values (``kernels._binet_theta``) take the place of
    a quadrature estimate in ``_assemble``.  ``config`` is not used.
    Up to ``ln_exact``'s crossover (n = 200) its reference is the log of
    the exact C_n, independent of this route.  Above it the reference
    sums the same Stirling series, from the same ``exact._STIRLING``,
    within a proved enclosure in doubles or in integer fixed point, so
    there this row checks the doubles' arithmetic and bounds, not the
    series itself.  The four integral
    routes stay independent of the reference at every n.
    """
    n = _check_index(n)
    theta_a, bound_a = _binet_theta(n + 0.5)
    theta_b, bound_b = _binet_theta(n + 2.0)
    return _assemble(0, True, bound_a + bound_b, *_binet_terms(n), theta_a, -theta_b)


def _half_line(spec: KernelSpec, config: QuadConfig, *terms: float) -> _Estimate:
    """ln C_n as ``terms`` plus the half-line integral of ``spec``."""
    qr = integrate_half_line(spec.integrand, config, tail=spec.tail_constants)
    return _assemble(qr.evaluations, qr.converged, qr.error_estimate, *terms, qr.value)


def _malmsten(n: int, config: QuadConfig) -> _Estimate:
    """ln C_n = ln(4^n / sqrt(pi)) - (3/2) ln(n + 1/2)
    + integral of the Malmsten-Catalan kernel.

    Malmsten's formula holds for ln Gamma(x) at every x > 0, so n = 0
    needs no argument of its own: there the kernel integrates to
    ln(pi)/2 - (3/2) ln 2.
    """
    return _half_line(
        malmsten_catalan_kernel(n),
        config,
        _prefactor_ln(n),
        -1.5 * math.log(n + 0.5),
    )


def _binet(n: int, config: QuadConfig) -> _Estimate:
    """ln C_n = Binet's elementary part + integral of the Binet-Catalan kernel."""
    return _half_line(binet_catalan_kernel(n), config, *_binet_terms(n))


def _moment_floor(n: int) -> float:
    """Kershaw's lower bound on J, sqrt(pi)/(4 (n + 1) sqrt(n + 1/2))."""
    return _SQRT_PI / (4.0 * (n + 1.0) * math.sqrt(n + 0.5))


def _moment_aliasing(n: int, m: int) -> float:
    """Bound on |T_m/2 - J|: pi times the sum of e^{-(k - 1)^2/n} over the
    multiples k of m up to n + 1, the only aliased coefficients that are
    not 0."""
    total = 0.0
    for k in range(m, n + 2, m):
        term = math.exp(-((k - 1) ** 2) / n)
        if term == 0.0:  # and so is every later one
            break
        total += term
    return math.pi * total


def _moment_tolerance(config: QuadConfig) -> float:
    """The target on J relative to Kershaw's floor: max(abs_tol, rel_tol),
    capped at 1/2."""
    return min(max(config.abs_tol, config.rel_tol), 0.5)


def _moment_points(n: int, config: QuadConfig) -> tuple[int, float]:
    """(k, the aliasing bound of the rule on M = 2k + 1 points).  M is
    the least odd number whose first aliased term meets the aliasing's
    share of the target, or the least odd number from n + 2 on, which
    aliases nothing, if that is less.  The share leaves the rest of the
    target to the rounding and window bounds: 64 eps of Kershaw's floor,
    or half the target if less.  At the default config the rounding
    bound stayed below 47 eps of the floor at every n measured
    (n = 0..200 and log-spaced n up to 10^8; 46.6 eps at n = 1, and it
    tends to 29.75 eps), and the window's is at most u/4, so a met share
    leaves the whole bar within the target wherever it exceeds 128 eps."""
    tol = _moment_tolerance(config)
    target = max(tol - 64.0 * _EPS, 0.5 * tol) * _moment_floor(n)
    # The first aliased term alone needs (M - 1)^2 >= n ln(pi/target),
    # and the later ones are far smaller; a target that underflows is
    # taken as the least normal double.
    ratio = math.pi / max(target, _UFLOW)
    m = max(2, math.ceil(1.0 + math.sqrt(n * math.log(ratio))))
    k = min(m // 2, (n + 2) // 2)
    return k, _moment_aliasing(n, 2 * k + 1)


def _moment_window(n: int, k: int, target: float, budget: int) -> tuple[int, float]:
    """(j0, a bound on what the rule on M = 2k + 1 points loses when it
    sums only its first j0 samples): the least j0 <= k whose bound meets
    ``target`` wherever the condition on r below does not bind, or
    ``budget`` if that is less.

    At the exact nodes phi_j = j pi/M <= pi/2, sin(phi) >= 2 phi/pi
    gives f(phi_j) <= cos^{2n}(phi_j) <= e^{-n sin^2 phi_j} <= e^{-x j^2},
    x = n (2/M)^2.  From j0 + 1 on, consecutive terms of e^{-x j^2} fall
    by at least r = e^{-x (2 j0 + 3)}, so the omitted samples weigh at
    most h e0/(1 - r), h = pi/M and e0 = e^{-x (j0 + 1)^2}.  In closed
    form, j0 + 1 is the least integer with e0 <= target/h and
    2 x (j0 + 1) >= ln 2, which makes r <= 1/2 and the bound at most
    twice the target.  One check of the bound follows: where it misses,
    one more sample multiplies it by at most r <= 1/2, which meets the
    target.  Where ``budget`` cuts j0 short the bound is the one from
    the cut; where j0 = k the rule is whole and the bound is 0, as at
    n = 0, where f = sin^2 does not decay.

    In doubles, x and the exponents carry a relative 5u, and exp and
    h = fl(pi/M) add 2u each.  The route's target, u/4 of Kershaw's
    floor, is above 1e-29 and h below 2, so the exponents stay below
    100: e0 is within a relative 1.2e-13 and never underflows, and
    1 - r (r <= 1/2), h and the last operations add a few u more.  The
    factor 1 + 1e-12 covers all of it.
    """
    if n == 0:
        return k, 0.0
    m = 2 * k + 1
    h = math.pi / m
    x = n * (2.0 / m) ** 2

    def bound(j0: int) -> float:
        if j0 >= k:
            return 0.0
        e0 = math.exp(-x * (j0 + 1) ** 2)
        return (1.0 + 1e-12) * h * e0 / (1.0 - math.exp(-x * (2 * j0 + 3)))

    cap = min(k, budget)
    need = max(math.sqrt(math.log(h / target) / x), _LN2 / (2.0 * x))
    j0 = min(math.ceil(need) - 1, cap)
    window = bound(j0)
    if window > target and j0 < cap:
        j0 += 1
        window = bound(j0)
    return j0, window


def _moment_sample(n: int, phi: float) -> tuple[float, float]:
    """sin^2(phi) cos^{2n}(phi) at a node of the trapezoid rule, and a
    bound on its distance from the integrand at the exact node
    (``_penson_moment`` derives it, and why sin(phi) < 1 at every node)."""
    s = math.sin(phi)
    s2 = s * s
    power = n * math.log1p(-s2)
    value = s2 * math.exp(power)
    rel = _U * (21.0 + 18.0 * n * s2 / (1.0 - s2) - 5.0 * power)
    return value, (value * rel if rel <= 1.0 / 32.0 else math.exp(-0.99 * n * s2))


def _moment_rule(n: int, k: int, j0: int) -> tuple[float, float]:
    """Half the (2k + 1)-point trapezoid sum of sin^2 cos^{2n} over
    [0, pi) from its first j0 >= 1 samples, and a bound on their
    rounding error.  f(0) = 0 and f(pi - phi) = f(phi), so each sample, at a node
    in (0, pi/2), stands for two; the samples past j0 are left to
    ``_moment_window``'s bound."""
    h = math.pi / (2 * k + 1)
    values, errors = zip(*[_moment_sample(n, j * h) for j in range(1, j0 + 1)])
    total = math.fsum(values)
    if not math.isfinite(total):
        j = next(j for j, v in enumerate(values, 1) if not math.isfinite(v))
        raise IntegrandEvaluationError(j * h, values[j - 1])
    value = h * total
    return value, h * math.fsum(errors) + 2.0 * _EPS * value


def _penson_moment(n: int, config: QuadConfig) -> _Estimate:
    """ln C_n = 2 ln 2 - ln pi + 2n ln 2 + ln J,
    J = integral_0^{pi/2} cos^{2n}(phi) sin^2(phi) d phi.

    J is half of the moment integral_{-1}^1 t^{2n} sqrt(1 - t^2) dt after
    t = cos(phi), and half the M-point trapezoid sum over [0, pi) up to
    an aliasing error with a proved bound; the module docstring derives
    the bound and the choice of M.  The error bar is proved too.

    Rounding of one sample, with u = 2^-53.  The node j pi/M is computed
    as j fl(pi/M), within a relative 3u, which moves sin(phi) by at most
    a relative (pi/2) 3u on (0, pi/2); with the 2u of sin and the u of
    the square, s2 = sin^2(phi) (1 + e) with |e| <= 15u.  That moves
    log1p(-s2) by e tan^2(phi) to first order, so L = n log1p(-s2) by
    15u n tan^2(phi); log1p and the product round by 2u and 2u of |L|
    (one u for n itself past 2^53), and exp and the last product add 3u.
    The sample is thus within a relative u (18 + 15 n tan^2 + 4 |L|) of
    f at the exact node, to first order.  Where that is at most 1/32 the
    higher orders add at most a tenth, which the constants used, 21, 18
    and 5, cover together with the rounding of tan^2 = s2/(1 - s2) and
    of the sum of the bounds.  Where it is more, the error is bounded by
    e^{-0.99 n s2}, which bounds both the computed and the true sample.
    The rule sums these bounds with fsum, as it sums the samples, then
    adds 2 eps of its result for the fsum, pi/M and the last product.

    No node gives sin(phi) = 1, where log1p(-s2) would raise.  M is odd,
    so no node is pi/2: the nearest, k pi/M, lies pi/(2M) below it, and
    computing it as k fl(pi/M) moves it by under 3u.  sin(phi) rounds to
    1 only within sqrt(u), about 1.05e-8, of pi/2, where 1 - cos of the
    distance falls below u/2; so a node there needs M > 1.49e8.
    ``_moment_points`` takes M <= m + 1, where m is at most
    ceil(1 + sqrt(n ln(pi/lam))), lam the least normal double; no budget
    caps M, and at n <= MAX_INDEX = 10^8 that is M <= 266,375, whatever
    the config.  Besides, the rule samples only the nodes j pi/M with
    j <= j0 (``_moment_window``), which lie within j0 pi/M of 0.  The
    closed form and its one check give j0 <= ceil(w), with
    w = (M/2) max(sqrt(ln(h/target)/n), ln 2 M/(4n)), so the nodes stay
    within (pi/2) max(sqrt(ln(h/target)/n), ln 2 M/(4n)) + pi/M of 0:
    0.00115 at n = 10^8, at every config tried.  The rule is whole,
    j0 = k, only where the Gaussian has not decayed by pi/2, which needs
    n below about ln(h/target), under 70 up to MAX_INDEX: at every
    config tried the last such n is 47.  So raising the index limit
    leaves the sampled nodes far from pi/2.

    With delta = (aliasing bound + rounding bound + window bound) /
    Kershaw's lower bound on J, the error of ln J is at most
    -ln(1 - delta), and ``_assemble`` adds the rounding of the log and
    of the sum.  The factor 2 dropped from |a_k| <= b_{k-1}/2 covers the
    rounding of the aliasing sum and of the lower bound.
    """
    n = _check_index(n)
    k, aliasing = _moment_points(n, config)
    floor = _moment_floor(n)
    budget = _PANEL_EVALUATIONS * (1 + 2 * config.max_subdivisions)
    j0, window = _moment_window(n, k, 0.25 * _U * floor, budget)
    value, rounding = _moment_rule(n, k, j0)
    relative = (aliasing + rounding + window) / floor
    error = -math.log1p(-relative) if relative < 1.0 else math.inf
    ln_value = math.log(value) if value > 0.0 else -math.inf
    converged = relative <= _moment_tolerance(config)
    return _assemble(j0, converged, error, 2.0 * (n + 1) * _LN2, -_LN_PI, ln_value)


def _penson_mellin(n: int, config: QuadConfig) -> _Estimate:
    """ln C_n = 2(n + 2) ln 2 - ln pi + ln I, I = integral_0^inf 2 s^2/(4 s^2 + 1)^{n+2} ds.

    I is the Mellin-type integral_0^inf sqrt(t)/(4t + 1)^{n+2} dt after
    t = s^2, which removes the square-root singularity at 0.  The
    integrand decays like s^{-(2n + 2)}, so no exponential tail bound
    exists; s = w u/(1 - u) with w = 1/sqrt(n + 1) maps I onto (0, 1),
    where it reads 2 w r/(1 - u)^2 (4r + 1)^{-(n+2)} with r = s^2, peaks
    at u = 1/3 for every n, and stays finite up to u = 1.  The driver
    starts from the thirds of (0, 1) (module docstring).

    In doubles the map collapses every s beyond the last double below
    u = 1, s = w (2^53 - 1), into that one point.  The integrand is at
    most 2^{-2n-3} s^{-2n-2}, so the mass lost past s = w 2^53 is at
    most 2^{-2n-3} (w 2^53)^{-2n-1}/(2n + 1).  At n = 0, where w = 1,
    that is 1/(8 2^53), about 1.4e-17, which is 7.1e-17 of I (I = pi/16
    there); at n = 1 it is about 4e-50, and from there on it falls
    faster than I does, by a factor below e (n + 2) 2^-108 per step.
    That lies below 50 eps I, the least that the panels' 50 eps resabs
    error floors add up to, so the map loses nothing the estimate does
    not already cover.  The map 4t = tan^2(phi) is not used: it turns I
    into a quarter of the moment route's integrand (module docstring).
    """
    n = _check_index(n)
    power = n + 2.0
    w = 1.0 / math.sqrt(n + 1.0)

    def fn(u: float) -> float:
        # s = w u/v, ds = w du/v^2; the rule never samples u = 1.
        v = 1.0 - u
        r = (w * u / v) ** 2
        return 2.0 * w * r / (v * v) * math.exp(-power * math.log1p(4.0 * r))

    qr = integrate_finite(fn, 0.0, 1.0, config, breakpoints=(1.0 / 3.0, 2.0 / 3.0))
    terms = (2.0 * power * _LN2, -_LN_PI, math.log(qr.value))
    return _assemble(qr.evaluations, qr.converged, qr.error_estimate / qr.value, *terms)


class Route(NamedTuple):
    """One evaluation route, the ``method`` of each row it computes: its
    name in reports, ``value``; its command-line ``name``; and the callable
    ``estimate(n, config)``.  Calling the route gives its row for n; its
    repr is its public name, ``catalan_<value>``."""

    value: str
    name: str
    estimate: Callable[[int, QuadConfig], _Estimate]

    def __call__(self, n: int, config: QuadConfig = QuadConfig()) -> RepresentationResult:
        """This route's row for n, compared with ``ln_exact(n)``; the row
        holds n as a plain int, whatever integer type it came as."""
        n = _check_index(n)
        return _row(n, self, self.estimate(n, config), ln_exact(n))

    def __repr__(self) -> str:
        return f"catalan_{self.value}"


catalan_gamma_closed_form = Route("gamma_closed_form", "gamma", _gamma_closed_form)
catalan_malmsten = Route("malmsten", "malmsten", _malmsten)
catalan_binet = Route("binet", "binet", _binet)
catalan_penson_moment = Route("penson_moment", "penson-moment", _penson_moment)
catalan_penson_mellin = Route("penson_mellin", "penson-mellin", _penson_mellin)

# The only table of routes, in report row order.
ROUTES = (
    catalan_gamma_closed_form,
    catalan_malmsten,
    catalan_binet,
    catalan_penson_moment,
    catalan_penson_mellin,
)


def compare_representations(
    n_max: int, config: QuadConfig
) -> list[RepresentationResult]:
    """Evaluate every route for every n in [0, n_max].

    Returns exactly 5 (n_max + 1) rows ordered by (n, route); a route
    failure is recorded as a non-converged NaN row rather than aborting
    the sweep, so one bad pair cannot mask the rest of the table.  The
    exact reference is computed once per n and shared by its rows.

    The order of evaluation is deliberate, and is not the order of the
    rows: first ``ln_exact`` for every n, then each route of ``ROUTES``
    in turn over n = 0..n_max, each row written straight into its
    (n, route) slot.  Six code paths (the big-integer log and five route
    kernels) interleaved at every n ran slower than the same work done
    one path at a time.  On a 2-vCPU x86_64 host with CPython 3.11, the
    sweep over n = 0..200, warm and in one process, took 1.19-1.22 times
    as long interleaved (about 27 against 23 ms).  The benchmark's
    ``sweep`` workload, which adds a report round trip, took 47.6 ms
    against 54.3 ms interleaved (medians of 10 alternating pairs of 30 s
    runs, route-major faster in all 10).  About 1.3 ms of that saving
    came from ``ln_exact``'s first pass moving from 160 to 96 bits: its
    traced self time fell from 3.4 to 2.1 ms.  The likely cause, not
    verified for want of hardware counters, is that the paths together
    overflow the instruction cache and branch predictors.  Keep the
    order when refactoring this loop.
    """
    n_max = _check_index(n_max)
    failed = (float("nan"), float("inf"), 0, False)
    exact = [ln_exact(n) for n in range(n_max + 1)]
    width = len(ROUTES)
    rows: list = [None] * (width * len(exact))  # every slot is filled below
    for j, route in enumerate(ROUTES):
        for n, exact_ln in enumerate(exact):
            try:
                estimate = route.estimate(n, config)
            except Exception:
                estimate = failed
            rows[width * n + j] = _row(n, route, estimate, exact_ln)
    return rows
