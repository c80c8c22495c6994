"""Floating-point evaluation routes for Catalan numbers.

Five independent routes, all assembled in the log domain because C_n
overflows a double near n = 260 (and the 4^n prefactors even earlier):

* ``gamma_closed_form``: ln C_n = 2n ln 2 - ln(pi)/2
  + ln Gamma(n + 1/2) - ln Gamma(n + 2), from the duplication identity
  binomial(2n, n) = 4^n Gamma(n + 1/2) / (sqrt(pi) Gamma(n + 1)).
  No quadrature; the Gamma factors come from the Stirling reference,
  and the bar is its truncation plus the rounding of every term added.
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
  the jM <= n + 1.  The route takes the least M whose bound meets the
  relative target max(abs_tol, rel_tol), relative because an error on
  the ln scale is J's relative error, with J bounded below by
  Kershaw's inequality, J >= sqrt(pi)/(4 (n + 1) sqrt(n + 1/2)).  The
  target is capped at 1/2, where the bound still keeps T_M positive.
  f(0) = 0 and f(pi - phi) = f(phi) leave floor(M/2) samples, and M is
  capped so that they cost no more than the adaptive driver may spend
  on one call, 15 + 30 max_subdivisions evaluations; past the cap the
  route reports the bound of the largest M within it and converged =
  False.  f is evaluated as sin^2(phi) exp(n log1p(-sin^2 phi)), whose
  rounding does not grow with n as that of cos^{2n} does, and each
  sample carries a bound on its rounding (``catalan_penson_moment``).
* ``penson_mellin``: C_n = (4^{n+2}/pi) integral_0^inf sqrt(t) /
  (4t + 1)^{n+2} dt.  With t = s^2 this is C_n = (4^{n+2}/pi) I with
  I = integral_0^inf 2 s^2 / (4 s^2 + 1)^{n+2} ds.  The integrand decays
  only algebraically, so it has no exponential tail bound; the map
  s = w u/(1 - u), as in QUADPACK's QAGI, takes I onto u in (0, 1),
  where the integrand tends to 1/8 (n = 0) or 0 (n >= 1) at u = 1.  It
  peaks at s = w/2 with w = 1/sqrt(n + 1), its width, so the map puts
  the peak at u = 1/3 for every n, inside the first panel.  The
  substitution 4t = tan^2(phi) would map onto a finite interval as
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
about 1.1e-10, it is 1.1e-3 on the ln scale under the default config,
against a true error of 3e-9.

Every quadrature route sums its terms of ln C_n with ``math.fsum`` and
adds a bound on their rounding, 4 eps times the sum of their absolute
values, to its error estimate.  At the default config that bound is
the larger part from n = 157 (Binet) and n = 321 (Malmsten) on, and
the smaller one at every n below.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from typing import NamedTuple

from .exact import _LN2, _LN_PI, _check_index, ln_exact
from .kernels import (
    KernelSpec,
    _log_gamma_reference_parts,
    binet_catalan_kernel,
    log_gamma_reference,
    malmsten_catalan_kernel,
)
from .quadrature import (
    _EPS,
    _UFLOW,
    IntegrandEvaluationError,
    QuadConfig,
    integrate_finite,
    integrate_half_line,
)

__all__ = [
    "ROUTES",
    "Method",
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


class Method(enum.Enum):
    """Evaluation route identifiers; values are the wire names used in reports."""

    GAMMA_CLOSED_FORM = "gamma_closed_form"
    MALMSTEN = "malmsten"
    BINET = "binet"
    PENSON_MOMENT = "penson_moment"
    PENSON_MELLIN = "penson_mellin"


class RepresentationResult(NamedTuple):
    """One route's output for one n, against the exact value.

    ``ln_value`` is the route's ln C_n; ``exact_ln`` the integer-backed
    reference; ``quad_error_estimate`` the route's error bar on the ln
    scale (for the quadrature-free closed form, the Stirling truncation
    and the rounding of its sum).  ``converged``
    is False when the underlying quadrature gave up or the route failed
    outright (then ln_value and abs_err_ln are NaN).
    """

    n: int
    method: Method
    ln_value: float
    exact_ln: float
    abs_err_ln: float
    quad_error_estimate: float
    evaluations: int
    converged: bool


# What a route computes before the comparison with the exact value:
# (ln_value, quad_error_estimate, evaluations, converged).
_Estimate = tuple[float, float, int, bool]


def _row(n: int, method: Method, estimate: _Estimate, exact: float) -> RepresentationResult:
    ln_value, quad_error_estimate, evaluations, converged = estimate
    return RepresentationResult(
        n=n,
        method=method,
        ln_value=ln_value,
        exact_ln=exact,
        abs_err_ln=abs(ln_value - exact),
        quad_error_estimate=quad_error_estimate,
        evaluations=evaluations,
        converged=converged,
    )


def _assemble(
    evaluations: int, converged: bool, ln_error: float, *terms: float
) -> _Estimate:
    """A quadrature route's ln C_n, the sum of ``terms``.

    ``math.fsum`` rounds the sum once, and each term was rounded by its
    own few operations; 4 eps sum |terms| bounds both, and is added to
    ``ln_error``, the quadrature's error estimate on the ln scale.  At
    large n, ln C_n is about 2n ln 2, and no estimate below a few ulp of
    it could be honest.
    """
    rounding = 4.0 * _EPS * math.fsum(map(abs, terms))
    return math.fsum(terms), ln_error + rounding, evaluations, converged


def _prefactor_ln(n: int) -> float:
    """ln(4^n / sqrt(pi)), the prefactor common to the Gamma-based routes."""
    return 2.0 * n * _LN2 - 0.5 * _LN_PI


def _gamma_closed_form(n: int) -> _Estimate:
    _check_index(n)
    ln_value = (
        _prefactor_ln(n)
        + log_gamma_reference(n + 0.5)
        - log_gamma_reference(n + 2.0)
    )
    truncation_a, size_a = _log_gamma_reference_parts(n + 0.5)
    truncation_b, size_b = _log_gamma_reference_parts(n + 2.0)
    size = 2.0 * n * _LN2 + 0.5 * _LN_PI + size_a + size_b
    return ln_value, truncation_a + truncation_b + 8.0 * _EPS * size, 0, True


def _half_line(spec: KernelSpec, config: QuadConfig, *terms: float) -> _Estimate:
    """ln C_n as ``terms`` plus the half-line integral of ``spec``."""
    qr = integrate_half_line(spec.integrand, config, tail=spec.tail_constants)
    return _assemble(qr.evaluations, qr.converged, qr.error_estimate, *terms, qr.value)


def _malmsten(n: int, config: QuadConfig) -> _Estimate:
    return _half_line(
        malmsten_catalan_kernel(n),
        config,
        _prefactor_ln(n),
        -1.5 * math.log(n + 0.5),
    )


def _binet(n: int, config: QuadConfig) -> _Estimate:
    return _half_line(
        binet_catalan_kernel(n),
        config,
        1.5,
        _prefactor_ln(n),
        -1.5 * math.log(n + 2.0),
        n * math.log1p(-3.0 / (2.0 * n + 4.0)),
    )


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


def _moment_points(n: int, config: QuadConfig) -> tuple[int, float, bool]:
    """(m, its aliasing bound, whether that meets the target): the least
    m whose bound meets the target, or the most the budget allows."""
    target = min(max(config.abs_tol, config.rel_tol), 0.5) * _moment_floor(n)
    cap = 2 * (15 + 30 * config.max_subdivisions) + 1
    # The k = m term alone needs (m - 1)^2 >= n ln(pi/target); a target
    # that underflows to 0 is met only by m = n + 2.
    ratio = math.pi / max(target, _UFLOW)
    m = max(2, math.floor(1.0 + math.sqrt(n * math.log(ratio))))
    m = min(m, n + 2, cap)
    aliasing = _moment_aliasing(n, m)
    while aliasing > target and m < min(n + 2, cap):
        m += 1
        aliasing = _moment_aliasing(n, m)
    return m, aliasing, aliasing <= target


def _moment_sample(n: int, phi: float) -> tuple[float, float]:
    """sin^2(phi) cos^{2n}(phi) at a node of the trapezoid rule, and a
    bound on its distance from the integrand at the exact node
    (``catalan_penson_moment`` derives it)."""
    s = math.sin(phi)
    s2 = s * s
    if s2 == 1.0:
        # Within about 1e-8 of pi/2, sin(phi) rounds to 1, where
        # log1p(-1) raises; cos^{2n}(phi) is then (1 - s2)^n = 0^n.
        return 0.0**n, 0.0
    power = n * math.log1p(-s2)
    value = s2 * math.exp(power)
    rel = _U * (21.0 + 18.0 * n * s2 / (1.0 - s2) - 5.0 * power)
    return value, (value * rel if rel <= 1.0 / 32.0 else math.exp(-0.99 * n * s2))


def _moment_rule(n: int, m: int) -> tuple[float, float]:
    """Half the m-point trapezoid sum of sin^2 cos^{2n} over [0, pi), and
    a bound on its rounding error; the ``m // 2`` samples lie in (0, pi/2]."""
    h = math.pi / m
    rounding = 0.0

    def samples():
        # f(0) = 0 and f(pi - phi) = f(phi): each node in (0, pi/2)
        # stands for two, and pi/2, a node when m is even, for one.
        nonlocal rounding
        for j in range(1, m // 2 + 1):
            value, error = _moment_sample(n, j * h)
            if 2 * j == m:
                value, error = 0.5 * value, 0.5 * error
            rounding += error
            yield value

    total = math.fsum(samples())
    if not math.isfinite(total):
        for j in range(1, m // 2 + 1):
            value = _moment_sample(n, j * h)[0]
            if not math.isfinite(value):
                raise IntegrandEvaluationError(j * h, value)
    value = h * total
    return value, h * rounding + 2.0 * _EPS * value


def _penson_moment(n: int, config: QuadConfig) -> _Estimate:
    _check_index(n)
    m, aliasing, met = _moment_points(n, config)
    value, rounding = _moment_rule(n, m)
    relative = (aliasing + rounding) / _moment_floor(n)
    error = -math.log1p(-relative) if relative < 1.0 else math.inf
    ln_value = math.log(value) if value > 0.0 else -math.inf
    return _assemble(m // 2, met, error, 2.0 * (n + 1) * _LN2, -_LN_PI, ln_value)


def _penson_mellin(n: int, config: QuadConfig) -> _Estimate:
    _check_index(n)
    power = n + 2.0
    w = 1.0 / math.sqrt(n + 1.0)

    def fn(u: float) -> float:
        # s = w u/v, ds = w du/v^2; the rule never samples u = 1.
        v = 1.0 - u
        r = (w * u / v) ** 2
        return 2.0 * w * r / (v * v) * math.exp(-power * math.log1p(4.0 * r))

    qr = integrate_finite(fn, 0.0, 1.0, config)
    terms = (2.0 * power * _LN2, -_LN_PI, math.log(qr.value))
    return _assemble(qr.evaluations, qr.converged, qr.error_estimate / qr.value, *terms)


def catalan_gamma_closed_form(n: int) -> RepresentationResult:
    """ln C_n from the Gamma closed form with Stirling-series evaluation.

    Quadrature-free; this is the fast route the integral routes are
    measured against when the exact integer is too slow to build.

    Its bar is the truncation of the two Stirling series, each below
    its first omitted term (DLMF 5.11.ii), plus 8 eps times the sum of
    the absolute values of every term the route adds up: the prefactor,
    and for each Gamma factor the logs of its shift and the terms of the
    series.  That follows the rule of ``_assemble`` for a sum rounded at
    every addition: a term passes at most 12 additions (9 in the shift,
    1 in the reference, 2 in the route), each rounding by at most u =
    2^-53 of a partial sum, and carries at most 2u of its own, so 14u =
    7 eps bounds the rounding, and the eighth eps covers the float
    evaluation of the bar itself.
    """
    return _row(n, Method.GAMMA_CLOSED_FORM, _gamma_closed_form(n), ln_exact(n))


def catalan_malmsten(n: int, config: QuadConfig) -> RepresentationResult:
    """ln C_n = ln(4^n / sqrt(pi)) - (3/2) ln(n + 1/2)
    + integral of the Malmsten-Catalan kernel.

    Malmsten's formula holds for ln Gamma(x) at every x > 0, so n = 0
    needs no argument of its own: there the kernel integrates to
    ln(pi)/2 - (3/2) ln 2.
    """
    return _row(n, Method.MALMSTEN, _malmsten(n, config), ln_exact(n))


def catalan_binet(n: int, config: QuadConfig) -> RepresentationResult:
    """ln C_n = 3/2 + 2n ln 2 + n ln(n + 1/2) - ln(pi)/2 - (n + 3/2) ln(n + 2)
    + integral of the Binet-Catalan kernel.

    The elementary prefactor is exp(3/2) 4^n (n + 1/2)^n /
    (sqrt(pi) (n + 2)^{n + 3/2}) in linear scale; see the module
    docstring for how it arises from the Stirling cores.
    """
    return _row(n, Method.BINET, _binet(n, config), ln_exact(n))


def catalan_penson_moment(n: int, config: QuadConfig) -> RepresentationResult:
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
    of the running sum of the bounds.  Where it is more, the error is
    bounded by e^{-0.99 n s2}, which bounds both the computed and the
    true sample.  At the node pi/2, where sin rounds to 1, the sample is
    exact; any other node that close needs M > 1.4e8, so n > 1.4e8,
    where the true sample is below the least subnormal.  The rule adds
    these bounds in the pass that sums the samples, then 2 eps of its
    result for the fsum, pi/M and the last product.

    With delta = (aliasing bound + rounding bound) / Kershaw's lower
    bound on J, the error of ln J is at most -ln(1 - delta), and
    ``_assemble`` adds the rounding of the log and of the sum.  The
    factor 2 dropped from |a_k| <= b_{k-1}/2 covers the rounding of the
    aliasing sum and of the lower bound.
    """
    return _row(n, Method.PENSON_MOMENT, _penson_moment(n, config), ln_exact(n))


def catalan_penson_mellin(n: int, config: QuadConfig) -> RepresentationResult:
    """ln C_n = 2(n + 2) ln 2 - ln pi + ln I, I = integral_0^inf 2 s^2/(4 s^2 + 1)^{n+2} ds.

    I is the Mellin-type integral_0^inf sqrt(t)/(4t + 1)^{n+2} dt after
    t = s^2, which removes the square-root singularity at 0.  The
    integrand decays like s^{-(2n + 2)}, so no exponential tail bound
    exists; s = w u/(1 - u) with w = 1/sqrt(n + 1) maps I onto (0, 1),
    where it reads 2 w r/(1 - u)^2 (4r + 1)^{-(n+2)} with r = s^2, peaks
    at u = 1/3 for every n, and stays finite up to u = 1.

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
    return _row(n, Method.PENSON_MELLIN, _penson_mellin(n, config), ln_exact(n))


class Route(NamedTuple):
    """One evaluation route: its ``Method``, its short command-line
    ``name`` and the callable ``estimate(n, config)`` that computes it."""

    method: Method
    name: str
    estimate: Callable[[int, QuadConfig], _Estimate]

    def evaluate(self, n: int, config: QuadConfig) -> RepresentationResult:
        """This route's row for n, compared with ``ln_exact(n)``."""
        return _row(n, self.method, self.estimate(n, config), ln_exact(n))


# The only table of routes, in report row order.
ROUTES = (
    Route(Method.GAMMA_CLOSED_FORM, "gamma", lambda n, cfg: _gamma_closed_form(n)),
    Route(Method.MALMSTEN, "malmsten", _malmsten),
    Route(Method.BINET, "binet", _binet),
    Route(Method.PENSON_MOMENT, "penson-moment", _penson_moment),
    Route(Method.PENSON_MELLIN, "penson-mellin", _penson_mellin),
)


def compare_representations(
    n_max: int, config: QuadConfig
) -> list[RepresentationResult]:
    """Evaluate every route for every n in [0, n_max].

    Returns exactly 5 (n_max + 1) rows ordered by (n, route); a route
    failure is recorded as a non-converged NaN row rather than aborting
    the sweep, so one bad pair cannot mask the rest of the table.  The
    exact reference is computed once per n and shared by its rows.
    """
    _check_index(n_max)
    failed = (float("nan"), float("inf"), 0, False)
    rows: list[RepresentationResult] = []
    for n in range(n_max + 1):
        exact = ln_exact(n)
        for route in ROUTES:
            try:
                estimate = route.estimate(n, config)
            except Exception:
                estimate = failed
            rows.append(_row(n, route.method, estimate, exact))
    return rows
