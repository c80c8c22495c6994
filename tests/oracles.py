"""Oracles that share no arithmetic with the routes they check.

The tests compare ``catalan_exact`` against these routes:

* ``catalan_segner``         -- convolution recurrence
* ``catalan_hypergeometric`` -- terminating 2F1(1 - n, -n; 2; 1) summed
  over exact rationals
* ``count_balanced_parentheses`` / ``count_polygon_triangulations``
  -- brute-force enumerations of two classical Catalan families

exercise the quadrature layer on two classical half-line integrals
for a single ln Gamma, apart from the Catalan kernels:

* ``log_gamma_malmsten`` -- Malmsten's integral for ln Gamma(x + 1)
* ``binet_theta`` / ``theta_kernel`` -- Binet's correction theta(x)

and check the Malmsten-Catalan kernel against its defining form:

* ``log_gamma_difference_kernel`` -- Malmsten's integrand for
  ln Gamma(n + 1/2) - ln Gamma(n + 2), before the split
* ``frullani_term`` -- the part the split moves into closed form

check the streamed sum-rule terms against exact integers, and keep an
independent route to the ln A that ``glaisher_from_integral`` checks
against:

* ``sum_rule_term`` -- one sum-rule term C_{2n} C_n / 64^n from exact
  integers, through ``_top_bits``, the leading bits of an int of any
  size
* ``sum_rule_limit`` -- the limit of either sum rule as a 40-digit
  mpmath hypergeometric value
* ``glaisher_oracle`` -- ln A from the hyperfactorial limit, through
  ``_hyperfactorial_remainder``, with Richardson extrapolation

keep the search the moment route once made for its point count, which
its closed form must match:

* ``moment_points_search`` -- the least m whose aliasing bound meets the
  target's share, stepped up one point at a time

and keep the loop form of one G10/K21 panel, which the unrolled
``_kronrod_panel`` must reproduce bit for bit:

* ``kronrod_panel_reference`` -- one panel, one sample and one check at
  a time

and keep the stdlib-encoder forms of the two byte-stable report
serializations, which the format-string writers in ``report`` must
reproduce byte for byte:

* ``to_json_reference`` -- ``json.dumps(payload, indent=2)``
* ``to_csv_reference``  -- ``csv.writer`` with LF line endings
"""

import csv
import functools
import io
import json
import math
from fractions import Fraction
from typing import Callable

import mpmath

from catalan_integrals.exact import _check_index, catalan_exact
from catalan_integrals.kernels import KernelSpec, binet_core
from catalan_integrals.quadrature import (
    _EPS,
    _UFLOW,
    _WG,
    _WGK,
    _WGK_CENTER,
    _XGK,
    IntegrandEvaluationError,
    QuadConfig,
    QuadResult,
    TailBound,
    integrate_half_line,
)
from catalan_integrals.report import ROW_FIELDS, Report
from catalan_integrals.representations import (
    _moment_aliasing,
    _moment_floor,
    _moment_tolerance,
)

# Brute-force enumeration walks every valid prefix; past n = 14 the walk
# is too slow to be useful as an oracle.
ENUMERATION_LIMIT = 14
TRIANGULATION_MAX_SIDES = 16


def catalan_segner(n: int) -> int:
    """n-th Catalan number via the convolution recurrence.

    C_0 = 1 and C_{k+1} = sum_{i=0..k} C_i C_{k-i}; an O(n^2) route
    that shares no arithmetic with the closed form.
    """
    n = _check_index(n)
    values = [1]
    for k in range(n):
        values.append(sum(values[i] * values[k - i] for i in range(k + 1)))
    return values[n]


def catalan_hypergeometric(n: int) -> int:
    """n-th Catalan number as the terminating sum 2F1(1 - n, -n; 2; 1).

    Terms ((1-n)_k (-n)_k) / ((2)_k k!) are accumulated as exact
    Fractions; both numerator parameters are nonpositive integers, so
    the series stops after n terms (a single term 1 when n = 0).
    """
    n = _check_index(n)
    if n == 0:
        return 1
    total = Fraction(0)
    term = Fraction(1)
    for k in range(n):
        total += term
        term *= Fraction((1 - n + k) * (k - n), (2 + k) * (k + 1))
    assert total.denominator == 1, f"hypergeometric sum not integral at n = {n}"
    return int(total)


def count_balanced_parentheses(n: int) -> int:
    """Number of balanced strings of n '(' and n ')' by explicit backtracking.

    Every prefix of a counted string has at least as many '(' as ')'.
    Exponential-time enumeration, hence the n <= ENUMERATION_LIMIT guard.
    """
    if not 0 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"n must be in [0, {ENUMERATION_LIMIT}], got {n}")

    def walk(opens: int, closes: int) -> int:
        if opens == n and closes == n:
            return 1
        total = 0
        if opens < n:
            total += walk(opens + 1, closes)
        if closes < opens:
            total += walk(opens, closes + 1)
        return total

    return walk(0, 0)


def count_polygon_triangulations(sides: int) -> int:
    """Number of triangulations of a convex polygon by interval dynamic programming.

    f[i][j] counts triangulations of the sub-polygon on vertices i..j:
    f[i][i+1] = 1 and f[i][j] = sum_k f[i][k] f[k][j] over the apex k of
    the triangle containing edge (i, j).  Equals C_{sides-2}.
    """
    if not 3 <= sides <= TRIANGULATION_MAX_SIDES:
        raise ValueError(
            f"sides must be in [3, {TRIANGULATION_MAX_SIDES}], got {sides}"
        )
    f = [[0] * sides for _ in range(sides)]
    for i in range(sides - 1):
        f[i][i + 1] = 1
    for span in range(2, sides):
        for i in range(sides - span):
            j = i + span
            f[i][j] = sum(f[i][k] * f[k][j] for k in range(i + 1, j))
    return f[0][sides - 1]


def log_gamma_malmsten(x: float, config: QuadConfig) -> QuadResult:
    """ln Gamma(x + 1) as the half-line integral of
    [x - (1 - e^{-x t}) / (1 - e^{-t})] e^{-t} / t,  valid for x > -1.

    The bracket cancels to O(t^2) as t -> 0, so the raw formula loses
    about log10(1/t) digits there.  At the tolerances the tests use the
    quadrature does not sample close enough to 0 for that to show; the
    tests' error bounds would catch it if it did.
    Tail: the bracket grows at most like e^{max(0, -x) t}, so the
    integrand decays like e^{-min(1, 1+x) t}.
    """
    if x <= -1:
        raise ValueError(f"representation requires x > -1, got {x}")

    def fn(t: float) -> float:
        return (x - math.expm1(-x * t) / math.expm1(-t)) * math.exp(-t) / t

    tail = TailBound(K=abs(x) + 3.0, c=min(1.0, 1.0 + x))
    return integrate_half_line(fn, config, tail=tail)


def log_gamma_difference_kernel(n: int) -> KernelSpec:
    """Malmsten's integrand for ln Gamma(n + 1/2) - ln Gamma(n + 2) in its
    defining form, [(e^{-t} - e^{t/2}) / (e^{-t} - 1) e^{-n t} - 3/2] e^{-t} / t.

    The ratio equals (e^{3t/2} - 1)/(e^t - 1) after multiplying
    numerator and denominator by e^t.  This is the raw two-Gamma
    difference that ``malmsten_catalan_kernel`` splits with Frullani's
    integral, evaluated on a deliberately different arithmetic path.
    It subtracts nearly equal terms as t -> 0 and loses about
    log10(1/t) digits there, and e^{t/2} overflows past t = 1420, far
    beyond the 294/c <= 588 up to which the half-line map samples it.
    Tail: for t >= 1 the two exponential terms sit under
    1.5 e^{-c t} with c = min(1, n + 1/2), and dividing by t >= 1 keeps
    their difference under that same envelope; K = 2.5 adds margin.
    With c <= 1 the map needs the bound only past 294/c > 1, so a bound
    proved for t >= 1 is enough.
    """
    n = _check_index(n)

    def fn(t: float) -> float:
        num = math.expm1(-t) - math.expm1(0.5 * t)
        return (num / math.expm1(-t) * math.exp(-n * t) - 1.5) * math.exp(-t) / t

    return KernelSpec(fn, TailBound(K=2.5, c=min(1.0, n + 0.5)))


def frullani_term(n: int, t: float) -> float:
    """(3/2)(e^{-(n+1/2) t} - e^{-t}) / t, whose half-line integral is
    -(3/2) ln(n + 1/2) by Frullani's integral: the defining form less
    this term is the split Malmsten-Catalan kernel."""
    return 1.5 * (math.exp(-(n + 0.5) * t) - math.exp(-t)) / t


def theta_kernel(x: float) -> KernelSpec:
    """Integrand of the Binet correction theta(x): binet_core(t) e^{-x t} / t.

    binet_core takes its series branch near 0, so nothing cancels there.
    Tail: binet_core <= 1/2 and 1/t <= 1 for t >= 1.
    """

    def fn(t: float) -> float:
        return binet_core(t) * math.exp(-x * t) / t

    return KernelSpec(fn, TailBound(K=1.0, c=x))


def binet_theta(x: float, config: QuadConfig) -> QuadResult:
    """Binet correction theta(x) = ln Gamma(x+1) - x ln x + x - ln(2 pi x)/2
    as a half-line integral, for x > 0.

    Satisfies 0 < theta(x) < 1/(12 x).
    """
    if x <= 0:
        raise ValueError(f"Binet correction requires x > 0, got {x}")
    spec = theta_kernel(x)
    return integrate_half_line(spec.integrand, config, tail=spec.tail_constants)


def _top_bits(m: int) -> tuple[float, int]:
    """(f, k) with m = f 2^k to a relative 2^-63 + 2^-53, for m >= 0 of
    any size: f is the top 64 bits of m rounded to a float, and k the
    number of bits shifted out."""
    shift = max(m.bit_length() - 64, 0)
    return float(m >> shift), shift


def sum_rule_term(n: int, *, odd_weight: bool = False) -> float:
    """term(n) = C_{2n} C_n / 64^n, divided by (2n + 1) for the odd weight.

    Computed from the exact integers to within a few ulp; the numerator
    overflows a double already at n = 130.  The leading bits of C_{2n}
    and C_n multiply as floats, and their powers of two meet
    64^-n = 2^-6n exactly in one ldexp, so no cancellation between large
    logs costs accuracy as n grows.  This is the independent check on
    the streamed terms of the sum rules.
    """
    a, shift_a = _top_bits(catalan_exact(2 * n))
    b, shift_b = _top_bits(catalan_exact(n))
    term = math.ldexp(a * b, shift_a + shift_b - 6 * n)
    return term / (2 * n + 1) if odd_weight else term


@functools.cache
def sum_rule_limit(odd_weight: bool) -> mpmath.mpf:
    """The sum of term(n) over all n, at 40 digits."""
    # term(n) = (1/4)_n (3/4)_n (1/2)_n / ((3/2)_n (2)_n n!), and the odd
    # weight 1/(2n + 1) = (1/2)_n / (3/2)_n adds one more pair.
    upper = [0.25, 0.75, 0.5] + ([0.5] if odd_weight else [])
    lower = [1.5, 2] + ([1.5] if odd_weight else [])
    with mpmath.mp.workdps(40):
        return mpmath.hyper(upper, lower, 1)


def _hyperfactorial_remainder(m: int) -> float:
    """a(m) = sum_{k<=m} k ln k - (m^2/2 + m/2 + 1/12) ln m + m^2/4, stably.

    The literal form cancels about eight digits at m = 1000; regrouping
    the ln m weight into the sum gives the equivalent
    a(m) = sum_{k<=m} k ln(k/m) + m^2/4 - (ln m)/12 whose summands stay
    O(m), and fsum removes accumulation error on top.
    """
    pieces = [k * math.log(k / m) for k in range(1, m)]
    pieces.append(0.25 * m * m)
    return math.fsum(pieces) - math.log(m) / 12.0


def glaisher_oracle(m: int = 100) -> float:
    """ln A from the hyperfactorial limit at m, 2m, 4m with Richardson extrapolation.

    The remainder behaves like ln A + c_2/m^2 + c_4/m^4 + ..., so two
    extrapolation stages in 1/m^2 (weights 4/3 and 16/15) cancel both
    leading error terms.  Rounding, which grows with m, is what is left:
    against 40-digit mpmath the result is off by 6.6e-15 at m = 100 (at
    most 7.1e-13 over m = 60..140) but by 7.7e-12 at m = 1000.
    """
    if m < 10:
        raise ValueError(f"oracle needs m >= 10, got {m}")
    a1 = _hyperfactorial_remainder(m)
    a2 = _hyperfactorial_remainder(2 * m)
    a4 = _hyperfactorial_remainder(4 * m)
    r1 = (4.0 * a2 - a1) / 3.0
    r2 = (4.0 * a4 - a2) / 3.0
    return (16.0 * r2 - r1) / 15.0


def moment_points_search(n: int, config: QuadConfig) -> tuple[int, float]:
    """(m, its aliasing bound): the least m whose bound meets the
    aliasing's share of the target, or n + 2, which aliases nothing,
    found by stepping m up from the first term's estimate.  The budget
    caps the samples the rule sums, not m."""
    tol = _moment_tolerance(config)
    target = max(tol - 64.0 * _EPS, 0.5 * tol) * _moment_floor(n)
    ratio = math.pi / max(target, _UFLOW)
    m = max(2, math.floor(1.0 + math.sqrt(n * math.log(ratio))))
    m = min(m, n + 2)
    aliasing = _moment_aliasing(n, m)
    while aliasing > target and m < n + 2:
        m += 1
        aliasing = _moment_aliasing(n, m)
    return m, aliasing


def _sample(f: Callable[[float], float], t: float) -> float:
    y = f(t)
    if not math.isfinite(y):
        raise IntegrandEvaluationError(t, y)
    return y


def kronrod_panel_reference(
    f: Callable[[float], float], a: float, b: float
) -> tuple[float, float, float]:
    """One G10/K21 application on [a, b] as a loop over the node pairs:
    (K21 value, error estimate, error floor), the QUADPACK estimate and
    its 50 eps resabs floor.

    Each sample is checked as it is taken, so the first non-finite one
    raises before f is asked for the next.
    """
    h = 0.5 * (b - a)
    center = 0.5 * (a + b)
    fc = _sample(f, center)
    resg = 0.0  # G10 has no centre node
    resk = _WGK_CENTER * fc
    resabs = _WGK_CENTER * abs(fc)
    pairs = []
    for j, x in enumerate(_XGK):
        dx = h * x
        f1 = _sample(f, center - dx)
        f2 = _sample(f, center + dx)
        pairs.append((f1, f2))
        resk += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += _WG[j // 2] * (f1 + f2)
    reskh = 0.5 * resk
    resasc = _WGK_CENTER * abs(fc - reskh)
    for j, (f1, f2) in enumerate(pairs):
        resasc += _WGK[j] * (abs(f1 - reskh) + abs(f2 - reskh))
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


def _json_safe(x: float):
    # json has no NaN/Infinity; failed rows become null fields.
    return x if math.isfinite(x) else None


def to_json_reference(report: Report) -> str:
    """The report as one ``json.dumps(payload, indent=2)`` call."""
    payload = {
        "schema_version": report.schema_version,
        "generated_at": report.generated_at,
        "config": report.config,
        "rows": [
            {
                "n": r.n,
                "method": r.method.value,
                "ln_value": _json_safe(r.ln_value),
                "exact_ln": _json_safe(r.exact_ln),
                "abs_err_ln": _json_safe(r.abs_err_ln),
                "quad_error_estimate": _json_safe(r.quad_error_estimate),
                "evaluations": r.evaluations,
                "converged": r.converged,
            }
            for r in report.rows
        ],
        "summary": {
            "max_abs_err_ln": _json_safe(report.summary.max_abs_err_ln),
            "failures": report.summary.failures,
        },
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def to_csv_reference(report: Report) -> str:
    """The report through ``csv.writer``, one ``.17g`` call per float."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ROW_FIELDS)
    for r in report.rows:
        writer.writerow(
            [
                r.n,
                r.method.value,
                f"{r.ln_value:.17g}",
                f"{r.exact_ln:.17g}",
                f"{r.abs_err_ln:.17g}",
                f"{r.quad_error_estimate:.17g}",
                r.evaluations,
                "true" if r.converged else "false",
            ]
        )
    return buf.getvalue()
