"""Log-Gamma reference, integral kernels, and their origin/tail behaviour."""

import math
import sys
from fractions import Fraction

import mpmath as mp
import pytest

from closed_forms import kernel_origin_cases
from oracles import (
    binet_theta,
    frullani_term,
    log_gamma_difference_kernel,
    log_gamma_malmsten,
    theta_kernel,
)
from catalan_integrals import representations
from catalan_integrals.exact import _STIRLING
from catalan_integrals.kernels import (
    _B1,
    _B3,
    _B5,
    _B7,
    _B9,
    _B11,
    _STIRLING_COEFFS,
    _STIRLING_NEXT,
    KernelSpec,
    _binet_theta,
    binet_catalan_kernel,
    binet_core,
    log_gamma_reference,
    malmsten_catalan_kernel,
)
from catalan_integrals.quadrature import QuadConfig, integrate_half_line
from catalan_integrals.representations import (
    catalan_binet,
    catalan_malmsten,
    catalan_penson_mellin,
)

# Frozen from 40-digit evaluations.
THETA_HALF = 0.1534264097200273452914  # theta(1/2)
THETA_ONE = 0.08106146679532725821967  # theta(1) = 1 - ln(2 pi)/2
THETA_HALF_MINUS_TWO = 0.1120857137646180511976  # theta(1/2) - theta(2)
LGAMMA_10_5 = 13.94062521940376363316  # ln Gamma(10.5)


def _stirling_main(x: float) -> float:
    return x * math.log(x) - x + 0.5 * math.log(2.0 * math.pi * x)


# ------------------------------------------------------ reference route


def test_reference_anchors():
    assert abs(log_gamma_reference(1.0)) <= 5e-14
    assert abs(log_gamma_reference(2.0)) <= 5e-14
    assert abs(log_gamma_reference(0.5) - 0.5 * math.log(math.pi)) <= 1e-14
    assert abs(log_gamma_reference(5.0) - math.log(24.0)) <= 1e-13
    assert abs(log_gamma_reference(10.5) - LGAMMA_10_5) <= 1e-13


def test_reference_recurrence():
    # ln Gamma(x + 1) = ln Gamma(x) + ln x across the shift boundary.
    for x in (0.3, 1.7, 8.9, 9.5, 10.2, 25.0):
        lhs = log_gamma_reference(x + 1.0)
        rhs = log_gamma_reference(x) + math.log(x)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_reference_matches_libm():
    for x in (0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.7, 5.0, 10.0, 17.3, 50.0, 123.4):
        mine = log_gamma_reference(x)
        libm = math.lgamma(x)
        assert abs(mine - libm) <= 2e-13 * max(1.0, abs(libm))


def test_reference_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_gamma_reference(0.0)
    with pytest.raises(ValueError):
        log_gamma_reference(-1.5)
    # NaN and the infinities are no positive reals; below the least
    # normal, 1/x overflows.
    for x in (math.nan, math.inf, -math.inf, 1e-310):
        with pytest.raises(ValueError):
            log_gamma_reference(x)


def _bernoulli(m: int) -> list[Fraction]:
    """B_0 .. B_m from sum_{j<=k} binomial(k + 1, j) B_j = 0, in exact rationals."""
    b = [Fraction(1)]
    for k in range(1, m + 1):
        b.append(-sum(math.comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return b


# The edges of binet_core's series branch, and 96 points log-spaced over
# [1e-8, 0.2).
BINET_CORE_TS = (1e-300, 1e-8, 0.01, 0.05, 0.1, 0.15, 0.19, 0.1999, math.nextafter(0.2, 0.0))
BINET_CORE_TS += tuple(1e-8 * (0.2e8) ** (k / 96) for k in range(96))


def test_stirling_coefficients_are_rounded_bernoulli_ratios():
    # float(Fraction) rounds correctly, so the tables must match exactly;
    # ln_exact's fixed-point path holds the ratios themselves, in lowest terms.
    b = _bernoulli(2 * len(_STIRLING))
    ratios = [b[2 * k] / (2 * k * (2 * k - 1)) for k in range(1, len(_STIRLING) + 1)]
    assert _STIRLING_COEFFS == tuple(float(r) for r in ratios[:7])
    assert _STIRLING_NEXT == float(abs(ratios[7]))
    assert _STIRLING == tuple((r.numerator, r.denominator) for r in ratios)
    # binet_core's branch below t = 0.2 sums B_2k t^(2k - 1) / (2k)!
    # = c_k t^(2k - 1) / (2k - 2)!, k = 1..6, with c_k from the same
    # table.  It must hold within 2 ulp of the function itself,
    # 1/(e^t - 1) - 1/t + 1/2 at 40 digits, from t = 1e-8 on, and below
    # that of its exact series, whose first terms hold it far below an ulp.
    taylor = [b[2 * k] / math.factorial(2 * k) for k in range(1, 7)]
    assert (_B1, _B3, _B5, _B7, _B9, _B11) == tuple(float(c) for c in taylor)
    for t in BINET_CORE_TS:
        if t < 1e-8:
            exact = float(sum(c * Fraction(t) ** (2 * k - 1) for k, c in enumerate(taylor, 1)))
        else:
            with mp.workdps(40):
                x = mp.mpf(t)
                exact = float(1 / mp.expm1(x) - 1 / x + mp.mpf(1) / 2)
        assert abs(binet_core(t) - exact) <= 2 * math.ulp(exact), t


# Log-spaced from 0.05 to 50, with the edges of the series regime.
THETA_XS = [0.05 * 1000 ** (k / 60) for k in range(61)] + [9.0, 9.999, 10.0, 10.5]


def test_binet_theta_within_its_bound_of_mpmath():
    # Independent oracle: theta(x) = ln Gamma(x + 1) - x ln x + x
    # - ln(2 pi x)/2 at 40 digits.  Below 10 the recurrence runs, from
    # 10 on the series alone.
    with mp.workdps(40):
        for x in THETA_XS:
            theta, bound = _binet_theta(x)
            xm = mp.mpf(x)
            exact = mp.loggamma(xm + 1) - xm * mp.log(xm) + xm - mp.log(2 * mp.pi * xm) / 2
            err = float(abs(mp.mpf(theta) - exact))
            assert err <= bound <= 2e-14, (x, err, bound)


# ------------------------------------------------- log-Gamma via kernel


def test_malmsten_route_trivial_zeros(cfg):
    # ln Gamma(1) = ln Gamma(2) = 0: x = 0 kills the integrand
    # identically, x = 1 only the integral.
    assert abs(log_gamma_malmsten(0.0, cfg).value) <= 1e-14
    assert abs(log_gamma_malmsten(1.0, cfg).value) <= 1e-11


def test_malmsten_route_half(cfg):
    # ln Gamma(3/2) = ln(sqrt(pi)/2).
    result = log_gamma_malmsten(0.5, cfg)
    assert result.converged
    assert abs(result.value - math.log(0.5 * math.sqrt(math.pi))) <= 1e-12


@pytest.mark.parametrize("x", [0.25, 0.5, 1.0, 2.5, 7.0, 20.0])
def test_malmsten_route_invariant_grid(x, cfg):
    result = log_gamma_malmsten(x, cfg)
    assert result.converged
    diff = abs(result.value - log_gamma_reference(x + 1.0))
    assert diff <= 1e-10
    assert diff <= 10.0 * max(result.error_estimate, 5e-16)


def test_malmsten_route_domain(cfg):
    with pytest.raises(ValueError):
        log_gamma_malmsten(-1.0, cfg)


# -------------------------------------------------------- Binet kernel


def test_binet_core_series_joins_direct_branch():
    # The Bernoulli series takes over below t = 0.2; both formulas must
    # agree through the switch to well under the quadrature tolerance.
    for t in (0.15, 0.19, 0.199, 0.201, 0.25):
        direct = math.exp(-t) / (-math.expm1(-t)) - 1.0 / t + 0.5
        assert abs(binet_core(t) - direct) <= 5e-13


def test_binet_core_origin_expansion():
    # binet_core(t) = t/12 - t^3/720 + ... near zero.
    for t in (1e-4, 1e-3, 1e-2):
        assert abs(binet_core(t) - t / 12.0) <= t**3 / 700.0


def test_theta_anchor(cfg):
    result = binet_theta(1.0, cfg)
    assert result.converged
    assert abs(result.value - (1.0 - 0.5 * math.log(2.0 * math.pi))) <= 1e-12
    assert abs(result.value - THETA_ONE) <= 1e-12


def test_theta_half(cfg):
    result = binet_theta(0.5, cfg)
    assert abs(result.value - THETA_HALF) <= 1e-12


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0, 10.0, 50.0])
def test_theta_bounds(x, cfg):
    # 0 < theta(x) < 1/(12 x): the correction is positive and dominated
    # by the first Stirling term.
    value = binet_theta(x, cfg).value
    assert 0.0 < value < 1.0 / (12.0 * x)


@pytest.mark.parametrize("x", [1.0, 2.0, 5.0, 10.0])
def test_binet_closure(x, cfg):
    # ln Gamma(x + 1) = x ln x - x + (1/2) ln(2 pi x) + theta(x).
    lhs = log_gamma_reference(x + 1.0)
    rhs = _stirling_main(x) + binet_theta(x, cfg).value
    assert abs(lhs - rhs) <= 1e-10


def test_theta_domain(cfg):
    with pytest.raises(ValueError):
        binet_theta(0.0, cfg)
    with pytest.raises(ValueError):
        binet_theta(-2.0, cfg)


# ------------------------------------------------------ kernel families


def test_origin_limit_consistency():
    # Just above t = 1e-6 every kernel sits within 1% (plus an absolute
    # floor) of its analytic limit, and none of them cancels, so each
    # reaches it to a few ulp even at t = 1e-300, where the slope term is
    # below any ulp.
    for label, spec, limit, _ in kernel_origin_cases():
        raw = spec.integrand(1e-6)
        assert abs(raw - limit) <= 0.01 * (1.0 + abs(limit)), label
        tiny = spec.integrand(1e-300)
        assert abs(tiny - limit) <= 4 * sys.float_info.epsilon * abs(limit), label


def test_origin_extrapolation_matches_declared_data():
    # Richardson step on the kernel at t1 = 1e-5, t2 = 2e-5:
    # 2 f(t1) - f(t2) = L + O(t1^2) and (f(t2) - f(t1))/t1 = s + O(t1),
    # checked against the hand-derived Taylor data.
    t1 = 1e-5
    for label, spec, limit, slope in kernel_origin_cases():
        f1 = spec.integrand(t1)
        f2 = spec.integrand(2.0 * t1)
        limit_est = 2.0 * f1 - f2
        slope_est = (f2 - f1) / t1
        assert abs(limit_est - limit) <= 1e-3 * (1.0 + abs(limit)), label
        assert abs(slope_est - slope) <= 2e-2 * (1.0 + abs(slope)), label


def test_tail_bounds_hold_pointwise():
    # |f(t)| <= K e^{-c t} for every t > 0, as the kernels state it, not
    # only past 294/c, where the half-line map folds the rest away.
    # Checked on a log grid from 1e-6 to 40.
    specs = [
        (kernel.__name__, n, kernel(n))
        for kernel in (malmsten_catalan_kernel, binet_catalan_kernel)
        for n in (0, 1, 5, 20, 1000, 10**5)
    ]
    specs += [("theta_kernel", x, theta_kernel(x)) for x in (0.5, 2.0)]
    for name, n, spec in specs:
        k, c = spec.tail_constants
        for j in range(201):
            t = 1e-6 * 4e7 ** (j / 200)
            assert abs(spec.integrand(t)) <= k * math.exp(-c * t), (name, n, t)


def _malmsten_oracle(n: int, t: float) -> mp.mpf:
    # The split form expm1(-t/2) (q + 1/2)/(1 + q) e^{-(n+1/2) t} / t,
    # q = e^{-t/2}, at 40 digits; none of its factors cancels.
    with mp.workdps(40):
        t = mp.mpf(t)
        q = mp.exp(-t / 2)
        return mp.expm1(-t / 2) * (q + 0.5) / (1 + q) * mp.exp(-(n + mp.mpf(0.5)) * t) / t


@pytest.mark.parametrize("n", [0, 1, 5, 200, 10**5, 10**7])
def test_malmsten_kernel_matches_mpmath(n):
    # The evaluated kernel cancels nothing: within 8 eps of the split
    # form at every t from 1e-300 to 1e4 where x = (n + 1/2) t <= 1.
    # Past that, the double product x = (n + 1/2) * t carries a rounding
    # of up to x eps/2, and e^{-x} turns that absolute error in its
    # argument into the same relative error in its value; every double
    # evaluation of e^{-x} carries it, so the bound grows by x eps/2.
    # Past t of about 700, or x of about 700, the value leaves the normal
    # range, where a double carries no relative accuracy, so the bound
    # keeps a floor of 8 units of the smallest subnormal.
    f = malmsten_catalan_kernel(n).integrand
    eps = sys.float_info.epsilon
    floor = 8.0 * math.ulp(0.0)
    for exponent in range(-300, 5):
        for mantissa in (1.0, 3.0):
            t = mantissa * 10.0**exponent
            if t > 1e4:
                continue
            got = f(t)
            assert math.isfinite(got), (n, t)
            expected = _malmsten_oracle(n, t)
            x = (n + 0.5) * t
            rel = 8.0 * eps + (0.5 * x * eps if x > 1.0 else 0.0)
            err = abs(mp.mpf(got) - expected)
            assert err <= rel * abs(expected) + floor, (n, t, got, expected)


def test_malmsten_kernel_direct_value():
    # At t = 1, n = 1 the defining form is
    # [(e^{3/2} - 1)/(e - 1) e^{-1} - 3/2] e^{-1} / 1 by direct
    # substitution, and the split drops (3/2)(e^{-3/2} - e^{-1}) from it.
    expected = (
        (math.exp(1.5) - 1.0) / (math.e - 1.0) * math.exp(-1.0) - 1.5
    ) * math.exp(-1.0) - 1.5 * (math.exp(-1.5) - math.exp(-1.0))
    got = malmsten_catalan_kernel(1).integrand(1.0)
    assert abs(got - expected) <= 1e-14 * abs(expected)


def test_binet_kernel_direct_value():
    # At t = 1, n = 0: core(1) (e^{-1/2} - e^{-2}) with core(1) = 1/(e-1) - 1/2.
    core = 1.0 / (math.e - 1.0) - 0.5
    expected = core * (math.exp(-0.5) - math.exp(-2.0))
    got = binet_catalan_kernel(0).integrand(1.0)
    assert abs(got - expected) <= 1e-14 * abs(expected)


def test_malmsten_and_difference_kernels_agree_pointwise():
    # The split kernel is the defining (difference) form less the
    # Frullani term, on two independent arithmetic paths.
    for n in (0, 1, 5, 20):
        f = malmsten_catalan_kernel(n).integrand
        g = log_gamma_difference_kernel(n).integrand
        for t in (0.1, 0.5, 1.0, 5.0, 20.0):
            fv, gv = f(t), g(t) - frullani_term(n, t)
            assert abs(fv - gv) <= 1e-13 * max(1.0, abs(fv)), (n, t)


def test_kernels_carry_the_scale_of_their_origin_factor():
    # Both Catalan kernels carry e^{-(n + 1/2) t}, so their tail rate is
    # n + 1/2 and the half-line map takes them at the scale 8/(n + 1/2).
    for n in (0, 1, 7, 10_000):
        assert malmsten_catalan_kernel(n).tail_constants.c == n + 0.5
        assert binet_catalan_kernel(n).tail_constants.c == n + 0.5


def _kernel_integral(spec: KernelSpec, cfg: QuadConfig) -> float:
    result = integrate_half_line(spec.integrand, cfg, tail=spec.tail_constants)
    assert result.converged
    return result.value


def test_malmsten_kernel_integral_anchors(cfg):
    # The kernel integrates to ln Gamma(n + 1/2) - ln Gamma(n + 2)
    # + (3/2) ln(n + 1/2).
    # n = 0: (1/2) ln pi + (3/2) ln(1/2).
    # n = 1: ln(sqrt(pi)/2) - ln 2 + (3/2) ln(3/2).
    i0 = _kernel_integral(malmsten_catalan_kernel(0), cfg)
    assert abs(i0 - (0.5 * math.log(math.pi) + 1.5 * math.log(0.5))) <= 1e-11
    i1 = _kernel_integral(malmsten_catalan_kernel(1), cfg)
    expected = math.log(0.5 * math.sqrt(math.pi)) - math.log(2.0) + 1.5 * math.log(1.5)
    assert abs(i1 - expected) <= 1e-11


def test_kernel_integrals_agree(cfg):
    # Frullani: the split and the defining form integrate to numbers
    # that differ by exactly (3/2) ln(n + 1/2), for every n.
    for n in range(21):
        a = _kernel_integral(malmsten_catalan_kernel(n), cfg)
        b = _kernel_integral(log_gamma_difference_kernel(n), cfg)
        assert abs(a - (b + 1.5 * math.log(n + 0.5))) <= 1e-11, n


def test_binet_kernel_integral_is_theta_difference(cfg):
    # The n = 0 kernel integrates to theta(1/2) - theta(2).
    value = _kernel_integral(binet_catalan_kernel(0), cfg)
    assert abs(value - THETA_HALF_MINUS_TWO) <= 1e-11


# ------------------------------------------------- the kernel routes

# The kernel routes integrate each plain kernel through
# representations.integrate_half_line, and the Penson-Mellin route its
# mapped integrand through representations.integrate_finite, the names
# the benchmark's tracer taps (perfbench/tracing.py): one call a row,
# with the route's own integrand, so that no second form of an integrand
# and no private way into the driver can take the routes' quadratures
# out of the benchmark's sight.  Over the sweep, the benchmark's large
# n, 10^6 and 10^8, at the default config, where the driver bisects
# (1e-14) and where it is starved.
ROUTE_NS = (*range(201), 1_000, 3_162, 10_000, 31_623, 100_000, 10**6, 10**8)
ROUTE_CONFIGS = (QuadConfig(), QuadConfig(1e-14, 1e-14), QuadConfig(0, 1e-16, 1))


def _captured(fn):
    return [cell.cell_contents for cell in fn.__closure__ or ()]


@pytest.mark.parametrize(
    "route, kernel",
    [(catalan_malmsten, malmsten_catalan_kernel), (catalan_binet, binet_catalan_kernel)],
    ids=["malmsten", "binet"],
)
@pytest.mark.parametrize("config", ROUTE_CONFIGS, ids=["default", "1e-14", "starved"])
def test_kernel_routes_integrate_as_the_scalar_kernel_does(route, kernel, config, monkeypatch):
    calls = []
    integrate = representations.integrate_half_line

    def capture(f, config, tail):
        calls.append((f, config, tail, integrate(f, config, tail)))
        return calls[-1][-1]

    monkeypatch.setattr(representations, "integrate_half_line", capture)
    for n in ROUTE_NS:
        calls.clear()
        row = route(n, config)
        assert len(calls) == 1, n
        f, passed, tail, result = calls[0]
        spec = kernel(n)
        # The kernel's own integrand: the same code over the same values.
        assert f.__code__ is spec.integrand.__code__, n
        assert _captured(f) == _captured(spec.integrand), n
        assert tail == spec.tail_constants, n
        assert passed == config, n
        assert row.evaluations == result.evaluations, n


@pytest.mark.parametrize("config", ROUTE_CONFIGS, ids=["default", "1e-14", "starved"])
def test_mellin_route_integrates_its_integrand_from_the_thirds(config, monkeypatch):
    calls = []
    integrate = representations.integrate_finite

    def capture(f, a, b, config, **kwargs):
        calls.append((f, a, b, config, kwargs, integrate(f, a, b, config, **kwargs)))
        return calls[-1][-1]

    monkeypatch.setattr(representations, "integrate_finite", capture)
    for n in ROUTE_NS:
        calls.clear()
        row = catalan_penson_mellin(n, config)
        assert len(calls) == 1, n
        f, a, b, passed, kwargs, result = calls[0]
        own = representations._mellin_integrand(n)
        assert f.__code__ is own.__code__, n
        assert _captured(f) == _captured(own), n
        assert (a, b, kwargs) == (0.0, 1.0, {"breakpoints": (1 / 3, 2 / 3)}), n
        assert passed == config, n
        assert row.evaluations == result.evaluations, n
