"""Five routes to ln C_n and the cross-checking sweep."""

import math
import re

import mpmath as mp
import pytest

import catalan_integrals
from catalan_integrals import representations
from catalan_integrals.exact import MAX_INDEX, ln_exact
from catalan_integrals.kernels import binet_catalan_kernel, malmsten_catalan_kernel
from catalan_integrals.representations import (
    ROUTES,
    RepresentationResult,
    catalan_binet,
    catalan_gamma_closed_form,
    catalan_malmsten,
    catalan_penson_mellin,
    catalan_penson_moment,
    compare_representations,
)
from catalan_integrals.quadrature import (
    _EPS,
    _UFLOW,
    IntegrandEvaluationError,
    QuadConfig,
)

from oracles import moment_points_search
from test_audit import _draws

_U = 0.5 * _EPS  # unit roundoff, 2^-53

# The n = 0..200 of the benchmark's sweep.
SWEEP = range(201)

# The routes' report names, in report row order.
ROUTE_VALUES = ("gamma_closed_form", "malmsten", "binet", "penson_moment", "penson_mellin")


# -------------------------------------------------------- single routes


def test_gamma_closed_form_anchors():
    row0 = catalan_gamma_closed_form(0)
    assert abs(row0.ln_value) <= 1e-13
    assert row0.converged
    assert row0.evaluations == 0
    # The Stirling truncation and the rounding of the sum, not 0.
    assert abs(row0.ln_value) <= row0.quad_error_estimate <= 1e-12
    row3 = catalan_gamma_closed_form(3)
    assert abs(row3.ln_value - math.log(5.0)) <= 1e-12
    row50 = catalan_gamma_closed_form(50)
    assert abs(row50.ln_value - ln_exact(50)) <= 1e-11


def test_malmsten_anchors(cfg):
    for n, tol in ((0, 1e-9), (1, 1e-10), (5, 1e-10)):
        row = catalan_malmsten(n, cfg)
        assert row.converged
        assert abs(row.ln_value - ln_exact(n)) <= tol, n
    # Spot value: ln C_5 = ln 42.
    assert abs(catalan_malmsten(5, cfg).ln_value - math.log(42.0)) <= 1e-10


def test_binet_anchors(cfg):
    for n in (0, 5, 30):
        row = catalan_binet(n, cfg)
        assert row.converged
        assert abs(row.ln_value - ln_exact(n)) <= 1e-9, n


def test_penson_moment_anchors(cfg):
    for n in (0, 1, 10):
        row = catalan_penson_moment(n, cfg)
        assert row.converged
        assert abs(row.ln_value - ln_exact(n)) <= 1e-9, n


def test_penson_mellin_anchors(cfg):
    for n in (0, 3, 10):
        row = catalan_penson_mellin(n, cfg)
        assert row.converged
        assert abs(row.ln_value - ln_exact(n)) <= 1e-9, n


PENSON_ROUTES = (catalan_penson_moment, catalan_penson_mellin)


def _check_against_mpmath(route, ns, cfg, max_err):
    # Oracle independent of the package: 40-digit loggamma of
    # C_n = (2n)! / (n! (n + 1)!).  Every row must be converged, honest
    # (true error within 10 times its estimate) and within max_err.
    with mp.workdps(40):
        for n in ns:
            row = route(n, cfg)
            exact = mp.loggamma(2 * n + 1) - mp.loggamma(n + 1) - mp.loggamma(n + 2)
            err = float(abs(mp.mpf(row.ln_value) - exact))
            assert row.converged, n
            assert err <= 10.0 * row.quad_error_estimate, (n, err)
            assert err <= max_err, (n, err)


@pytest.mark.parametrize("route", PENSON_ROUTES)
def test_penson_rows_honest_against_mpmath(route, cfg):
    # The Mellin map depends on n through the peak width 1/sqrt(n + 1).
    _check_against_mpmath(route, SWEEP, cfg, 1e-12)


@pytest.mark.parametrize("route", (catalan_malmsten, catalan_binet))
def test_half_line_rows_honest_against_mpmath_at_every_n(route, cfg):
    # The map depends on n through the kernel's scale 8/(n + 1/2), so
    # every n of the sweep gets nodes of its own.
    _check_against_mpmath(route, SWEEP, cfg, 1e-12)


# Four per decade from 10 to 1e6, among them 31,623 and 100,000.  The
# kernels vary on a scale of 1/n near t = 0, so any small-t shortcut at a
# fixed cutoff shows here first.
LARGE_NS = [round(10 ** (k / 4)) for k in range(4, 25)]


def test_gamma_rows_honest_against_mpmath(cfg):
    # The bar is the Stirling truncation plus the rounding of every term
    # the route adds up; at n = 1e6 the error is about 7e-10.
    def gamma(n, _cfg):
        return catalan_gamma_closed_form(n)

    _check_against_mpmath(gamma, range(2001), cfg, 1e-11)
    _check_against_mpmath(gamma, LARGE_NS, cfg, 1e-8)


def test_gamma_route_within_its_bar_and_ulps_of_mpmath():
    # Four per decade from 1 to MAX_INDEX = 1e8.  The route's estimate is
    # called directly, so no sieve runs; the bar must hold outright, and
    # from n = 1000 on, where the theta bounds are far below an ulp, the
    # error stays within 2 ulp of ln C_n and the bar within 10.
    with mp.workdps(40):
        for n in (round(10 ** (k / 4)) for k in range(33)):
            ln_value, bar, evaluations, converged = representations._gamma_closed_form(
                n, QuadConfig()
            )
            exact = mp.loggamma(2 * n + 1) - mp.loggamma(n + 1) - mp.loggamma(n + 2)
            err = float(abs(mp.mpf(ln_value) - exact))
            assert converged and evaluations == 0
            assert err <= bar, (n, err, bar)
            if n >= 1000:
                ulp = math.ulp(float(exact))
                assert err <= 2.0 * ulp and bar <= 10.0 * ulp, (n, err / ulp, bar / ulp)


@pytest.mark.parametrize("route", (catalan_malmsten, catalan_binet, *PENSON_ROUTES))
def test_large_n_rows_honest_against_mpmath(route, cfg):
    # Past a few thousand, one ulp of ln C_n is above the quadrature's
    # own estimate: the rounding bound of the assembly keeps the row
    # honest.  The Mellin integrand peaks over a width of 1/sqrt(n + 1),
    # which one first panel over s = u/(1 - u) misses: before that width
    # went into the map it read converged rows off by tens in ln C_n at
    # n = 1e6.
    assert 31_623 in LARGE_NS and 100_000 in LARGE_NS
    _check_against_mpmath(route, LARGE_NS, cfg, 1e-8)


def test_malmsten_at_tightest_tolerance_returns_a_row():
    # At abs_tol = rel_tol = 1e-15 the quadrature samples close to t = 0
    # and stops at the float floor; the kernel must stay finite there,
    # and the row accurate.
    tight = QuadConfig(abs_tol=1e-15, rel_tol=1e-15)
    for n in (0, 1, 5):
        row = catalan_malmsten(n, tight)
        assert math.isfinite(row.ln_value), n
        assert row.abs_err_ln <= 1e-12, n


def test_malmsten_converges_at_1e_14():
    # With the n-free term in closed form the kernel decays from t = 0 at
    # its own rate, and every row of this sweep converges, honestly; the
    # unsplit kernel spent 1,744,245 evaluations here and left 28 of the
    # 29 rows unconverged, and a finite pass at half the tolerances
    # spent 63,870.
    tight = QuadConfig(abs_tol=1e-14, rel_tol=1e-14)
    rows = [catalan_malmsten(n, tight) for n in range(0, 197, 7)]
    assert all(row.converged for row in rows)
    assert all(row.abs_err_ln <= 10.0 * row.quad_error_estimate for row in rows)
    assert sum(row.evaluations for row in rows) <= 5_000


@pytest.mark.parametrize("route", (catalan_malmsten, catalan_binet))
def test_half_line_rows_converge_without_an_absolute_target(route):
    # With abs_tol = 0 the target is relative alone, and the mass the
    # map folds away, (K/c) 2^-424, must vanish next to it.
    relative = QuadConfig(abs_tol=0.0)
    for n in (*range(60), 1_000, 100_000):
        row = route(n, relative)
        assert row.converged, n
        assert row.abs_err_ln <= 10.0 * row.quad_error_estimate, n


@pytest.mark.parametrize(
    "route, config",
    [
        (catalan_malmsten, QuadConfig(abs_tol=5e-324, rel_tol=0.0)),
        (catalan_binet, QuadConfig(abs_tol=0.0, rel_tol=5e-324)),
    ],
    ids=["malmsten-abs", "binet-rel"],
)
def test_half_line_rows_at_the_least_tolerance_are_unconverged(route, config):
    # Every valid config gives a row, even one whose only positive
    # tolerance is the least subnormal, which no halving may turn into 0.
    for n in (0, 1, 5):
        row = route(n, config)
        assert not row.converged, n
        assert row.abs_err_ln <= 1e-11, n


@pytest.mark.parametrize("route", PENSON_ROUTES)
def test_penson_at_tightest_tolerance_returns_a_row(route):
    # Below the float floor the driver stops short of the target, and
    # what it returns stays a finite, accurate row.
    tight = QuadConfig(abs_tol=1e-15, rel_tol=1e-15)
    for n in (0, 1, 5):
        row = route(n, tight)
        assert math.isfinite(row.ln_value), n
        assert row.abs_err_ln <= 1e-12, n


@pytest.mark.parametrize(
    "route, driver",
    [
        (catalan_malmsten, "integrate_half_line"),
        (catalan_binet, "integrate_half_line"),
        (catalan_penson_mellin, "integrate_finite"),
    ],
    ids=["malmsten", "binet", "mellin"],
)
def test_adaptive_rows_stop_at_the_float_floor(route, driver, monkeypatch):
    # At abs_tol = rel_tol = 1e-15 the n = 0 rows cannot meet the target:
    # their panels sit at the 50 eps resabs floors that no bisection
    # lowers.  Each such row used to spend the whole budget, about 60,000
    # evaluations; the driver now stops at the floor, unconverged.
    tight = QuadConfig(abs_tol=1e-15, rel_tol=1e-15)
    integrate = getattr(representations, driver)
    results = []

    def capture(*args, **kwargs):
        results.append(integrate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(representations, driver, capture)
    for n in (0, 1, 5):
        row = route(n, tight)
        qr = results[-1]
        assert row.evaluations == qr.evaluations <= 5_000, n
        assert row.abs_err_ln <= 1e-12, n
        missed = qr.error_estimate > tight.tolerance_for(qr.value)
        assert row.converged == qr.converged == (not missed), n
    assert not route(0, tight).converged


def test_penson_mellin_integrand_is_finite_at_both_ends(cfg, monkeypatch):
    # s = w u/(1 - u) sends the ends of (0, 1) to s = 0 and s = inf; the
    # closest samples the driver can take, the least subnormal and the
    # last double below 1, must give finite values.
    # The integrand is the one the route hands integrate_finite.
    integrands = []
    integrate = representations.integrate_finite

    def capture(f, *args, **kwargs):
        integrands.append(f)
        return integrate(f, *args, **kwargs)

    monkeypatch.setattr(representations, "integrate_finite", capture)
    for n in (0, 1, 1_000_000):
        catalan_penson_mellin(n, cfg)
        for u in (5e-324, 1.0 - 2.0**-53):
            assert math.isfinite(integrands[-1](u)), (n, u)


# Summed integrand evaluations over n = 0..200 at the default config;
# before the substitutions removed the endpoint singularities they were
# 306,885 (moment) and 153,930 (Mellin), before the integrands were
# seeded at their scale 1/sqrt(n + 1) they were 31,515 and 35,220,
# before the Mellin integral was mapped onto (0, 1) instead of split at
# s = 1 with its far piece inverted, 33,165 (Mellin), before the
# moment integral took the trapezoid rule, 27,405 (moment), and before
# the Mellin map s = w u/(1 - u) put the peak width w = 1/sqrt(n + 1)
# in place of the seeded scale, 32,190 (Mellin), and before the G10/K21
# rule started from the thirds of (0, 1), in place of G7/K15 from the
# one panel, 27,315 (Mellin).  The moment rule took 5,562 before it
# stopped at its Gaussian window and 3,518 since; the window tests pin
# its count.
@pytest.mark.parametrize(
    "route, budget", [(catalan_penson_moment, 6_000), (catalan_penson_mellin, 12_700)]
)
def test_penson_evaluation_budget(route, budget, cfg):
    total = sum(route(n, cfg).evaluations for n in SWEEP)
    assert total <= budget


# ------------------------------------- the moment route's trapezoid rule

# Eight per decade from 1 to MAX_INDEX = 1e8.
LOG_SPACED_N = tuple(round(10 ** (k / 8)) for k in range(65))


def test_moment_points_match_the_stepping_search():
    # The closed form takes the odd count at or just above the least m
    # the old search stepped to, so it costs the same m // 2 samples,
    # and its aliasing bound is no larger: the multiples of a larger M
    # are fewer and each lies further out.  Where the target underflows
    # the two may part, and every row there is unconverged either way.
    def check(n, config):
        k, aliasing = representations._moment_points(n, config)
        m, searched = moment_points_search(n, config)
        assert 2 * k + 1 == m | 1, (n, config)
        assert aliasing <= searched, (n, config)

    defaults = (QuadConfig(), QuadConfig(1e-14, 1e-14), QuadConfig(1e-6, 1e-6))
    for n in (*range(3001), *LOG_SPACED_N):
        for config in defaults:
            check(n, config)
    # The audit's configs, at its n and at the log-spaced n, wherever the
    # aliasing's share of the target is a normal double.
    for drawn, config in _draws():
        tol = representations._moment_tolerance(config)
        share = max(tol - 64.0 * representations._EPS, 0.5 * tol)
        for n in (drawn, *LOG_SPACED_N):
            if share * representations._moment_floor(n) >= _UFLOW:
                check(n, config)


def test_moment_rule_never_samples_where_sin_rounds_to_one():
    # Within about 1.05e-8 of pi/2, sin(phi) is 1.0 and log1p(-1) raises.
    # The rule is odd, so its node nearest pi/2 lies pi/(2M) below it,
    # and M stays far below the 1.49e8 that would put it that close.  The
    # largest M comes at the largest n, with a target below the least
    # normal double and a budget that does not cap it.
    widest = QuadConfig(abs_tol=5e-324, rel_tol=0.0, max_subdivisions=10**6)
    top = representations._moment_points(MAX_INDEX, widest)[0]
    assert 2 * top + 1 == 266_375
    configs = (QuadConfig(), QuadConfig(1e-14, 1e-14), QuadConfig(max_subdivisions=10**6))
    for n in (*range(101), *LOG_SPACED_N):
        for config in (*configs, widest):
            assert representations._moment_points(n, config)[0] <= top, (n, config)
    # Every odd M up to it, at the node k fl(pi/M) the rule computes.
    for k in range(1, top + 1):
        assert math.sin(k * (math.pi / (2 * k + 1))) < 1.0, k
    assert math.isfinite(catalan_penson_moment(MAX_INDEX, widest).ln_value)


def _moment_integral(n):
    # J = pi C_n / 4^(n + 1), in the working precision of mpmath.
    return mp.pi * mp.binomial(2 * n, n) / ((n + 1) * mp.mpf(4) ** (n + 1))


def test_moment_rule_is_exact_at_n_plus_2_points():
    # sin^2 cos^(2n) is a trigonometric polynomial of degree n + 1 in
    # e^(2 i phi), so n + 2 points alias nothing: what is left is rounding,
    # within the rule's own bound.  The least odd M >= n + 2 is
    # 2k + 1 with k = (n + 2) // 2.
    with mp.workdps(40):
        for n in range(31):
            k = (n + 2) // 2
            value, rounding = representations._moment_rule(n, k, k)
            assert abs(mp.mpf(value) - _moment_integral(n)) <= rounding, n
            assert rounding <= 1e-14 * value, n


def test_moment_samples_are_within_their_rounding_bound(cfg):
    # Each sample against sin^2 cos^(2n) at the exact node j/m of a half
    # turn; the slack covers mpmath's rounding and samples that underflow.
    with mp.workdps(40):
        for n in (0, 1, 2, 10, 1_000, 1_000_000):
            k = representations._moment_points(n, cfg)[0]
            for points in (2 * k + 1, 2 * k + 3):
                h = math.pi / points
                samples = representations._moment_samples(n, h, points // 2)
                for j, (value, bound) in enumerate(zip(*samples), 1):
                    x = mp.mpf(j) / points
                    exact = mp.sinpi(x) ** 2 * mp.cospi(x) ** (2 * n)
                    err = abs(mp.mpf(value) - exact)
                    assert err <= bound + 1e-36 * exact + 1e-300, (n, points, j)


def _aliasing_share(tol, n):
    """The share of the target on J that the choice of M leaves to the
    aliasing, for a capped target ``tol`` above 128 eps."""
    return (tol - 64.0 * representations._EPS) * representations._moment_floor(n)


@pytest.mark.parametrize("n", [10, 100, 10_000, 1_000_000])
def test_moment_aliasing_bound_covers_the_true_error(n):
    # The m-point trapezoid sum over every node of [0, pi), none folded
    # by symmetry, against J; the slack covers mpmath's own rounding.
    with mp.workdps(40):
        exact = _moment_integral(n)
        for rel_tol in (1e-2, 1e-5, 1e-8):
            config = QuadConfig(abs_tol=0.0, rel_tol=rel_tol)
            k, aliasing = representations._moment_points(n, config)
            assert aliasing <= _aliasing_share(rel_tol, n), (n, rel_tol)
            m = 2 * k + 1
            nodes = (j * mp.pi / m for j in range(m))
            half_sum = mp.pi / (2 * m) * mp.fsum(
                mp.sin(phi) ** 2 * mp.cos(phi) ** (2 * n) for phi in nodes
            )
            assert abs(half_sum - exact) <= aliasing + 1e-35 * exact, (n, rel_tol)


def test_moment_route_reports_a_starved_budget(cfg):
    # One subdivision buys the adaptive driver 63 evaluations, so the
    # rule sums at most 63 samples.  At a target near 1e-300, M at
    # n = 10^4 is 2,661 points, and the window there needs 90 samples;
    # cut at 63, it reports the bound on the samples past the cut.
    starved = QuadConfig(abs_tol=1e-300, rel_tol=0.0, max_subdivisions=1)
    row = catalan_penson_moment(10_000, starved)
    assert not row.converged
    assert row.evaluations == 63
    window = _moment_bounds(10_000, starved)[3]
    assert row.quad_error_estimate >= window / representations._moment_floor(10_000) > 1e-7
    with mp.workdps(40):
        exact = mp.loggamma(20_001) - mp.loggamma(10_001) - mp.loggamma(10_002)
        assert float(abs(mp.mpf(row.ln_value) - exact)) <= row.quad_error_estimate
    unstarved = catalan_penson_moment(10_000, QuadConfig(abs_tol=1e-300, rel_tol=0.0))
    assert unstarved.evaluations == 90
    assert unstarved.quad_error_estimate < row.quad_error_estimate


def test_moment_route_at_a_tolerance_above_one():
    # The target is capped at a relative 1/2, which keeps the sum positive.
    loose = QuadConfig(abs_tol=10.0)
    for n in (0, 1, 2, 100, 1_000_000):
        k, aliasing = representations._moment_points(n, loose)
        assert k >= 1 and aliasing <= _aliasing_share(0.5, n), n
        row = catalan_penson_moment(n, loose)
        assert row.converged and math.isfinite(row.ln_value), n
        assert row.abs_err_ln <= row.quad_error_estimate, n


def _moment_bounds(n, config):
    """(samples, aliasing, rounding, window): the parts of the moment
    route's bar on J, recomputed from its helpers."""
    k, aliasing = representations._moment_points(n, config)
    floor = representations._moment_floor(n)
    budget = 21 * (1 + 2 * config.max_subdivisions)
    j0, window = representations._moment_window(n, k, 0.25 * _U * floor, budget)
    return j0, aliasing, representations._moment_rule(n, k, j0)[1], window


@pytest.mark.parametrize("tol", [1e-13, 1e-14])
def test_moment_route_converged_only_when_its_whole_bar_meets_the_target(tol):
    # Converged must mean that the aliasing, rounding and window bounds
    # together meet the target.  Judged on the aliasing bound alone, 14
    # of these rows claimed convergence past it at 1e-13, and 139 at
    # 1e-14.  At 1e-13 the share of the target that the choice of M
    # leaves for the rounding lets every row meet it; at 1e-14 it cannot.
    config = QuadConfig(abs_tol=tol, rel_tol=tol)
    unconverged = 0
    for n in [*range(201), 1_000, 10_000, 100_000]:
        row = catalan_penson_moment(n, config)
        j0, aliasing, rounding, window = _moment_bounds(n, config)
        whole = (aliasing + rounding + window) / representations._moment_floor(n)
        assert row.converged == (whole <= tol), n
        assert row.evaluations == j0, n
        unconverged += not row.converged
    assert unconverged == (0 if tol == 1e-13 else 29)


# The n of the window checks: below the window (n = 1, 10), at the top
# of the sweep, and three that the window cuts to a few dozen samples.
WINDOW_NS = (1, 10, 200, 10_000, 1_000_000, 100_000_000)
WINDOW_CONFIGS = (QuadConfig(), QuadConfig(1e-14, 1e-14))


@pytest.mark.parametrize("config", WINDOW_CONFIGS, ids=["default", "1e-14"])
def test_moment_window_covers_the_omitted_samples(config):
    # The samples past j0 against 40-digit sin^2 cos^(2n) at the exact
    # nodes j pi/M.  Past the peak at tan^2 = 1/n the samples fall, so
    # once one is below 1e-60 of the running sum, the k - j samples left
    # weigh at most k - j times it; that upper estimate must lie within
    # the bound.
    with mp.workdps(40):
        for n in WINDOW_NS:
            k = representations._moment_points(n, config)[0]
            j0, window = _moment_bounds(n, config)[::3]
            m = 2 * k + 1
            omitted = mp.mpf(0)
            for j in range(j0 + 1, k + 1):
                x = mp.mpf(j) / m
                term = mp.sinpi(x) ** 2 * mp.cospi(x) ** (2 * n)
                omitted += term
                if term < 1e-60 * omitted:
                    assert n * mp.tan(mp.pi * (j0 + 1) / m) ** 2 >= 1, n
                    omitted += (k - j) * term
                    break
            omitted *= mp.pi / m
            assert (window == 0.0) == (j0 == k), n
            assert omitted <= window, (n, omitted, window)


@pytest.mark.parametrize("n", [10, 200])
def test_moment_window_cut_to_one_sample_covers_the_rest(n):
    # At the window's own j0 the bound exceeds the omitted mass by 10^29
    # or more, so no test there could see a bound that is too small.  Cut
    # to one sample by the budget, the bound is 27.5 (n = 10) and 476
    # (n = 200) times the mass of the samples 2..k, summed in 40 digits.
    config = QuadConfig()
    k = representations._moment_points(n, config)[0]
    target = 0.25 * _U * representations._moment_floor(n)
    j0, window = representations._moment_window(n, k, target, 1)
    assert j0 == 1
    m = 2 * k + 1
    with mp.workdps(40):
        omitted = mp.pi / m * mp.fsum(
            mp.sinpi(mp.mpf(j) / m) ** 2 * mp.cospi(mp.mpf(j) / m) ** (2 * n)
            for j in range(2, k + 1)
        )
    assert omitted <= window, (omitted, window)


def test_moment_window_is_the_least_that_meets_its_share():
    # The closed form and its one check give the least j0 whose bound
    # meets the share: cut one sample earlier by the budget, the bound
    # misses it.
    for n in (*range(1, 3001), *LOG_SPACED_N):
        k = representations._moment_points(n, QuadConfig())[0]
        share = 0.25 * _U * representations._moment_floor(n)
        j0, window = representations._moment_window(n, k, share, k)
        assert window <= share, n
        if j0 < k:
            assert representations._moment_window(n, k, share, j0 - 1)[1] > share, n


@pytest.mark.parametrize("config", WINDOW_CONFIGS, ids=["default", "1e-14"])
def test_windowed_moment_rows_are_within_their_bar(config):
    # The bar is proved, so it holds at 1 x, converged or not.
    with mp.workdps(40):
        for n in WINDOW_NS:
            ln_value, bar, evaluations, converged = representations._penson_moment(n, config)
            exact = mp.loggamma(2 * n + 1) - mp.loggamma(n + 1) - mp.loggamma(n + 2)
            assert abs(mp.mpf(ln_value) - exact) <= bar, n


def test_moment_route_takes_a_few_dozen_samples_at_the_index_limit():
    # Without the window the rule summed all 37,054 samples of its
    # 74,109 points at n = 10^8.
    row = catalan_penson_moment(MAX_INDEX, QuadConfig())
    assert row.converged
    assert row.evaluations <= 32


def test_moment_rule_names_the_first_non_finite_sample(monkeypatch):
    samples = representations._moment_samples

    def poisoned(n, h, j0):
        values, errors = samples(n, h, j0)
        return [math.nan if j * h > 1.0 else v for j, v in enumerate(values, 1)], errors

    monkeypatch.setattr(representations, "_moment_samples", poisoned)
    # Seven points: the nodes in (0, pi/2) are pi/7, 2 pi/7 and 3 pi/7.
    with pytest.raises(IntegrandEvaluationError) as info:
        representations._moment_rule(5, 3, 3)
    assert info.value.abscissa == 3 * (math.pi / 7)


# Summed integrand evaluations at the default config, at most 5% above
# what the map onto (0, 1) takes: 4,263 for each kernel over
# n = 0..200 (one panel a row, and one bisection at n = 0) and 105 for
# Malmsten over the large n.
@pytest.mark.parametrize(
    "route, ns, budget",
    [
        (catalan_malmsten, SWEEP, 4_470),
        (catalan_binet, SWEEP, 4_470),
        (catalan_malmsten, (1_000, 3_162, 10_000, 31_623, 100_000), 110),
    ],
    ids=["malmsten-sweep", "binet-sweep", "malmsten-large-n"],
)
def test_half_line_evaluation_budget(route, ns, budget, cfg):
    total = sum(route(n, cfg).evaluations for n in ns)
    assert total <= budget


def test_sweep_computes_exact_reference_once_per_n(cfg, monkeypatch):
    calls: list[int] = []

    def counting(n):
        calls.append(n)
        return ln_exact(n)

    monkeypatch.setattr(representations, "ln_exact", counting)
    rows = compare_representations(SWEEP[-1], cfg)
    assert calls == list(SWEEP)
    assert all(row.exact_ln == ln_exact(row.n) for row in rows)


def test_sweep_runs_each_route_over_every_n_in_turn(cfg, monkeypatch):
    # The rows are ordered by (n, route), but the sweep evaluates by
    # route: every ln_exact first, then each route over ascending n, in
    # ROUTES order, one estimate per (n, route).  Interleaving the six
    # code paths at every n measured slower (compare_representations).
    calls: list[tuple[str, int]] = []

    def exact(n):
        calls.append(("ln_exact", n))
        return ln_exact(n)

    def recorded(route):
        def estimate(n, config):
            calls.append((route.value, n))
            return route.estimate(n, config)

        return route._replace(estimate=estimate)

    monkeypatch.setattr(representations, "ln_exact", exact)
    monkeypatch.setattr(representations, "ROUTES", tuple(map(recorded, ROUTES)))
    n_max = 6
    rows = compare_representations(n_max, cfg)
    ns = range(n_max + 1)
    assert calls == [("ln_exact", n) for n in ns] + [
        (value, n) for value in ROUTE_VALUES for n in ns
    ]
    assert [(row.n, row.method.value) for row in rows] == [
        (n, value) for n in ns for value in ROUTE_VALUES
    ]


# What operator.index refuses is refused before any work, even when it
# is an integral float.
NON_INTEGERS = (5.0, 2.5, math.nan)


def _refused(n):
    message = f"Catalan index cannot be {n!r}: must be an integer from 0 to {MAX_INDEX}"
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def test_penson_range_guards(cfg):
    for route in PENSON_ROUTES:
        with pytest.raises(ValueError):
            route(-1, cfg)


def test_negative_index_rejected(cfg):
    with pytest.raises(ValueError):
        catalan_malmsten(-1, cfg)
    with pytest.raises(ValueError):
        catalan_gamma_closed_form(-1)
    for n in NON_INTEGERS:
        for route in ROUTES:
            with _refused(n):
                route(n, cfg)
        for kernel in (malmsten_catalan_kernel, binet_catalan_kernel):
            with _refused(n):
                kernel(n)


def test_catalan_exports_are_the_routes():
    # One table: each public catalan_* name is its ROUTES entry, in
    # report row order.
    exports = [
        getattr(catalan_integrals, f"catalan_{value}") for value in ROUTE_VALUES
    ]
    assert len(exports) == len(ROUTES)
    assert all(export is route for export, route in zip(exports, ROUTES))
    assert [route.value for route in ROUTES] == list(ROUTE_VALUES)


def test_route_call_is_the_sweep_row(cfg):
    rows = compare_representations(200, cfg)
    for n in (0, 7, 200):
        for route in ROUTES:
            (row,) = [r for r in rows if r.n == n and r.method is route]
            assert route(n, cfg) == row, (n, route.name)


def test_gamma_route_needs_no_config():
    assert catalan_gamma_closed_form(7) == catalan_gamma_closed_form(7, QuadConfig())
    assert catalan_gamma_closed_form(7).ln_value == pytest.approx(math.log(429.0))


# --------------------------------------------------------------- sweep


def test_sweep_structure_and_accuracy(cfg):
    rows = compare_representations(5, cfg)
    assert len(rows) == 30  # six indices, five methods
    # Rows arrive sorted by n, with routes in ROUTES order.
    expected_keys = [(n, route) for n in range(6) for route in ROUTES]
    assert [(r.n, r.method) for r in rows] == expected_keys
    for row in rows:
        assert row.converged, (row.n, row.method)
        assert row.abs_err_ln <= 1e-9, (row.n, row.method)


def test_sweep_single_index(cfg):
    rows = compare_representations(0, cfg)
    assert len(rows) == 5
    assert all(row.n == 0 for row in rows)
    assert all(row.abs_err_ln <= 1e-9 for row in rows)


def test_row_error_fields_are_consistent(cfg):
    for row in compare_representations(3, cfg):
        assert row.exact_ln == ln_exact(row.n)
        assert row.abs_err_ln == abs(row.ln_value - row.exact_ln)


def test_converged_rows_meet_error_contract(cfg):
    # Converged rows must satisfy
    # abs_err_ln <= max(1e-9, 50 * quad_error_estimate).
    for row in compare_representations(8, cfg):
        if row.converged:
            bound = max(1e-9, 50.0 * row.quad_error_estimate)
            assert row.abs_err_ln <= bound, (row.n, row.method)


def test_routes_agree_pairwise(cfg):
    # Any two converged routes agree with each other, not only with the
    # exact value.
    rows = compare_representations(6, cfg)
    by_n: dict[int, list[RepresentationResult]] = {}
    for row in rows:
        by_n.setdefault(row.n, []).append(row)
    for n, group in by_n.items():
        values = [row.ln_value for row in group if row.converged]
        assert max(values) - min(values) <= 2e-8, n


def test_ln_catalan_is_strictly_increasing_from_one(cfg):
    # C_0 = C_1 = 1, then the sequence grows strictly.
    rows = compare_representations(8, cfg)
    for route in ROUTES:
        seq = [row.ln_value for row in rows if row.method is route]
        for n in range(1, len(seq) - 1):
            assert seq[n + 1] > seq[n], (route, n)


def test_prefactor_identity():
    # The quad-free part of the Binet route collapses the Stirling main
    # terms: 3/2 + n ln(n + 1/2) - (n + 3/2) ln(n + 2) equals
    # S(n + 1/2) - S(n + 2) - ln((n + 1/2)/(n + 2)) exactly, with
    # S(x) = x ln x - x + (1/2) ln(2 pi x).
    def stirling_main(x: float) -> float:
        return x * math.log(x) - x + 0.5 * math.log(2.0 * math.pi * x)

    for n in (1, 5, 20):
        a = n + 0.5
        b = n + 2.0
        collapsed = 1.5 + n * math.log(a) - (n + 1.5) * math.log(b)
        expanded = stirling_main(a) - stirling_main(b) - math.log(a / b)
        assert abs(collapsed - expanded) <= 1e-10, n


def test_failure_rows_are_recorded_not_raised():
    # A strangled configuration produces non-converged rows; the sweep
    # must still return the full grid without raising.
    starved = QuadConfig(abs_tol=0.0, rel_tol=1e-16, max_subdivisions=1)
    rows = compare_representations(1, starved)
    assert len(rows) == 10
    assert any(not row.converged for row in rows)
    # The closed-form route needs no quadrature, so it still converges.
    for row in rows:
        if row.method is catalan_gamma_closed_form:
            assert row.converged


def test_sweep_rejects_negative(cfg):
    with pytest.raises(ValueError):
        compare_representations(-1, cfg)
    for n in NON_INTEGERS:
        with _refused(n):
            compare_representations(n, cfg)
