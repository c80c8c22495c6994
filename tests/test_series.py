"""Certified sum rules and the Glaisher-Kinkelin extraction."""

import math
from bisect import bisect_left

import mpmath as mp
import numpy as np
import pytest

from oracles import (
    _hyperfactorial_remainder,
    glaisher_oracle,
    sum_rule_limit,
    sum_rule_term,
)
from catalan_integrals.exact import catalan_exact
from catalan_integrals.quadrature import QuadConfig
from catalan_integrals.series import (
    ODD_WEIGHT_TARGET,
    PLAIN_TARGET,
    TERM_BUDGET,
    GlaisherResult,
    _LN_A_ORACLE,
    _ROUNDING,
    _TAIL_CONSTANT,
    _meets,
    _tail_enclosure,
    _term_lower_factor,
    _terms,
    _widening,
    _zeta_bracket,
    glaisher_from_integral,
    series_tail_bound,
    stewart_sum_odd_weight,
    stewart_sum_plain,
)

# Frozen from 25-digit evaluations with exact rational terms.
ODD_TARGET_REF = 1.200421754876141426073599  # 8 sqrt(2) / (3 pi)
PLAIN_TARGET_REF = 1.043977654480579082469279
# What the odd-weighted series actually converges to: the closed form
# 4F3(1/4, 3/4, 1/2, 1/2; 3/2, 3/2, 2; 1), evaluated at 40 digits.
# This is NOT the stated target above; the gap is near 0.188.  See the
# acceptance suite for the consequence.
ODD_SERIES_LIMIT = 1.012419737804257542935
LN_A_REF = 0.2487544770337842625473  # ln of the Glaisher-Kinkelin constant
GLAISHER_INTEGRAL_REF = -0.04285374065029094455662  # integral on [0, 1/2]


# --------------------------------------------------------------- terms


def test_targets_match_frozen_references():
    assert abs(ODD_WEIGHT_TARGET - ODD_TARGET_REF) <= 1e-15
    assert abs(PLAIN_TARGET - PLAIN_TARGET_REF) <= 1e-15


def test_first_terms():
    # C_0 C_0 / 64^0 = 1; C_2 C_1 / 64 = 2/64 = 1/32; odd weight divides
    # by 2n + 1, so the n = 1 term becomes 1/96.
    assert sum_rule_term(0) == 1.0
    assert sum_rule_term(0, odd_weight=True) == 1.0
    assert abs(sum_rule_term(1) - 1.0 / 32.0) <= 1e-16
    assert abs(sum_rule_term(1, odd_weight=True) - 1.0 / 96.0) <= 1e-16
    # C_4 C_2 / 64^2 = 28/4096 = 7/1024.
    assert abs(sum_rule_term(2) - 7.0 / 1024.0) <= 1e-16


def _streamed_term_bound(n: int, direct: float) -> float:
    # The streamed term(n) is within a relative gamma_{2n+1} of the true
    # term (the series docstring proves it), and sum_rule_term, from the
    # exact integers, within 4 ulp of it (test_term_within_4_ulp_of_mpmath).
    k = (2 * n + 1) * 2.0**-53
    return k / (1.0 - k) * direct + 4.0 * math.ulp(direct)


# The odd weight is one division after the plain stream, so it needs a
# shorter (and cheaper) run of the exact-integer oracle.
@pytest.mark.parametrize("odd_weight, n_max", [(False, 3000), (True, 300)])
def test_streamed_terms_within_their_rounding_bound(odd_weight, n_max):
    for n, term in enumerate(_terms(n_max, odd_weight)):
        direct = sum_rule_term(n, odd_weight=odd_weight)
        assert abs(term - direct) <= _streamed_term_bound(n, direct), n


@pytest.mark.parametrize("odd_weight", [False, True])
def test_last_budget_term_within_its_rounding_bound(odd_weight):
    n = TERM_BUDGET - 1
    *_, term = _terms(TERM_BUDGET, odd_weight)
    direct = sum_rule_term(n, odd_weight=odd_weight)
    assert abs(term - direct) <= _streamed_term_bound(n, direct)


def test_term_budget_keeps_the_ratio_exact_in_doubles():
    # _terms holds n as a double; its ratio's factors and partial
    # products are integers, exact in doubles while below 2^53.  The
    # last ratio the stream forms is at n = TERM_BUDGET - 1.
    n = TERM_BUDGET - 1
    assert (4 * n + 1) * (4 * n + 3) * (2 * n + 1) < 2**53
    assert 16 * (n + 1) * (2 * n + 3) * (n + 2) < 2**53


def _int_ratio_terms(n_stop: int, odd_weight: bool):
    # The stream with the ratio in exact ints, whose int / int rounds once.
    term = 1.0
    for n in range(n_stop):
        yield term / (2 * n + 1) if odd_weight else term
        term *= (4 * n + 1) * (4 * n + 3) * (2 * n + 1) / (
            16 * (n + 1) * (2 * n + 3) * (n + 2)
        )


@pytest.mark.parametrize("odd_weight", [False, True])
def test_streamed_terms_equal_the_exact_int_ratio_stream(odd_weight):
    streamed = list(_terms(TERM_BUDGET, odd_weight))
    assert streamed == list(_int_ratio_terms(TERM_BUDGET, odd_weight))
    assert len(streamed) == TERM_BUDGET


@pytest.mark.parametrize("n", [100, 1000, 20_000])
@pytest.mark.parametrize("odd_weight", [False, True])
def test_term_within_4_ulp_of_mpmath(n, odd_weight):
    # The reference takes the same exact integers, so it tests only the
    # float assembly, which must not lose accuracy as n grows.
    c_2n, c_n = catalan_exact(2 * n), catalan_exact(n)
    with mp.workdps(40):
        ref = mp.mpf(c_2n) * mp.mpf(c_n) / mp.mpf(64) ** n
        if odd_weight:
            ref /= 2 * n + 1
        ref = float(ref)
    term = sum_rule_term(n, odd_weight=odd_weight)
    assert abs(term - ref) <= 4 * math.ulp(ref), (term - ref) / math.ulp(ref)


def test_term_rejects_negative():
    with pytest.raises(ValueError):
        sum_rule_term(-1)


def test_tail_bound_positive_and_decreasing():
    previous = math.inf
    for n_start in (4, 5, 10, 100, 1000):
        bound = series_tail_bound(n_start)
        assert 0.0 < bound < previous
        previous = bound


def test_tail_bound_odd_weight_divides():
    # The odd weight divides term(n) by 2n + 1 > 2N, and its enclosure is
    # narrower than the plain one by more than a factor N (about 2.4 N).
    for n_start in (4, 50, 1000):
        plain = series_tail_bound(n_start)
        odd = series_tail_bound(n_start, odd_weight=True)
        assert 0.0 < odd < plain / n_start


def test_tail_bound_domain():
    with pytest.raises(ValueError):
        series_tail_bound(3)


def _brute_tail(n_start: int, n_stop: int, odd_weight: bool) -> float:
    # Independent reimplementation: the term ratio
    # term(n+1)/term(n) = [2(4n+1)/(2n+2)] [2(4n+3)/(2n+3)] [2(2n+1)/(n+2)] / 64
    # follows from the ratio recurrences of C_{2n} and C_n; sum it with a
    # cumulative product in blocks.
    total = 0.0
    t0 = sum_rule_term(n_start, odd_weight=odd_weight)
    block_start = n_start
    while block_start < n_stop:
        block = min(200_000, n_stop - block_start)
        n = np.arange(block_start, block_start + block, dtype=np.float64)
        ratio = (
            (2.0 * (4.0 * n + 1.0) / (2.0 * n + 2.0))
            * (2.0 * (4.0 * n + 3.0) / (2.0 * n + 3.0))
            * (2.0 * (2.0 * n + 1.0) / (n + 2.0))
            / 64.0
        )
        if odd_weight:
            ratio *= (2.0 * n + 1.0) / (2.0 * n + 3.0)
        terms = t0 * np.concatenate(([1.0], np.cumprod(ratio[:-1])))
        total += float(np.sum(terms))
        t0 = float(terms[-1] * ratio[-1])
        block_start += block
    return total


@pytest.mark.parametrize("n_start", [10, 100, 1000])
@pytest.mark.parametrize("odd_weight", [False, True])
def test_tail_bound_dominates_brute_force(n_start, odd_weight):
    # The brute-force sum stops at 10^6; what it leaves out is below
    # L / (2 (10^6 - 1)^2) by the integral comparison for L n^-3.
    brute = _brute_tail(n_start, 1_000_000, odd_weight)
    left_out = _TAIL_CONSTANT / (2.0 * (1_000_000 - 1) ** 2)
    lo, hi = _tail_enclosure(n_start, odd_weight)
    assert lo <= brute + left_out
    assert brute <= hi
    assert hi - lo == series_tail_bound(n_start, odd_weight=odd_weight)
    # The enclosure is tight: its width is about 1.9 / N (plain) or
    # 2.4 / N (odd weight) of the tail itself.
    assert hi - lo <= 3.0 * brute / n_start


@pytest.mark.parametrize("n_start", [10_000, 100_000])
def test_tail_bound_asymptote(n_start):
    # width(N) N^3 -> 15 L / 16 = 0.1055..., from L - g(N) ~ 15 L / (8 N)
    # and zeta(3, N) ~ 1 / (2 N^2).
    limit = 15.0 / (16.0 * math.pi * 2.0**1.5)
    scaled = series_tail_bound(n_start) * n_start**3
    assert abs(scaled - limit) <= 1e-3 * limit


def test_term_bounds_from_exact_integers():
    # g(n) / n^3 <= term(n) <= L / n^3, with term(n) from exact integers
    # at 40 digits.  C_0..C_4000 come from their own ratio recurrence
    # C_{m+1} = C_m 2 (2m + 1) / (m + 2), not from the package.
    catalan = [1]
    for m in range(4000):
        catalan.append(catalan[m] * 2 * (2 * m + 1) // (m + 2))
    with mp.workdps(40):
        for n in range(1, 2001):
            term = mp.ldexp(catalan[2 * n] * catalan[n], -6 * n)
            cube = mp.mpf(n) ** 3
            assert mp.mpf(_term_lower_factor(n)) / cube <= term, n
            assert term <= mp.mpf(_TAIL_CONSTANT) / cube, n


@pytest.mark.parametrize("s", [3, 4])
@pytest.mark.parametrize("n_start", [4, 10, 10**3, 10**6])
def test_zeta_bracket_contains_hurwitz_zeta(s, n_start):
    lo, hi = _zeta_bracket(s, n_start)
    with mp.workdps(40):
        exact = mp.zeta(s, n_start)
        assert lo * (1.0 - _ROUNDING) <= exact <= hi * (1.0 + _ROUNDING)
        if n_start <= 10:
            # Here the bracket is far wider than rounding, so its two
            # ends are seen to lie on the right sides.
            assert lo < exact < hi


@pytest.mark.parametrize("odd_weight", [False, True])
def test_tail_width_strictly_decreasing(odd_weight):
    # The search for N in _sum_rule relies on this.
    previous = math.inf
    for n_start in range(4, max(10**5, TERM_BUDGET) + 1):
        width = series_tail_bound(n_start, odd_weight=odd_weight)
        assert 0.0 < width < previous, n_start
        previous = width


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-13, 1e-30])
@pytest.mark.parametrize("odd_weight", [False, True])
def test_sum_interval_contains_mpmath_limit(tol, odd_weight):
    # No slack: the interval counts the rounding of its own partial sum.
    # At 1e-30 the term budget runs out and the tail enclosure is at its
    # narrowest; the odd-weight limit then lies 0.36 u (u = 2^-53) below
    # the rounded sum of the terms and the tail's lower end, and only the
    # widening for rounding keeps it inside.
    rule = stewart_sum_odd_weight if odd_weight else stewart_sum_plain
    result = rule(tol)
    assert result.converged == (tol > 1e-14)
    limit = sum_rule_limit(odd_weight)
    with mp.workdps(40):
        low = mp.mpf(result.partial_sum)
        assert low <= limit <= low + mp.mpf(result.tail_bound)


# ----------------------------------------------------------- sum rules


def test_plain_sum_certifies_target():
    result = stewart_sum_plain(tol=1e-6)
    assert result.tail_bound <= 1e-6
    assert result.abs_err <= 2e-6
    assert result.target == PLAIN_TARGET
    # Interval containment: all terms are positive, so the truth lies in
    # [partial, partial + bound]; certified sits at the midpoint.
    assert result.partial_sum <= PLAIN_TARGET <= result.partial_sum + result.tail_bound
    midpoint_gap = result.certified_value - result.partial_sum - 0.5 * result.tail_bound
    assert abs(midpoint_gap) <= 1e-15
    assert result.terms_used < 2000


@pytest.mark.parametrize("checkpoint", [10, 100, 1000])
def test_plain_checkpoints_bracket_target(checkpoint):
    partial = math.fsum(sum_rule_term(n) for n in range(checkpoint))
    lo, hi = _tail_enclosure(checkpoint, odd_weight=False)
    assert partial + lo <= PLAIN_TARGET <= partial + hi


@pytest.mark.parametrize("checkpoint", [10, 100, 1000])
def test_odd_checkpoints_bracket_the_series_limit(checkpoint):
    # The summation machinery is sound: every checkpoint interval
    # contains the series' true limit.  (The stated closed-form target
    # lies outside these intervals; that discrepancy is the subject of
    # the failing acceptance criterion, not a machinery defect.)
    partial = math.fsum(sum_rule_term(n, odd_weight=True) for n in range(checkpoint))
    lo, hi = _tail_enclosure(checkpoint, odd_weight=True)
    assert partial + lo <= ODD_SERIES_LIMIT <= partial + hi


def test_odd_sum_converges_to_series_limit():
    result = stewart_sum_odd_weight(tol=1e-8)
    assert result.tail_bound <= 1e-8
    assert abs(result.certified_value - ODD_SERIES_LIMIT) <= 2e-8
    assert result.target == ODD_WEIGHT_TARGET


def test_odd_sum_reports_target_miss():
    # The certified value is honest about missing the stated target.
    result = stewart_sum_odd_weight(tol=1e-6)
    assert 0.187 < result.abs_err < 0.189
    assert result.abs_err > result.tail_bound + 1e-6


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-10])
@pytest.mark.parametrize("odd_weight", [False, True])
def test_sum_stops_at_first_n_whose_bound_meets_tol(tol, odd_weight):
    rule = stewart_sum_odd_weight if odd_weight else stewart_sum_plain
    result = rule(tol)
    assert result.converged
    n = result.terms_used
    assert series_tail_bound(n, odd_weight=odd_weight) <= tol
    assert n == 4 or series_tail_bound(n - 1, odd_weight=odd_weight) > tol


# 2,048 terms in all: the `series` benchmark workload sums exactly these,
# so its `series.terms` counter moves only when a stopping point does.
@pytest.mark.parametrize(
    "tol, plain, odd", [(1e-6, 48, 15), (1e-8, 220, 46), (1e-9, 473, 82), (1e-10, 1018, 146)]
)
def test_terms_used_at_benchmark_tolerances(tol, plain, odd):
    assert stewart_sum_plain(tol).terms_used == plain
    assert stewart_sum_odd_weight(tol).terms_used == odd


@pytest.mark.parametrize("odd_weight", [False, True])
def test_search_from_the_asymptote_finds_the_bisection_n(odd_weight):
    # The search starts at the width's asymptote and steps; over a grid
    # of tolerances from 1e-2 to 1e-14.75, which crosses the budget, it
    # lands where a bisection over [4, TERM_BUDGET) does.
    rule = stewart_sum_odd_weight if odd_weight else stewart_sum_plain
    for k in range(8, 60):
        tol = 10 ** (-k / 4)
        expected = 4 + bisect_left(
            range(4, TERM_BUDGET), True, key=lambda n: _meets(n, tol, odd_weight)
        )
        assert rule(tol).terms_used == expected, tol


@pytest.mark.parametrize("odd_weight", [False, True])
def test_search_ends_of_the_range(odd_weight):
    rule = stewart_sum_odd_weight if odd_weight else stewart_sum_plain
    # Above the width at N = 4, and at or below 2e, which no N meets.
    assert rule(1.0).terms_used == 4
    assert rule(1e300).converged
    floor = 2.0 * _widening(odd_weight)
    for tol in (floor, floor / 2, 5e-324):
        result = rule(tol)
        assert result.terms_used == TERM_BUDGET
        assert not result.converged


def test_tolerance_validation():
    with pytest.raises(ValueError):
        stewart_sum_plain(tol=0.0)
    with pytest.raises(ValueError):
        stewart_sum_odd_weight(tol=-1e-6)
    with pytest.raises(ValueError):
        stewart_sum_plain(tol=float("nan"))
    # Any partial sum meets an infinite tolerance, so it certifies nothing.
    with pytest.raises(ValueError, match="finite"):
        stewart_sum_plain(math.inf)


def test_budget_exhaustion_carries_partial_result():
    partial = stewart_sum_plain(tol=1e-30)
    assert not partial.converged
    assert partial.terms_used == TERM_BUDGET
    assert partial.tail_bound > 1e-30
    # Even the abandoned run is numerically fine, just uncertifiable at
    # the requested tolerance.
    assert abs(partial.certified_value - PLAIN_TARGET) <= 1e-9


# ------------------------------------------------------------- Glaisher


def test_glaisher_recovery(cfg):
    result = glaisher_from_integral(cfg)
    assert isinstance(result, GlaisherResult)
    assert result.converged
    assert result.error_estimate <= cfg.tolerance_for(result.integral_value)
    assert result.abs_err <= 1e-8
    assert result.integral_value < 0.0
    assert result.ln_A > 0.0
    assert abs(result.ln_A - LN_A_REF) <= 1e-9
    assert abs(result.integral_value - GLAISHER_INTEGRAL_REF) <= 1e-11


def test_glaisher_inversion_round_trip(cfg):
    # ln A = (2/3)(I + 1/2 + (7/24) ln 2 - (1/4) ln pi) inverts to
    # I = (3/2) ln A - 1/2 - (7/24) ln 2 + (1/4) ln pi.
    result = glaisher_from_integral(cfg)
    back = (
        1.5 * result.ln_A
        - 0.5
        - (7.0 / 24.0) * math.log(2.0)
        + 0.25 * math.log(math.pi)
    )
    assert abs(back - result.integral_value) <= 1e-13


def test_glaisher_oracle_self_consistency():
    # The extrapolation is limited by ~1e-16 rounding noise in each
    # summand, amplified a few times by the Richardson weights; 5e-11
    # leaves margin while still pinning ten digits.
    assert abs(glaisher_oracle(500) - glaisher_oracle(1000)) <= 1e-10
    assert abs(glaisher_oracle(1000) - LN_A_REF) <= 5e-11


def test_glaisher_oracle_default_is_accurate():
    # Rounding grows with m, so the default m is small: 6.6e-15 off at
    # m = 100, and the worst over m = 60..140 is 7.1e-13.
    assert abs(glaisher_oracle() - LN_A_REF) <= 1e-12


def test_glaisher_checks_the_correctly_rounded_ln_A():
    # The check is ln A itself, rounded once, so abs_err is the error of
    # the result and stays within ten times the quadrature's estimate.
    with mp.workdps(40):
        assert _LN_A_ORACLE == float(mp.log(mp.glaisher))
    result = glaisher_from_integral(QuadConfig())
    assert result.oracle_ln_A == _LN_A_ORACLE
    assert result.abs_err <= 10 * result.error_estimate


def test_glaisher_oracle_raw_sequence_decreases_toward_limit():
    # The un-extrapolated remainder behaves like ln A + c/m^2 with c > 0:
    # it decreases toward ln A, and doubling m cuts the excess by ~4.
    a1 = _hyperfactorial_remainder(1000)
    a2 = _hyperfactorial_remainder(2000)
    assert a1 > a2 > LN_A_REF
    ratio = (a1 - LN_A_REF) / (a2 - LN_A_REF)
    assert abs(ratio - 4.0) <= 0.2


def test_glaisher_oracle_domain():
    with pytest.raises(ValueError):
        glaisher_oracle(9)


def test_glaisher_propagates_non_convergence():
    # A target of 1e-30 lies below the first panel's 50 eps floor, which
    # no bisection lowers: the driver stops there, unconverged.
    starved = QuadConfig(abs_tol=1e-30, rel_tol=1e-30, max_subdivisions=2)
    result = glaisher_from_integral(starved)
    assert result.converged is False
    assert result.error_estimate > starved.tolerance_for(result.integral_value)
    assert result.evaluations == 21
