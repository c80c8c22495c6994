"""Certified sum rules and the Glaisher-Kinkelin extraction."""

import functools
import math
import re
import sys
from bisect import bisect_left
from fractions import Fraction
from itertools import islice

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
    GlaisherResult,
    _LN_A_ORACLE,
    _ROUNDING,
    _TAIL_CONSTANT,
    _TELESCOPE,
    _tail_enclosure,
    _terms,
    _widening,
    _zeta_upper,
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
# By odd_weight: the least N whose tail width is at most 2e 2^-10, where a
# sum stops when no N meets its tolerance.
FLOOR_N = {False: 364, True: 200}

_TOP = sys.float_info.max


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
    for n, term in enumerate(islice(_terms(odd_weight), n_max)):
        direct = sum_rule_term(n, odd_weight=odd_weight)
        assert abs(term - direct) <= _streamed_term_bound(n, direct), n


@pytest.mark.parametrize("odd_weight", [False, True])
def test_last_budget_term_within_its_rounding_bound(odd_weight):
    # term(N) at the floor N is the last term a sum reads.
    n = FLOOR_N[odd_weight]
    (term,) = islice(_terms(odd_weight), n, n + 1)
    direct = sum_rule_term(n, odd_weight=odd_weight)
    assert abs(term - direct) <= _streamed_term_bound(n, direct)


def test_stream_ratio_exact_in_doubles_to_the_floor_n():
    # _terms holds n as a double; its ratio's factors and partial
    # products are integers, exact in doubles while below 2^53, which
    # holds for n < 65,535 and so at every n a sum reaches.
    for n in (*FLOOR_N.values(), 65_534):
        assert (4 * n + 1) * (4 * n + 3) * (2 * n + 1) < 2**53, n
        assert 16 * (n + 1) * (2 * n + 3) * (n + 2) < 2**53, n
    n = 65_535
    assert 16 * (n + 1) * (2 * n + 3) * (n + 2) >= 2**53


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
    # term(0..N) at the floor N: every term a sum reads.
    n_stop = FLOOR_N[odd_weight] + 1
    streamed = list(islice(_terms(odd_weight), n_stop))
    assert streamed == list(_int_ratio_terms(n_stop, odd_weight))
    assert len(streamed) == n_stop


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
    # The odd weight divides term(n) by 2n + 1 > 2N, so its remainder is
    # bounded through zeta(8, N) where the plain one takes zeta(7, N);
    # with its larger kappa, its width is the plain one's times 4.35/N
    # at N = 4, falling towards 3.95/N.
    for n_start in (4, 50, 1000):
        plain = series_tail_bound(n_start)
        odd = series_tail_bound(n_start, odd_weight=True)
        assert 0.0 < odd < 4.4 * plain / n_start


def _refused(name, value, least, kind="a real number"):
    """The pattern of the package's one refusal, up to the largest float."""
    message = f"{name} cannot be {value!r}: must be {kind} from {least!r} to {_TOP!r}"
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def test_tail_bound_domain():
    with _refused("n_start", 3, 4, "an integer"):
        series_tail_bound(3)


@pytest.mark.parametrize("n_start", [4.5, 4.0, True, "4"])
def test_tail_bound_refuses_a_start_that_is_not_an_int(n_start):
    with _refused("n_start", n_start, 4, "an integer"):
        series_tail_bound(n_start)


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
    term = sum_rule_term(n_start, odd_weight=odd_weight)
    width = series_tail_bound(n_start, odd_weight=odd_weight)
    lo, hi = _tail_enclosure(n_start, term, width, odd_weight)
    assert lo <= brute + left_out
    assert brute <= hi
    # The ends lie w/2 + e from the centre, each rounded once.
    assert abs(hi - lo - (width + 2.0 * _widening(odd_weight))) <= 2.0 * math.ulp(hi)
    # The enclosure is tight: its width is about 0.027 / N^4 (plain) or
    # 0.32 / N^4 (odd weight) of the tail itself.
    assert width <= brute / n_start**4


@pytest.mark.parametrize("n_start", [10_000, 100_000])
def test_tail_bound_asymptote(n_start):
    # width(N) N^p -> 2 kappa M / p, from zeta(p + 1, N) ~ 1 / (p N^p):
    # 2 (0.041) L / 6 = 0.00154 for the plain rule and 2 (0.378) (L / 2)
    # / 7 = 0.00608 for the odd weight.
    tail_constant = 1.0 / (math.pi * 2.0**1.5)
    for odd_weight, limit, p in (
        (False, 2.0 * 0.041 * tail_constant / 6, 6),
        (True, 0.378 * tail_constant / 7, 7),
    ):
        scaled = series_tail_bound(n_start, odd_weight=odd_weight) * n_start**p
        assert abs(scaled - limit) <= 1e-3 * limit, odd_weight


@functools.cache
def _catalan_numbers(m_max: int) -> tuple[int, ...]:
    # C_0..C_{m_max} from their own ratio recurrence
    # C_{m+1} = C_m 2 (2m + 1) / (m + 2), not from the package.
    catalan = [1]
    for m in range(m_max):
        catalan.append(catalan[m] * 2 * (2 * m + 1) // (m + 2))
    return tuple(catalan)


def test_term_bounds_from_exact_integers():
    # term(n) <= L / n^3, with term(n) from exact integers at 40 digits.
    catalan = _catalan_numbers(4000)
    with mp.workdps(40):
        for n in range(1, 2001):
            term = mp.ldexp(catalan[2 * n] * catalan[n], -6 * n)
            assert term <= mp.mpf(_TAIL_CONSTANT) / mp.mpf(n) ** 3, n


# ------------------------------------------------------ telescoped tail
#
# Polynomials in n are tuples of exact coefficients, lowest degree first.


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _poly_add(p, q):
    size = max(len(p), len(q))
    out = [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(size)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_scale(c, p):
    return tuple(c * a for a in p)


def _poly_product(*factors):
    out = (1,)
    for factor in factors:
        out = _poly_mul(out, factor)
    return out


def _poly_shift(p, h):
    """p(n + h), by Horner's rule."""
    out = (0,)
    for a in reversed(p):
        out = _poly_add(_poly_mul(out, (h, 1)), (a,))
    return out


def _poly_at(p, n):
    return sum(a * n**i for i, a in enumerate(p))


# (a, b, c, d) of R(n) and kappa with |D(n)| <= kappa / n^4, as exact
# rationals, by odd_weight.
_EXACT_TELESCOPE = {
    False: (
        (Fraction(1, 2), Fraction(25, 32), Fraction(435, 2048), Fraction(-3699, 32768)),
        Fraction(41, 1000),
    ),
    True: (
        (Fraction(1, 3), Fraction(131, 192), Fraction(1603, 5120), Fraction(-5465, 32768)),
        Fraction(378, 1000),
    ),
}


def _ratio_polys(odd_weight: bool):
    """(P, Q) with term(n + 1) / term(n) = P(n) / Q(n)."""
    p = _poly_product((1, 4), (3, 4), (1, 2))
    q = _poly_scale(16, _poly_product((1, 1), (3, 2), (2, 1)))
    if odd_weight:
        p, q = _poly_mul(p, (1, 2)), _poly_mul(q, (3, 2))
    return p, q


def _defect_polys(odd_weight: bool):
    """(num, den) with D(n) = R(n) - r(n) R(n + 1) - 1 = num(n) / den(n).

    With R(n) = A(n) / n^2, A(n) = a n^3 + b n^2 + c n + d, and
    r = P / Q, den = Q n^2 (n + 1)^2 and
    num = A(n) Q (n + 1)^2 - P A(n + 1) n^2 - Q n^2 (n + 1)^2.
    """
    (a, b, c, d), _ = _EXACT_TELESCOPE[odd_weight]
    big_a = (d, c, b, a)
    p, q = _ratio_polys(odd_weight)
    n_sq, n1_sq = (0, 0, 1), (1, 2, 1)
    subtracted = _poly_mul(
        n_sq, _poly_add(_poly_mul(p, _poly_shift(big_a, 1)), _poly_mul(q, n1_sq))
    )
    num = _poly_add(_poly_product(big_a, q, n1_sq), _poly_scale(-1, subtracted))
    return num, _poly_product(q, n_sq, n1_sq)


@pytest.mark.parametrize("odd_weight", [False, True])
def test_telescope_coefficients_are_the_exact_rationals(odd_weight):
    (coefficients, kappa), (floats, kappa_float, *_) = (
        _EXACT_TELESCOPE[odd_weight], _TELESCOPE[odd_weight]
    )
    assert floats == tuple(map(float, coefficients))
    assert kappa_float == float(kappa)


@pytest.mark.parametrize("odd_weight", [False, True])
def test_defect_certificate(odd_weight):
    # |D(n)| <= kappa / n^4 for every real n >= 4: den > 0 there, and
    # kappa den -+ n^4 num, as polynomials in m = n - 4, have only
    # nonnegative coefficients, so they are nonnegative for m >= 0.
    num, den = _defect_polys(odd_weight)
    _, kappa = _EXACT_TELESCOPE[odd_weight]
    n4_num = _poly_mul((0, 0, 0, 0, 1), num)
    assert all(c >= 0 for c in _poly_shift(den, 4)) and _poly_at(den, 4) > 0
    for sign in (1, -1):
        certificate = _poly_add(_poly_scale(kappa, den), _poly_scale(-sign, n4_num))
        assert all(c >= 0 for c in _poly_shift(certificate, 4)), sign


def test_plain_defect_closed_form():
    # D(n) = 9 (114 n^3 - 51823 n^2 - 90160 n - 39456)
    #        / (524288 n^2 (n + 1)^3 (n + 2) (2n + 3)), the module docstring's.
    num, den = _defect_polys(odd_weight=False)
    closed_num = _poly_scale(9, (-39456, -90160, -51823, 114))
    closed_den = _poly_scale(
        524288, _poly_product((0, 0, 1), (1, 1), (1, 1), (1, 1), (2, 1), (3, 2))
    )
    assert _poly_mul(num, closed_den) == _poly_mul(closed_num, den)


@pytest.mark.parametrize("odd_weight", [False, True])
def test_telescoping_identity_on_exact_terms(odd_weight):
    # term(n) R(n) - term(n + 1) R(n + 1) = term(n) (1 + D(n)) in exact
    # rationals, with term(n) from the exact integers C_{2n} C_n that
    # oracles.sum_rule_term rounds; both sides are scaled by 64^(n+1).
    (a, b, c, d), _ = _EXACT_TELESCOPE[odd_weight]
    num, den = _defect_polys(odd_weight)
    catalan = _catalan_numbers(4002)

    def scaled_term(n, shift):
        # term(n) 64^(n + shift)
        value = Fraction(catalan[2 * n] * catalan[n] * 64**shift)
        return value / (2 * n + 1) if odd_weight else value

    def big_r(n):
        return a * n + b + c / n + d / n**2

    for n in range(4, 2001):
        here, there = scaled_term(n, 1), scaled_term(n + 1, 0)
        defect = Fraction(_poly_at(num, n), _poly_at(den, n))
        assert here * big_r(n) - there * big_r(n + 1) == here * (1 + defect), n
        # The oracle's float is that exact term, rounded.
        if n % 500 == 0:
            assert sum_rule_term(n, odd_weight=odd_weight) == pytest.approx(
                float(here / 64 ** (n + 1)), rel=1e-15
            )


@pytest.mark.parametrize("s", [3, 4, 7, 8])
@pytest.mark.parametrize("n_start", [4, 10, 10**3, 10**6])
def test_zeta_bracket_contains_hurwitz_zeta(s, n_start):
    hi = _zeta_upper(s, n_start)
    # The lower end of the module docstring's bracket.
    lo = hi - s * (s + 1) * (s + 2) * float(n_start) ** (-s - 3) / 720.0
    with mp.workdps(40):
        exact = mp.zeta(s, n_start)
        assert lo * (1.0 - _ROUNDING) <= exact <= hi * (1.0 + _ROUNDING)
        if n_start <= 10:
            # Here the bracket is far wider than rounding, so its two
            # ends are seen to lie on the right sides.
            assert lo < exact < hi


@pytest.mark.parametrize("odd_weight", [False, True])
def test_tail_width_strictly_decreasing(odd_weight):
    # _sum_rule relies on this: the first N that meets tol is the least.
    previous = math.inf
    for n_start in range(4, 10**5 + 1):
        width = series_tail_bound(n_start, odd_weight=odd_weight)
        assert 0.0 < width < previous, n_start
        previous = width


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-13, 1e-30])
@pytest.mark.parametrize("odd_weight", [False, True])
def test_sum_interval_contains_mpmath_limit(tol, odd_weight):
    # No slack: the interval counts the rounding of its own partial sum.
    # At 1e-30 the sum stops at its floor N, where the tail enclosure is
    # at most 2^-10 of the rounding bound 2e; the interval is then just
    # over 2e wide, and the odd-weight limit lies 1.5 u (u = 2^-53) below
    # its upper end, where e = 2.29 u.
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
    term, width = sum_rule_term(checkpoint), series_tail_bound(checkpoint)
    lo, hi = _tail_enclosure(checkpoint, term, width, odd_weight=False)
    assert partial + lo <= PLAIN_TARGET <= partial + hi


@pytest.mark.parametrize("checkpoint", [10, 100, 1000])
def test_odd_checkpoints_bracket_the_series_limit(checkpoint):
    # The summation machinery is sound: every checkpoint interval
    # contains the series' true limit.  (The stated closed-form target
    # lies outside these intervals; that discrepancy is the subject of
    # the failing acceptance criterion, not a machinery defect.)
    partial = math.fsum(sum_rule_term(n, odd_weight=True) for n in range(checkpoint))
    term = sum_rule_term(checkpoint, odd_weight=True)
    width = series_tail_bound(checkpoint, odd_weight=True)
    lo, hi = _tail_enclosure(checkpoint, term, width, odd_weight=True)
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


# 77 terms in all: the `series` benchmark workload sums exactly these,
# so its `series.terms` counter moves only when a stopping point does.
@pytest.mark.parametrize(
    "tol, plain, odd", [(1e-6, 4, 4), (1e-8, 8, 8), (1e-9, 12, 10), (1e-10, 17, 14)]
)
def test_terms_used_at_benchmark_tolerances(tol, plain, odd):
    assert stewart_sum_plain(tol).terms_used == plain
    assert stewart_sum_odd_weight(tol).terms_used == odd


@pytest.mark.parametrize("odd_weight", [False, True])
def test_floor_n_is_the_first_width_within_2e_over_1024(odd_weight):
    floor = 2.0 * _widening(odd_weight)
    n = FLOOR_N[odd_weight]
    assert series_tail_bound(n, odd_weight=odd_weight) <= floor * 2.0**-10
    assert series_tail_bound(n - 1, odd_weight=odd_weight) > floor * 2.0**-10


@pytest.mark.parametrize("odd_weight", [False, True])
def test_sum_stops_at_the_bisection_n(odd_weight):
    # Over a grid of tolerances from 1e-2 to 1e-14.75, the one pass stops
    # where a bisection of the interval width w + 2e over [4, floor N]
    # does.
    rule = stewart_sum_odd_weight if odd_weight else stewart_sum_plain
    floor = 2.0 * _widening(odd_weight)
    for k in range(8, 60):
        tol = 10 ** (-k / 4)
        expected = 4 + bisect_left(
            range(4, FLOOR_N[odd_weight] + 1),
            True,
            key=lambda n: series_tail_bound(n, odd_weight=odd_weight) + floor <= tol,
        )
        assert rule(tol).terms_used == expected, tol


@pytest.mark.parametrize("odd_weight", [False, True])
def test_search_ends_of_the_range(odd_weight):
    rule = stewart_sum_odd_weight if odd_weight else stewart_sum_plain
    # Above the width at N = 4, and at or below 2e, which no N meets: the
    # sum stops at the floor N, and its interval still holds the limit.
    assert rule(1.0).terms_used == 4
    assert rule(1e300).converged
    assert rule(sys.float_info.max).terms_used == 4
    floor = 2.0 * _widening(odd_weight)
    limit = sum_rule_limit(odd_weight)
    for tol in (floor, floor / 2, 1e-30, 5e-324):
        result = rule(tol)
        assert result.terms_used == FLOOR_N[odd_weight], tol
        assert not result.converged
        with mp.workdps(40):
            low = mp.mpf(result.partial_sum)
            assert low <= limit <= low + mp.mpf(result.tail_bound), tol


def test_tolerance_validation():
    with _refused("tol", 0.0, 5e-324):
        stewart_sum_plain(tol=0.0)
    with _refused("tol", -1e-6, 5e-324):
        stewart_sum_odd_weight(tol=-1e-6)
    with _refused("tol", math.nan, 5e-324):
        stewart_sum_plain(tol=float("nan"))
    # Any partial sum meets an infinite tolerance, so it certifies nothing.
    with _refused("tol", math.inf, 5e-324):
        stewart_sum_plain(math.inf)


@pytest.mark.parametrize("tol", [True, False])
def test_tolerance_refuses_a_bool(tol):
    # True would pass every check as 1.0.
    with _refused("tol", tol, 5e-324):
        stewart_sum_plain(tol)


def test_tolerance_refuses_an_int_past_the_largest_float():
    with _refused("tol", 10**400, 5e-324):
        stewart_sum_plain(10**400)
    with _refused("tol", 2**1024, 5e-324):
        stewart_sum_odd_weight(2**1024)


@pytest.mark.parametrize("tol", ["1e-6", None, 1e-6j])
def test_tolerance_refuses_what_is_not_a_number(tol):
    with _refused("tol", tol, 5e-324):
        stewart_sum_plain(tol)


def test_tolerance_takes_an_int_as_its_float():
    assert stewart_sum_plain(1) == stewart_sum_plain(1.0)


def test_budget_exhaustion_carries_partial_result():
    # No N meets 1e-30: the sum stops at the floor N, where the interval
    # is within 0.1% of the rounding floor 2e.
    partial = stewart_sum_plain(tol=1e-30)
    assert not partial.converged
    assert partial.terms_used == FLOOR_N[False]
    floor = 2.0 * _widening(odd_weight=False)
    assert floor < partial.tail_bound <= floor * (1.0 + 2.0**-10)
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
    # The integral itself, not only ln A, within its estimate, with no
    # factor of slack, at the default config and at 1e-14.
    with mp.workdps(40):
        integral = (
            -0.5 - mp.mpf(7) / 24 * mp.log(2) + mp.log(mp.pi) / 4 + 1.5 * mp.log(mp.glaisher)
        )
    for config in (cfg, QuadConfig(abs_tol=1e-14, rel_tol=1e-14)):
        result = glaisher_from_integral(config)
        with mp.workdps(40):
            error = abs(mp.mpf(result.integral_value) - integral)
        assert error <= result.error_estimate, (config, float(error), result.error_estimate)


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
