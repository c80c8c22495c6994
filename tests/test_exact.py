"""Exact integer routes, combinatorial oracles, and the log table."""

import math
import os
import random
import re
import subprocess
import sys

import mpmath
import pytest

from oracles import (
    ENUMERATION_LIMIT,
    TRIANGULATION_MAX_SIDES,
    catalan_hypergeometric,
    catalan_segner,
    count_balanced_parentheses,
    count_polygon_triangulations,
)
from catalan_integrals import exact, representations
from catalan_integrals.exact import (
    MAX_INDEX,
    CatalanTable,
    catalan_exact,
    ln_exact,
)
from catalan_integrals.kernels import (
    binet_catalan_kernel,
    log_gamma_reference,
    malmsten_catalan_kernel,
)
from catalan_integrals.quadrature import QuadConfig

# The classical sequence; everything below anchors to these integers.
FIRST_VALUES = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)

# ln C_100, frozen from a 40-digit evaluation of the exact integer.
LN_C100 = 131.1381155644372337566624


@pytest.mark.parametrize("n, expected", list(enumerate(FIRST_VALUES)))
def test_closed_form_small_values(n, expected):
    assert catalan_exact(n) == expected


def test_small_value_anchors():
    # The two values every derivation in the package keeps coming back to.
    assert catalan_exact(3) == 5
    assert catalan_exact(5) == 42


def _via_comb(n):
    q, r = divmod(math.comb(2 * n, n), n + 1)
    assert r == 0
    return q


def test_catalan_exact_matches_comb():
    for n in (*range(1200), 5000, 31_623):
        assert catalan_exact(n) == _via_comb(n), n


@pytest.mark.parametrize("n", [10**5, 10**6 - 1])
def test_closed_form_ratio_recurrence_at_large_n(n):
    # (n + 2) C_{n+1} = 2 (2n + 1) C_n, exactly; no math.comb involved.
    assert (n + 2) * catalan_exact(n + 1) == 2 * (2 * n + 1) * catalan_exact(n)


def test_large_n_needs_no_comb(monkeypatch):
    # The big-integer division in math.comb is what made large n slow;
    # catalan_exact must give the same values with it gone.
    n = 10**5
    expected = _via_comb(n)

    def comb_is_gone(*args):
        raise RuntimeError("math.comb called")

    monkeypatch.setattr(math, "comb", comb_is_gone)
    assert catalan_exact(n) == expected
    assert ln_exact(n) == math.log(expected)


@pytest.mark.parametrize("n, expected", [(0, 1), (4, 14), (10, 16796)])
def test_segner_values(n, expected):
    assert catalan_segner(n) == expected


@pytest.mark.parametrize("n, expected", [(0, 1), (3, 5), (7, 429)])
def test_hypergeometric_values(n, expected):
    assert catalan_hypergeometric(n) == expected


def test_routes_agree_through_200():
    # Triple equality of the closed form, the convolution recurrence,
    # and the terminating hypergeometric sum, all in exact integers.
    for n in range(201):
        c = catalan_exact(n)
        assert catalan_segner(n) == c
        assert catalan_hypergeometric(n) == c


# A Catalan index is what operator.index accepts: a float is refused as
# such, before any work, even when it is integral.
NON_INTEGERS = (5.0, 2.5, math.nan)


@pytest.mark.parametrize("route", [catalan_exact, catalan_segner, catalan_hypergeometric])
def test_negative_index_rejected(route):
    with pytest.raises(ValueError):
        route(-1)
    for n in NON_INTEGERS:
        with pytest.raises(TypeError, match=re.escape(f"an integer, got {n!r}")):
            route(n)


@pytest.mark.parametrize("n", [True, False])
def test_a_bool_is_not_a_catalan_index(n):
    # A bool is an int, and would pass as 1 or 0.
    for call in (
        lambda: ln_exact(n),
        lambda: catalan_exact(n),
        lambda: representations.catalan_malmsten(n, QuadConfig()),
        lambda: representations.compare_representations(n, QuadConfig()),
    ):
        with pytest.raises(TypeError, match=re.escape(f"an integer, got {n!r}")):
            call()


def test_balanced_parentheses_matches_closed_form():
    for n in range(ENUMERATION_LIMIT + 1):
        assert count_balanced_parentheses(n) == catalan_exact(n)


def test_balanced_parentheses_anchor():
    assert count_balanced_parentheses(3) == 5


def test_triangulations_match_closed_form():
    # An s-gon has C_{s-2} triangulations; s = 7 gives 42.
    for sides in range(3, TRIANGULATION_MAX_SIDES + 1):
        assert count_polygon_triangulations(sides) == catalan_exact(sides - 2)
    assert count_polygon_triangulations(7) == 42


def test_enumeration_guards():
    with pytest.raises(ValueError):
        count_balanced_parentheses(ENUMERATION_LIMIT + 1)
    with pytest.raises(ValueError):
        count_balanced_parentheses(-1)
    with pytest.raises(ValueError):
        count_polygon_triangulations(2)
    with pytest.raises(ValueError):
        count_polygon_triangulations(TRIANGULATION_MAX_SIDES + 1)


def test_table_matches_closed_form():
    table = CatalanTable.build(300)
    for n in (0, 1, 7, 100, 300):
        assert table.values[n] == catalan_exact(n)


def test_table_ratio_recurrence():
    # (n + 2) C_{n+1} = 2 (2n + 1) C_n, exactly, at every index.
    table = CatalanTable.build(300)
    for n in range(300):
        assert (n + 2) * table.values[n + 1] == 2 * (2 * n + 1) * table.values[n]


def test_table_reaches_deep_indices():
    table = CatalanTable.build(10_000)
    assert table.values[10_000] == catalan_exact(10_000)


def test_ln_exact_basics():
    assert ln_exact(0) == 0.0
    assert ln_exact(1) == 0.0
    assert abs(ln_exact(5) - math.log(42.0)) <= 1e-15
    assert abs(ln_exact(100) - LN_C100) <= 1e-12


def test_ln_exact_matches_float_log():
    # Wherever the integer still fits in a double, ln_exact must agree
    # with log(float(C_n)) to full precision.
    n = 0
    while True:
        c = catalan_exact(n)
        try:
            as_float = float(c)
        except OverflowError:
            break
        assert abs(ln_exact(n) - math.log(as_float)) <= 1e-12 * max(1.0, ln_exact(n))
        n += 1
    assert n > 400  # the sequence outgrows doubles only past n ~ 510


def test_ln_exact_cross_checks_stirling():
    # ln C_n = 2n ln 2 - (1/2) ln pi + ln Gamma(n + 1/2) - ln Gamma(n + 2).
    for n in (10, 100):
        via_gamma = (
            2.0 * n * math.log(2.0)
            - 0.5 * math.log(math.pi)
            + log_gamma_reference(n + 0.5)
            - log_gamma_reference(n + 2.0)
        )
        assert abs(ln_exact(n) - via_gamma) <= 1e-10


_MP40 = mpmath.mp.clone()
_MP40.dps = 40


def _ln_catalan_mpmath(n):
    """ln C_n from 40-digit mpmath.loggamma."""
    lg = _MP40.loggamma
    return lg(2 * n + 1) - lg(n + 1) - lg(n + 2)


def test_ln_exact_matches_mpmath_loggamma():
    # Every n to 3,000, on both sides of the crossover: float() of the
    # 40-digit value rounds it correctly unless it lies within 1e-40 of
    # a midpoint.  A compensated sum of the logs of the prime factors
    # lands 1 ulp away at n = 29, 36, 37, 71, 132, 153, 176, 183 and 256.
    assert 3000 > exact._COMB_MAX
    for n in range(3001):
        assert ln_exact(n) == float(_ln_catalan_mpmath(n)), n


def test_ln_exact_is_correctly_rounded_above_the_crossover():
    # Log-spaced n up to the limit and seeded random n above the
    # crossover, where ln_exact sums Stirling's series.
    rng = random.Random(9)
    ns = (
        *sorted({round(10 ** (k / 8)) for k in range(28, 65)}),
        *(rng.randrange(exact._COMB_MAX + 1, MAX_INDEX + 1) for _ in range(300)),
    )
    assert min(ns) > exact._COMB_MAX and MAX_INDEX in ns
    for n in ns:
        assert ln_exact(n) == float(_ln_catalan_mpmath(n)), n


def test_ln_constants_of_the_fixed_point_path():
    # Both literals are 2^192 ln 2 and 2^192 ln pi rounded to integers,
    # and 192 bits serve the second pass.
    ctx = mpmath.mp.clone()
    ctx.prec = 400
    scale = ctx.mpf(2) ** exact._FIXED_BITS
    assert exact._LN2_FIXED == int(ctx.nint(ctx.log(2) * scale))
    assert exact._LN_PI_FIXED == int(ctx.nint(ctx.log(ctx.pi) * scale))
    assert exact._FIXED_BITS == 2 * exact._PRECISION


def test_ziv_loop_raises_the_precision_until_the_ends_agree(monkeypatch):
    # E is about 2^11 units, so a first pass at 58 bits leaves an
    # enclosure a fair fraction of an ulp of ln C_n wide: it straddles a
    # rounding boundary at some n, and a second pass at 116 bits settles
    # each of them.  From a first pass at 30 bits, the second, at 60,
    # still straddles one at some n, and those raise.  Wherever a pass
    # decides, the narrow margin still holds ln C_n, on both paths.
    passes = []
    fixed_log = exact._fixed_log

    def recording(m, p):
        passes.append(p)
        return fixed_log(m, p)

    monkeypatch.setattr(exact, "_fixed_log", recording)
    truth = {n: float(_ln_catalan_mpmath(n)) for n in range(2, 1500)}
    monkeypatch.setattr(exact, "_PRECISION", 58)
    second = []
    for n in truth:
        passes.clear()
        assert ln_exact(n) == truth[n], n
        if passes != [58]:
            assert passes == [58, 116], n
            second.append(n)
    assert 0 < len(second) < len(truth) // 4
    monkeypatch.setattr(exact, "_PRECISION", 30)
    raised = []
    for n in truth:
        try:
            assert ln_exact(n) == truth[n], n
        except ArithmeticError as exc:
            assert "not proved to round to one double at 60 bits" in str(exc)
            raised.append(n)
    assert 0 < len(raised) < len(truth) // 4


def test_lgamma_witness_runs_on_both_paths(monkeypatch):
    witness = exact._check_against_lgamma
    seen = []

    def recording(n, ln_c, *source):
        seen.append(n)
        witness(n, ln_c, *source)

    monkeypatch.setattr(exact, "_check_against_lgamma", recording)
    ln_exact(exact._COMB_MAX)
    ln_exact(exact._COMB_MAX + 1)
    assert seen == [exact._COMB_MAX, exact._COMB_MAX + 1]
    # A wrong ln 2, off by 2^-12, moves ln C_n by k 2^-12 below the
    # crossover, k the bit length of C_n, and by 2n 2^-12 above it.
    monkeypatch.setattr(exact, "_LN2_FIXED", exact._LN2_FIXED + (1 << 308))
    for n in (exact._COMB_MAX, 10**6):
        with pytest.raises(ArithmeticError, match="fixed-point ln C_n disagrees with lgamma"):
            ln_exact(n)


def test_ln_exact_builds_no_big_integer(monkeypatch):
    # Above the crossover ln C_n comes from Stirling's series: neither
    # C_n nor any partial product of its factors is formed.
    def no_product(*args):
        raise RuntimeError("C_n was built")

    monkeypatch.setattr(exact, "_balanced_product", no_product)
    monkeypatch.setattr(exact, "catalan_exact", no_product)
    n = 10**6
    truth = math.lgamma(2 * n + 1) - math.lgamma(n + 1) - math.lgamma(n + 2)
    assert abs(ln_exact(n) - truth) <= 1e-9 * truth


def test_representations_use_exact_ln_exact():
    # The comparison column of every row, and the benchmark's tap on it,
    # go through this one name.
    assert representations.ln_exact is exact.ln_exact


def test_ln_exact_negative_rejected():
    with pytest.raises(ValueError):
        ln_exact(-3)
    for n in NON_INTEGERS:
        with pytest.raises(TypeError, match=re.escape(f"an integer, got {n!r}")):
            ln_exact(n)


class _SieveStarted(Exception):
    pass


@pytest.fixture
def sieve_calls(monkeypatch):
    """The sizes the sieve is asked for; a call raises _SieveStarted, so
    no test allocates the 10^8 bytes of the limit itself."""
    calls = []

    def sieve(m):
        calls.append(m)
        raise _SieveStarted

    monkeypatch.setattr(exact, "_odd_sieve", sieve)
    return calls


# ln C_(MAX_INDEX) correctly rounded, from 40-digit mpmath.loggamma.
LN_C_MAX_INDEX = 138629407.90860298


@pytest.mark.parametrize("route", [ln_exact, catalan_exact])
def test_index_limit_is_checked_before_the_sieve(route, sieve_calls):
    # Past the limit the sieve would need n bytes: 10^12 of them ended
    # in MemoryError.  The limit itself is accepted: catalan_exact sieves
    # up to 2 MAX_INDEX, and ln_exact answers from Stirling's series
    # without starting a sieve.
    with pytest.raises(ValueError, match=f"<= {MAX_INDEX} \\(MAX_INDEX\\)"):
        route(MAX_INDEX + 1)
    assert sieve_calls == []
    if route is ln_exact:
        assert ln_exact(MAX_INDEX) == LN_C_MAX_INDEX
        assert sieve_calls == []
    else:
        with pytest.raises(_SieveStarted):
            route(MAX_INDEX)
        assert sieve_calls == [2 * MAX_INDEX]


def test_every_index_taking_function_refuses_past_the_limit(cfg, sieve_calls):
    # One index range for the whole package: each route is checked
    # against ln_exact, so none is vouched for past its limit.
    for call in (
        lambda n: representations.compare_representations(n, cfg),
        lambda n: representations.catalan_malmsten(n, cfg),
        lambda n: representations.catalan_penson_moment(n, cfg),
        representations.catalan_gamma_closed_form,
        malmsten_catalan_kernel,
        binet_catalan_kernel,
        CatalanTable.build,
    ):
        with pytest.raises(ValueError, match="MAX_INDEX"):
            call(MAX_INDEX + 1)
    assert sieve_calls == []


def test_wrong_exponent_raises_under_python_O():
    # One extra factor 2 moves ln C_50 from 62.85 to 63.55.  The lgamma
    # witness must catch it even under -O, which strips assert statements:
    # in catalan_exact, and in the digits that `exact N` multiplies out.
    # ln_exact reads no factors.  The bare call dies as Python does, with
    # exit 1; the command line exits 4, its code for a crash.
    package_root = os.path.dirname(os.path.dirname(exact.__file__))
    pythonpath = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p
    )
    for call, code in (
        ("exact.catalan_exact(50)", 1),
        ("cli.main(['exact', '5000'])", 4),
    ):
        script = (
            "from catalan_integrals import cli, exact\n"
            "factors = exact._catalan_factors\n"
            "exact._catalan_factors = lambda n: iter([*factors(n), 2])\n"
            f"{call}\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == code, call
        assert proc.stdout == "", call
        assert "ArithmeticError: prime factorisation of C_n disagrees" in proc.stderr
