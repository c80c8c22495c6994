"""Exact integer Catalan numbers, and ln C_n correctly rounded.

C_n = (2n)! / (n! (n + 1)!) is factorised exactly, read off an odd-only
sieve up to 2n:

* ``catalan_exact``    -- C_n as the balanced product of its factors,
  with no big-integer division
* ``ln_exact``         -- ln C_n as a correctly rounded double, valid far
  past the range where C_n fits in one: one fixed-point evaluation in
  Python integers, of the log of the exact C_n up to n = 200 and of
  Stirling's series above it, rounded once by Ziv's test, in O(1) above
  the crossover, where a first pass of the same series in doubles
  decides most n; it needs no sieve
* ``catalan_numbers``  -- C_0, C_1, ... streamed by the exact ratio
  recurrence
* ``CatalanTable``     -- prefix table of that stream, and the package's
  only consumer of it (the sum rules of ``series`` stream their terms
  in floats)

``ln_exact`` and ``catalan_exact`` accept integers n from 0 to
``MAX_INDEX`` = 10^8 (any type that ``operator.index`` takes, such as
``numpy.int64``, and no bool), and raise ``ValueError`` for anything
else, before any work, as does every function of the package that takes
a Catalan index: each row is checked against ``ln_exact``, and no route
is vouched for past it.  ``_check_index`` and ``_check_real`` are the
package's only checks of a numeric argument, with one wording, and
every other module calls them.
``ln_exact`` costs 3-23 us a call up to n = 200 and about 2 us above
it, at every n up to the limit, where a first pass in doubles decides
most n.
``catalan_exact``, and the digits of ``exact N`` on the command line,
sieve up to 2n, which holds n bytes and costs about 62 ns per n, and
multiply out C_n, about 2n bits, which grows faster: 0.65 s at 10^6 and
5.7 s at 4 10^6, near n^1.6.  Past the limit the sieve alone would need
n bytes, 10^12 of them at n = 10^12.  The lgamma witness of the
exponents holds up to the limit too (``_check_against_lgamma``).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator
from itertools import compress, count, islice

__all__ = [
    "MAX_INDEX",
    "CatalanTable",
    "catalan_exact",
    "catalan_numbers",
    "ln_exact",
]

_LN2 = math.log(2.0)
_LN_PI = math.log(math.pi)

# Largest n that ln_exact and catalan_exact, and so every function that
# takes a Catalan index, accept (module docstring).
MAX_INDEX = 10**8

# ln_exact takes the log of the exact C_n up to this n and sums Stirling's
# series above it (ln_exact's docstring gives the measurement).
_COMB_MAX = 200
# The bits of ln_exact's first pass; a second pass, if needed, doubles them.
_PRECISION = 96
# round(2^192 ln 2) and round(2^192 ln pi), which serve every pass up to
# 192 = 2 _PRECISION bits.
_FIXED_BITS = 192
_LN2_FIXED, _LN_PI_FIXED = (
    0xB17217F7D1CF79ABC9E3B39803F2F6AF40F343267298B62E,
    0x1250D048E7A1BD0BD5F956C6A843F49985E6DDBF3B3F2606E,
)
# Stirling's coefficients B_2k / (2k (2k - 1)), k = 1..17, in lowest terms.
_STIRLING = (
    (1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360),
    (1, 156), (-3617, 122400), (43867, 244188), (-174611, 125400),
    (77683, 5796), (-236364091, 1506960), (657931, 300),
    (-3392780147, 93960), (1723168255201, 2492028),
    (-7709321041217, 505920), (151628697551, 396),
)
# For ln_exact's double pass: ln 2 as a 24-bit head, so that 2n _LN2_HI is
# exact for 2n < 2^28, and the rest of _LN2_FIXED; ln(pi) / 2; and the
# c_k (1 - 4^k) of _STIRLING.  Each is rounded once, by int / int.
_LN2_HI = (_LN2_FIXED >> (_FIXED_BITS - 24)) / (1 << 24)
_LN2_LO = (_LN2_FIXED % (1 << (_FIXED_BITS - 24))) / (1 << _FIXED_BITS)
_HALF_LN_PI = _LN_PI_FIXED / (1 << (_FIXED_BITS + 1))
_STIRLING_DOUBLE = tuple(
    num * (1 - 4**k) / den for k, (num, den) in enumerate(_STIRLING, 1)
)


def _check_index(
    n: int, most: float = MAX_INDEX, name: str = "Catalan index", least: int = 0
) -> int:
    """``n`` as a plain int, if it is an integer (what operator.index
    takes) from ``least`` to ``most``, and no bool, which would pass as 0
    or 1; otherwise ValueError.  ``most`` may be ``math.inf``, for no
    upper limit.  The package's one check of an integer argument, and
    on the per-row path, so its success path is two tests."""
    index = n
    if type(n) is not int:  # a bool's type is bool, so it lands here too
        try:
            if isinstance(n, bool):
                raise TypeError
            index = operator.index(n)
        except TypeError:
            raise ValueError(_refusal(n, "an integer", least, most, name)) from None
    if least <= index <= most:
        return index
    raise ValueError(_refusal(n, "an integer", least, most, name))


def _check_real(x: float, least: float, most: float, name: str) -> float:
    """``x``, if it is an int or a float from ``least`` to ``most``, and
    no bool; otherwise ValueError.  The comparisons are False for NaN,
    and exact for an int past the largest float, so with ``most`` the
    largest float they refuse both; ``least = math.ulp(0.0)`` means
    "> 0" for ints and floats alike.  The package's one check of a real
    argument."""
    if isinstance(x, (int, float)) and not isinstance(x, bool) and least <= x <= most:
        return x
    raise ValueError(_refusal(x, "a real number", least, most, name))


def _refusal(value: object, kind: str, least: float, most: float, name: str) -> str:
    """The one wording of both checks: the name, the value and the range."""
    try:
        shown = repr(value)
    except ValueError:  # an int with more digits than str() may print
        shown = f"an int of {value.bit_length()} bits"
    return f"{name} cannot be {shown}: must be {kind} from {least!r} to {most!r}"


def _odd_sieve(m: int) -> bytearray:
    """sieve[i] == 1 exactly when 2i + 1 is a prime <= m.

    Sieve of Eratosthenes over the odd numbers only; index 0 stands
    for 1, so ``compress(range(1, m + 1, 2), sieve)`` lists the odd
    primes up to m.
    """
    sieve = bytearray([0]) + bytearray([1]) * ((m - 1) // 2)
    for i in range(1, (math.isqrt(m) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(sieve), p)))
    return sieve


def _catalan_factors(n: int) -> Iterator[int]:
    """Integers f <= 2n whose product is C_n = (2n)! / (n! (n + 1)!).

    A prime p <= sqrt(2n) contributes p ** e_p, with e_p from Legendre's
    formula applied to the three factorials; p ** e_p <= 2n, as for any
    prime power dividing binomial(2n, n).  A prime p > sqrt(2n) divides
    binomial(2n, n) at most once, exactly when floor(2n / p) is odd
    (Kummer), that is when p lies in (n / (k + 1), 2n / (2k + 1)] for
    some k >= 0.  These come straight from the sieve, range by range,
    less the one possible prime factor of n + 1 above sqrt(2n), which
    the division by n + 1 cancels.
    """
    two_n = 2 * n
    root = math.isqrt(two_n)
    sieve = _odd_sieve(two_n)
    cofactor = n + 1
    for p in [2, *compress(range(1, root + 1, 2), sieve)]:
        e = 0
        q = p
        while q <= two_n:
            e += two_n // q - n // q - (n + 1) // q
            q *= p
        if e:
            yield p**e
        while cofactor % p == 0:
            cofactor //= p
    if cofactor > 1:  # a prime above sqrt(2n), so within one of the ranges
        sieve[cofactor // 2] = 0
    for k in range(n // max(root, 1) + 1):
        lo = max(n // (k + 1), root)
        hi = two_n // (2 * k + 1)
        # The odd numbers in (lo, hi] are 2i + 1 for a <= i < b.
        a, b = (lo + 1) // 2, (hi + 1) // 2
        yield from compress(range(2 * a + 1, 2 * b + 1, 2), sieve[a:b])


def _balanced_product(factors: Iterable[int]) -> int:
    """Product of a stream of ints, or of Decimals in an exact context,
    multiplied as a balanced tree.

    The stack is a binary counter of partial products over 1, 2, 4, ...
    factors; two of equal count merge as soon as they meet.  Every
    multiplication then pairs operands of similar length, and the stack
    never holds more than log2(count) + 1 entries.
    """
    stack: list[tuple[int, int]] = []  # (partial product, factors in it)
    for value in factors:
        size = 1
        while stack and stack[-1][1] == size:
            value *= stack.pop()[0]
            size *= 2
        stack.append((value, size))
    product = 1
    while stack:
        product *= stack.pop()[0]
    return product


def _check_against_lgamma(
    n: int, ln_c: float, source: str = "prime factorisation of C_n"
) -> None:
    """Witness for the exponents: one wrong exponent moves ln C_n by at
    least ln 2, outside the 1e-9 (1 + ln C_n) tolerance for every
    n <= MAX_INDEX = 10^8, where that tolerance is below 0.14.  In
    ``ln_exact`` it catches a gross slip in the fixed-point arithmetic or
    its constants within the same tolerance; ``source`` names the path."""
    via_lgamma = math.lgamma(2 * n + 1) - math.lgamma(n + 1) - math.lgamma(n + 2)
    if not abs(ln_c - via_lgamma) <= 1e-9 * (1.0 + via_lgamma):
        raise ArithmeticError(f"{source} disagrees with lgamma at n = {n}")


def catalan_exact(n: int) -> int:
    """n-th Catalan number, binomial(2n, n) / (n + 1), exactly.

    Built as the balanced product of the prime factors of
    (2n)! / (n! (n + 1)!), with no big-integer division, and checked
    against lgamma.  Raises ValueError past MAX_INDEX.
    """
    n = _check_index(n)
    c = _balanced_product(_catalan_factors(n))
    _check_against_lgamma(n, math.log(c))
    return c


def catalan_numbers() -> Iterator[int]:
    """C_0, C_1, C_2, ... without end, by the exact ratio recurrence.

    Each step uses C_{n+1} (n + 2) = C_n 2 (2n + 1) with a checked
    exact division, so a single arithmetic slip is caught where it
    happens rather than silently corrupting every later value.
    """
    value = 1
    for k in count():
        yield value
        value, r = divmod(value * 2 * (2 * k + 1), k + 2)
        if r:
            raise ArithmeticError(f"ratio recurrence left a remainder at n = {k + 1}")


def _catalan_digits(n: int) -> str:
    """The decimal digits of C_n, multiplied out as Decimals in a context
    where any rounding raises (str(int) would stop at 4300 digits), and
    checked against lgamma: their leading 17 and their count give ln C_n."""
    n = _check_index(n)
    from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, localcontext

    with localcontext(Context(MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])):
        digits = str(_balanced_product(map(Decimal, _catalan_factors(n))))
    ln_c = math.log(int(digits[:17])) + math.log(10.0) * max(len(digits) - 17, 0)
    _check_against_lgamma(n, ln_c)
    return digits


def _fixed_log(m: int, p: int) -> int:
    """2^p ln m, for an integer m >= 1, as k 2^p ln 2 + 2^(p+1) atanh(x),
    x = (m - 2^k) / (m + 2^k); ``ln_exact``'s docstring bounds its error."""
    k = (m + (m >> 1)).bit_length() - 1  # m / 2^k in [2/3, 3/2], so |x| < 1/5
    r, s = m - (1 << k), m + (1 << k)
    y = (abs(r) << p) // s
    y2 = y * y >> p
    total, term, j = 0, y, 1
    while term:
        total += term // j
        term = term * y2 >> p
        j += 2
    return (k * _LN2_FIXED >> (_FIXED_BITS - p)) + (2 * total if r >= 0 else -2 * total)


def _ln_double(n: int) -> float | None:
    """ln C_n for n > ``_COMB_MAX`` from Stirling's series in doubles, or
    None when the enclosure of half-width delta straddles a rounding
    boundary; ``ln_exact``'s docstring derives delta."""
    power = 0.5 / n  # (2n)^-(2k - 1), for the k-th term
    square = power * power
    p = 2 * n * _LN2_LO
    s = math.log1p(n)
    terms = [p, -_HALF_LN_PI, -0.5 * math.log(n), -s]
    for coef in _STIRLING_DOUBLE:
        term = coef * power
        if abs(term) < 2.0**-64:
            break
        terms.append(term)
        power *= square
    else:  # no term small enough to bound the remainder
        return None
    c = math.fsum(terms)
    delta = 2.0**-50 * (1.25 * s + abs(p) + 0.5) + 3.0 * abs(term)
    a = 2 * n * _LN2_HI
    lo = a + (c - delta)
    return lo if lo == a + (c + delta) else None


def ln_exact(n: int) -> float:
    """ln C_n as a double, correctly rounded, for every n up to MAX_INDEX.

    C_0 = C_1 = 1.  Above the crossover ``_COMB_MAX`` = 200 a pass in
    doubles comes first and decides most n (the double pass, below).
    Where it does not, and at every n >= 2 up to the crossover, it
    computes an integer V with |V - 2^p ln C_n| <= E at
    p = ``_PRECISION`` = 96 bits, and rounds once.  One fixed-point log
    serves it: ``_fixed_log`` writes ln m = k ln 2 + 2 atanh(x),
    x = (m - 2^k) / (m + 2^k), with k chosen so that m / 2^k lies in
    [2/3, 3/2] and |x| < 1/5, and sums
    atanh(x) = sum_i x^(2i+1) / (2i + 1).  Which m depends on n:

    * Up to the crossover ``_COMB_MAX`` = 200, the exact integer
      C_n = ``math.comb(2n, n) // (n + 1)``.
    * Above it, Stirling's series.  With ln Gamma(x + 1) = x ln x - x
      + ln(2 pi x)/2 + S(x) and S(x) = sum_k c_k / x^(2k - 1),
      c_k = B_2k / (2k (2k - 1)) in ``_STIRLING``, the three factorials
      of C_n leave

          ln C_n = 2n ln 2 - ln(pi n (n + 1)^2) / 2 + S(2n) - 2 S(n),

      and S(2n) - 2 S(n) = sum_k t_k, t_k = c_k (1 - 4^k) / (2n)^(2k - 1),
      each term an integer quotient.  So m = n (n + 1)^2, below 2^80.

    The error, in units of 2^-p for any p <= 192.  Python's // and >>
    floor, so each division or shift errs by under 1.  ``_LN2_FIXED``
    and ``_LN_PI_FIXED`` lie within 1/2 of 2^192 ln 2 and 2^192 ln pi,
    so (a ``_LN2_FIXED``) >> (192 - p) lies within 1 + a/2 of
    2^p a ln 2 for an integer a >= 0.

    * atanh.  u_0 = floor(2^p |x|), y2 = u_0^2 >> p and
      u_(i+1) = u_i y2 >> p, summed as u_i // (2i + 1) until u_J = 0.
      With T_i = 2^p |x|^(2i+1) and q = 2^p x^2: y2 > q - 1 - 2|x|, and
      by induction 0 <= T_i - u_i < 1 + 1.4 x^2 + 1.4 |x|^(2i+1) < 1.4.
      So each summed term errs by under 1 + 1.4 = 2.4, and the tail by
      under T_J / ((2J + 1)(1 - x^2)) < 1.05, as T_0 < 1 and T_J < 1.4.
      T_i < 2^p 5^-(2i+1) gives J <= p / 4.64 + 0.5, so 2^(p+1) atanh(x)
      is within 4.8 J + 2.1 <= 1.04 p + 5.
    * Up to the crossover, C_n < 4^n, so k <= 2n and V is within
      1 + n + 1.04 p + 5 of 2^p ln C_n.
    * Above it, 4n ln 2 - ln pi comes from one shift, within
      1 + (4n + 1)/2; ln m, with k <= 80, within 41 + 1.04 p + 5; their
      difference is halved by one shift, under 1 more.  Each of at most
      16 summed t_k errs by under 1.  The sum stops before the first t_k
      with |t_k| <= 1, or before the last coefficient, and the rest of
      the series is below 2 |t_k| + 2: the remainder of S after K terms
      has the sign of c_(K+1) and at most its size (DLMF 5.11.ii), so
      that of S(2n) - 2 S(n) is at most 2 |c_(K+1)| / n^(2K+1) =
      |t_(K+1)| / (1 - 2^-(2K+2)), and the computed t_k is within 1.
      In all, n + 0.52 p + 43 + 2 |t_k|.

    So E = n + 2p + 64 + 2 |t_k| (t_k = 0 up to the crossover) holds V
    on both paths.  Ziv's rounding test (Ziv, ACM TOMS 17, 1991): int /
    int rounds correctly in CPython, so when (V - E) / 2^p and
    (V + E) / 2^p give the same double, ln C_n gives it too.  Otherwise
    p doubles, once.  For n >= 2, ln C_n is the log of an integer above
    1, so it is transcendental (Lindemann) and lies on no midpoint
    between two doubles: some precision, with enough terms of the
    series, decides.  At 96 bits the enclosure is within 5e-27 of
    ln C_n, relatively, and a second pass is needed with a chance below
    about 1e-10 per n: 2E 2^-p is at most 6e-11 of an ulp of ln C_n,
    at n = 2, the worst.  None was needed at n = 0..5000 or at 20,000
    random n up to MAX_INDEX.  At 192 bits the enclosure is within
    1.1e-55, again the worst at n = 2; above the crossover the series
    reaches a t_k with |t_k| <= 1 before its last coefficient at both
    precisions, from n = 201 on.  A ln C_n that close to a midpoint
    raises ArithmeticError rather than return a double that is not
    proved.

    The double pass (``_ln_double``), above the crossover only, is the
    cheap first rung of the same Ziv ladder, on the same formula.
    a = 2n ``_LN2_HI`` is exact: ``_LN2_HI`` is the 24-bit head of
    ``_LN2_FIXED``, and 2n < 2^28.  One ``math.fsum`` adds the rest into
    c: p = 2n ``_LN2_LO``, -ln(pi)/2, -ln(n)/2 (``math.log``),
    -ln(n + 1) (``math.log1p``) and the t_k in doubles, up to and not
    including the first t_(K+1) with |t_(K+1)| < 2^-64.  The pass
    returns fl(a + fl(c - delta)) when it equals fl(a + fl(c + delta)).
    Rounding to nearest is monotone, so when fl(c - delta) <= c* <=
    fl(c + delta) for the exact rest c* = ln C_n - a, both ends round
    to the double that ln C_n rounds to.  With u = 2^-53,
    s = ln(n + 1) >= 5.3 and P = |p| < 12, each end errs by at most:

    * libm's log and log1p are within one ulp, 2u of their value, as
      ``kernels._binet_theta``'s proof assumes; with a margin of one ulp
      more, ln(n)/2 and ln(n + 1) are within 2u s and 4u s;
    * ln(pi)/2 is rounded once, within 0.58u;
    * ``_LN2_LO`` is the rest of ``_LN2_FIXED``, within 2^-193 of
      ln 2 - ``_LN2_HI``, rounded once, and its product with 2n rounds
      once more: within 2.01u P;
    * each t_k comes from x = fl(1/(2n)), x^2, k - 1 products by it, a
      rounded coefficient and one product, so within (4k + 1)u |t_k|
      <= 70u |t_k|; the |t_k| add up to under 2 |t_1| = 1/(4n), so all
      are within 0.09u;
    * Stirling's remainder is at most 2 |t_(K+1)| (DLMF 5.11.ii, as
      above), and the computed t_(K+1) is within 70u of it: under
      3 |t_(K+1)|;
    * ``fsum`` rounds c once, within u |c|, and |c| <= 1.5 s + P + 0.59;
    * c - delta and c + delta each round once, within u (|c| + delta).

    So each end needs delta >= u (9 s + 4.01 P + 1.85 + delta)
    + 3 |t_(K+1)|, and delta = 2^-50 (1.25 s + P + 0.5) + 3 |t_(K+1)|
    = u (10 s + 8 P + 4) + 3 |t_(K+1)| exceeds that by over u s > 5u,
    which also covers the rounding of delta itself and the second-order
    terms.  When the ends round apart, or no t_k falls below 2^-64 (one
    does, by the fifth, at every n > 200), the fixed-point passes run
    as above.  That happened at 11.9% of n in 201..10^3,
    2.4% in 10^3..10^4, 0.26% in 10^4..10^5, 0.04% in 10^5..10^6 and at
    none above (20,000 seeded random n a decade), and at 215 of the
    4,800 n from 201 to 5000.  The pass uses neither
    ``kernels._binet_theta`` nor the gamma route's terms.

    Cost, on a 2-vCPU x86_64 host with Python 3.11 (fastest of 5
    timeit repeats, the lgamma witness included): 3-23 us a call up to
    the crossover, growing with n as ``math.comb`` does, and 10-12 us
    above it at every n up to MAX_INDEX for the fixed-point pass; at
    160 bits these were 3-26 and 16-21 us.  The double pass brings a
    call above the crossover to 1.5-1.8 us at every n up to MAX_INDEX
    (fastest of 7 repeats, where the fixed-point pass took 5.6-8.0 us in
    the same run), and an n it leaves to the fixed-point pass pays for
    both.  The crossover was set where the two costs met at
    160 bits: over bands of 20 n from 140 to 260, 15 random n each, the
    median call was cheaper by the exact C_n below n = 200 and by the
    series from there on.  At 96 bits the series is the cheaper from
    n = 140 on (about 14 against 16 us there), but the crossover stays
    at 200, so that the reference over the benchmark's n = 0..200 is
    the exact C_n, independent of every route.

    The value is checked against lgamma, a witness for gross slips.
    Above the crossover it no longer comes from C_n itself: the gamma
    route is then checked against another evaluation of the same
    asymptotic series that it sums in doubles, an enclosure in doubles
    or a higher-precision sum in integers, and only the
    integral routes (Malmsten, Binet and both Penson forms) stay
    independent of it.  Raises ValueError past MAX_INDEX.
    """
    n = _check_index(n)
    if n < 2:
        return 0.0
    if n > _COMB_MAX and (value := _ln_double(n)) is not None:
        _check_against_lgamma(n, value, "double-precision ln C_n")
        return value
    m = math.comb(2 * n, n) // (n + 1) if n <= _COMB_MAX else n * (n + 1) ** 2
    for p in (_PRECISION, 2 * _PRECISION):
        value, term = _fixed_log(m, p), 0
        if n > _COMB_MAX:
            twice = (4 * n * _LN2_FIXED - _LN_PI_FIXED) >> (_FIXED_BITS - p)
            value = (twice - value) >> 1
            for k, (num, den) in enumerate(_STIRLING, 1):
                term = (num * (1 - 4**k) << p) // (den * (2 * n) ** (2 * k - 1))
                if abs(term) <= 1 or k == len(_STIRLING):
                    break
                value += term
        error = n + 2 * p + 64 + 2 * abs(term)
        lo, hi = (value - error) / (1 << p), (value + error) / (1 << p)
        if lo == hi:
            _check_against_lgamma(n, lo, "fixed-point ln C_n")
            return lo
    raise ArithmeticError(f"ln C_{n} is not proved to round to one double at {p} bits")


class CatalanTable:
    """Prefix table C_0..C_max_n, the first entries of ``catalan_numbers``.

    Read-only: ``max_n`` and ``values`` cannot be reassigned.
    """

    __slots__ = ("max_n", "values")

    def __init__(self, max_n: int, values: tuple[int, ...]):
        object.__setattr__(self, "max_n", max_n)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: CatalanTable is read-only")

    @classmethod
    def build(cls, max_n: int) -> "CatalanTable":
        max_n = _check_index(max_n)
        return cls(max_n=max_n, values=tuple(islice(catalan_numbers(), max_n + 1)))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> int:
        return self.values[n]
