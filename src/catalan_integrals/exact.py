"""Exact integer Catalan numbers, and ln C_n from their prime
factorisation or from Stirling's series.

C_n = (2n)! / (n! (n + 1)!) is factorised exactly, read off an odd-only
sieve up to 2n:

* ``catalan_exact``    -- C_n as the balanced product of its factors,
  with no big-integer division
* ``ln_exact``         -- ln C_n as a double, valid far past the range
  where C_n fits in one, without ever building C_n: up to n = 450 one
  compensated sum of the logs of those factors, within 1 ulp; above it
  Stirling's series in ``decimal``, correctly rounded by Ziv's test, in
  O(1)
* ``catalan_numbers``  -- C_0, C_1, ... streamed by the exact ratio
  recurrence
* ``CatalanTable``     -- prefix table of that stream, and the package's
  only consumer of it (the sum rules of ``series`` stream their terms
  in floats)

``ln_exact`` and ``catalan_exact`` accept integers n up to ``MAX_INDEX``
= 10^8 and raise ``ValueError`` past it, before any work, as does every
function of the package that takes a Catalan index: each row is checked
against ``ln_exact``, and no route is vouched for past it.
The sieve up to 2n holds n bytes, and a pass over it costs about 62 ns
per n: the sum of logs took 0.62 s and a peak of 32 MB at n = 10^7,
1.95 s and 71 MB at 3 10^7, and 6.3 s and 204 MB at 10^8 (one Xeon
core, peak resident size of the whole process).  ``ln_exact`` pays that
only up to n = 450; above it a call costs 15-100 us at every n, and
importing ``decimal`` 2.3 ms once.  ``catalan_exact``, and the digits
of ``exact N`` on the command line, still sieve, and also multiply out
C_n, about 2n bits, which grows faster: 0.65 s at 10^6 and 5.7 s at
4 10^6, near n^1.6.  Past the limit the sieve alone would need n bytes,
10^12 of them at n = 10^12.  The lgamma witness of the exponents holds
up to the limit too (``_check_against_lgamma``).
"""

from __future__ import annotations

import math
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

# ln_exact sieves up to this n and sums Stirling's series above it
# (ln_exact's docstring gives the measurement).
_SIEVE_MAX = 450
# The precisions, in decimal digits, of _ln_stirling's Ziv loop.
_ZIV_PRECISIONS = (40, 80)
# ln 2 and ln pi to 100 decimals, correctly rounded.
_LN2_DIGITS = (
    "0.69314718055994530941723212145817656807"
    "55001343602552541206800094933936219696947156058633269964186875"
)
_LN_PI_DIGITS = (
    "1.14472988584940017414342735135305871164"
    "72948129153115715136230714721377698848260797836232702754897077"
)
# Stirling's coefficients B_2k / (2k (2k - 1)), k = 1..17, in lowest terms.
_STIRLING = (
    (1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360),
    (1, 156), (-3617, 122400), (43867, 244188), (-174611, 125400),
    (77683, 5796), (-236364091, 1506960), (657931, 300),
    (-3392780147, 93960), (1723168255201, 2492028),
    (-7709321041217, 505920), (151628697551, 396),
)


def _check_index(n: int) -> None:
    """Every Catalan index is an integer (what operator.index takes) in 0..MAX_INDEX."""
    if not hasattr(type(n), "__index__"):
        raise TypeError(f"Catalan index must be an integer, got {n!r}")
    if not 0 <= n <= MAX_INDEX:
        limit = ">= 0" if n < 0 else f"<= {MAX_INDEX} (MAX_INDEX)"
        raise ValueError(f"Catalan index must be {limit}, got {n}")


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
    n <= MAX_INDEX = 10^8, where that tolerance is below 0.14.  On the
    Stirling path it catches a gross slip in the series or its
    constants within the same tolerance; ``source`` names the path."""
    via_lgamma = math.lgamma(2 * n + 1) - math.lgamma(n + 1) - math.lgamma(n + 2)
    if not abs(ln_c - via_lgamma) <= 1e-9 * (1.0 + via_lgamma):
        raise ArithmeticError(f"{source} disagrees with lgamma at n = {n}")


def catalan_exact(n: int) -> int:
    """n-th Catalan number, binomial(2n, n) / (n + 1), exactly.

    Built as the balanced product of the prime factors of
    (2n)! / (n! (n + 1)!), with no big-integer division, and checked
    against lgamma.  Raises ValueError past MAX_INDEX.
    """
    _check_index(n)
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
    _check_index(n)
    from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, localcontext

    with localcontext(Context(MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])):
        digits = str(_balanced_product(map(Decimal, _catalan_factors(n))))
    ln_c = math.log(int(digits[:17])) + math.log(10.0) * max(len(digits) - 17, 0)
    _check_against_lgamma(n, ln_c)
    return digits


def _ln_stirling(n: int) -> float:
    """ln C_n correctly rounded, for n > _SIEVE_MAX, from Stirling's series.

    With ln Gamma(x + 1) = x ln x - x + ln(2 pi x)/2 + S(x) and
    S(x) = sum_k c_k / x^(2k - 1), c_k = B_2k / (2k (2k - 1)) in
    ``_STIRLING``, the three factorials of C_n leave

        ln C_n = 2n ln 2 - ln(pi n (n + 1)^2) / 2 + S(2n) - 2 S(n),

    and S(2n) - 2 S(n) = sum_k t_k, t_k = c_k (1 - 4^k) / (2n)^(2k - 1).
    It is evaluated in a local decimal context of p digits, p from
    ``_ZIV_PRECISIONS``, and enclosed:

    * Truncation.  For x > 0 the remainder of S after K terms has the
      sign of c_(K+1) and at most its size, |c_(K+1)| / x^(2K+1)
      (DLMF 5.11.ii), so that of S(2n) - 2 S(n) is at most
      2 |c_(K+1)| / n^(2K+1) = |t_(K+1)| / (1 - 2^-(2K+2)), below
      2 |t_(K+1)| with its rounding.  The sum stops at the first t_k
      with 2 |t_k| <= ``bound``, or at the last coefficient, and counts
      2 |t_k|.
    * Rounding.  Each operation rounds to nearest, within u = 5 10^-p
      of its result; Decimal(int) is exact, and the literals lie within
      10^-100 of ln 2 and ln pi.  With a = 2n ln 2 and
      L = ln(n (n + 1)^2) < 56, the product 2n ln 2 errs by u a; ln m,
      its sum with ln pi and the halving by u (1.5 L + 1.2) in all; the
      subtraction and the addition of the series by u a each; the
      series' own roundings, of terms whose sizes sum to below 1/(7n),
      by under u; and each end of the enclosure by 1.01 u a.  That is
      u (4.01 a + 1.5 L + 2.2), below 4.15 u a = 28.8 n 10^-p for
      n > 450, and the literals add under 10^-91.  So
      ``bound`` = 40 n 10^-p covers the rounding up to p = 80.

    Ziv's rounding test (Ziv, ACM TOMS 17, 1991): float() rounds a
    Decimal correctly, so when both ends of value +- (bound + 2 |t_k|)
    give the same double, ln C_n gives it too.  Otherwise the precision
    doubles.  For n >= 2, ln C_n is the log of an integer above 1, so it
    is transcendental (Lindemann) and lies on no midpoint between two
    doubles: some precision decides.  At 40 digits the enclosure is
    within 6e-39 of ln C_n, relatively, so a second pass is needed with
    a chance of about 1e-22 per n; at 80 digits, which the coefficients
    and literals cover for every n > 450, within 6e-79.  A ln C_n that
    close to a midpoint raises ArithmeticError rather than return a
    double that is not proved.
    """
    import decimal

    m = n * (n + 1) ** 2
    for prec in _ZIV_PRECISIONS:
        context = decimal.Context(prec=prec, rounding=decimal.ROUND_HALF_EVEN)
        with decimal.localcontext(context):
            bound = decimal.Decimal(40 * n).scaleb(-prec)
            series = decimal.Decimal(0)
            power = 2 * n  # (2n)^(2k - 1)
            for k, (num, den) in enumerate(_STIRLING, 1):
                term = decimal.Decimal(num * (1 - 4**k)) / (den * power)
                if 2 * abs(term) <= bound or k == len(_STIRLING):
                    break
                series += term
                power *= 4 * n * n
            half = (decimal.Decimal(_LN_PI_DIGITS) + decimal.Decimal(m).ln()) / 2
            value = decimal.Decimal(_LN2_DIGITS) * (2 * n) - half + series
            width = bound + 2 * abs(term)
            lo, hi = float(value - width), float(value + width)
        if lo == hi:
            return lo
    raise ArithmeticError(
        f"ln C_n at n = {n} is not proved to round to one double at {prec} digits"
    )


def ln_exact(n: int) -> float:
    """ln C_n as a double, for every n up to MAX_INDEX.

    Two paths, chosen by n.  Up to the crossover ``_SIEVE_MAX`` = 450,
    one compensated sum of the logs of the prime factors of C_n, with no
    C_n built: 62 ns and one byte of sieve per n, 35-85 us a call at
    n = 300..450.  The factors are integers of at most 2n, and
    ``math.fsum`` adds their logs exactly and rounds once; each log is
    positive and within a relative 2^-53, so their errors add up to at
    most a relative 2^-53 of the sum, within 1 ulp of ln C_n.  Above it,
    Stirling's series in decimal (``_ln_stirling``), correctly rounded:
    15-100 us a call at every n up to MAX_INDEX, most of it in one
    decimal ln, and 2.3 ms once to import decimal (2-vCPU Xeon host,
    whose speed varied by up to 2x between runs).  The crossover is
    where the two costs meet: over bands of 50 n from 300 to 750, 30
    random n each, the median call on one Xeon core was cheaper by the
    sieve up to n = 450 and by the series from there on.

    Both paths are checked against lgamma.  Above the crossover the
    value no longer comes from the factorisation: the gamma route is
    then checked against a higher-precision evaluation of the same
    asymptotic series that it sums in doubles, and only the integral
    routes (Malmsten, Binet and both Penson forms) stay independent of
    it.  Raises ValueError past MAX_INDEX.
    """
    _check_index(n)
    if n <= _SIEVE_MAX:
        ln_c = math.fsum(map(math.log, _catalan_factors(n)))
        _check_against_lgamma(n, ln_c)
        return ln_c
    ln_c = _ln_stirling(n)
    _check_against_lgamma(n, ln_c, "Stirling's series for ln C_n")
    return ln_c


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
        _check_index(max_n)
        return cls(max_n=max_n, values=tuple(islice(catalan_numbers(), max_n + 1)))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> int:
        return self.values[n]
