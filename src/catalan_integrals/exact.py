"""Exact integer Catalan numbers and ln C_n from their prime factorisation.

Both anchors of the package's floating-point work come from one
factorisation of C_n = (2n)! / (n! (n + 1)!), read off an odd-only sieve
up to 2n:

* ``catalan_exact``    -- C_n as the balanced product of its factors,
  with no big-integer division
* ``ln_exact``         -- ln C_n as one compensated sum of the logs of
  those factors, valid far past the range where C_n fits in a double,
  without ever building C_n
* ``catalan_numbers``  -- C_0, C_1, ... streamed by the exact ratio
  recurrence
* ``CatalanTable``     -- prefix table of that stream, and the package's
  only consumer of it (the sum rules of ``series`` stream their terms
  in floats)

``ln_exact`` and ``catalan_exact`` accept integers n up to ``MAX_INDEX``
= 10^8 and raise ``ValueError`` past it, before any work, as does every
function of the package that takes a Catalan index: each row is checked
against ``ln_exact``, and no route is vouched for past it.
Their sieve up to 2n holds n bytes, and a pass over it costs about
62 ns per n: ``ln_exact`` took 0.62 s and a peak of 32 MB at n = 10^7,
1.95 s and 71 MB at 3 10^7, and 6.3 s and 204 MB at 10^8 (one Xeon
core, peak resident size of the whole process).  ``catalan_exact``
also multiplies out C_n, about 2n bits, which grows faster: 0.65 s at
10^6 and 5.7 s at 4 10^6, near n^1.6.  Past the limit the sieve alone
would need n bytes, 10^12 of them at n = 10^12.  The lgamma witness of
the exponents holds up to the limit too (``_check_against_lgamma``).
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


def _check_against_lgamma(n: int, ln_c: float) -> None:
    """Witness for the exponents: one wrong exponent moves ln C_n by at
    least ln 2, outside the 1e-9 (1 + ln C_n) tolerance for every
    n <= MAX_INDEX = 10^8, where that tolerance is below 0.14."""
    via_lgamma = math.lgamma(2 * n + 1) - math.lgamma(n + 1) - math.lgamma(n + 2)
    if not abs(ln_c - via_lgamma) <= 1e-9 * (1.0 + via_lgamma):
        raise ArithmeticError(
            f"prime factorisation of C_n disagrees with lgamma at n = {n}"
        )


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


def ln_exact(n: int) -> float:
    """ln C_n from the exact prime factorisation, for every n up to MAX_INDEX.

    C_n is never built: the factors from ``_catalan_factors`` are
    integers of at most 2n, and ``math.fsum`` adds their logs exactly
    and rounds once.  Each log is positive and rounded to a relative
    2^-53, so the errors of all terms add up to at most a relative
    2^-53 of the sum, and the result lies within about 1 ulp of ln C_n:
    0.57 ulp at worst against 40-digit mpmath over n = 2..2,000 and
    log-spaced n up to 10^6.  Checked against lgamma.  Raises ValueError
    past MAX_INDEX.
    """
    _check_index(n)
    ln_c = math.fsum(map(math.log, _catalan_factors(n)))
    _check_against_lgamma(n, ln_c)
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
