"""Exact integer Catalan numbers and combinatorial counting oracles.

Every route in this module is arbitrary-precision integer arithmetic
(plain ``int``), so any two routes must agree bit for bit.  They anchor
all floating-point work elsewhere in the package:

* ``catalan_exact``        -- closed form binomial(2n, n) / (n + 1), built
  as the balanced product of its prime powers, with no big-integer
  division
* ``catalan_segner``       -- convolution recurrence
* ``catalan_hypergeometric`` -- terminating 2F1(1 - n, -n; 2; 1) summed
  over exact rationals
* ``count_balanced_parentheses`` / ``count_polygon_triangulations``
  -- brute-force enumerations of two classical Catalan families
* ``catalan_numbers``      -- C_0, C_1, ... streamed by the exact ratio
  recurrence
* ``CatalanTable``         -- prefix table of that stream
* ``ln_exact``             -- ln C_n to ~1 ulp from the exact integer,
  usable far past the range where C_n fits in a double
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, islice

__all__ = [
    "ENUMERATION_LIMIT",
    "TRIANGULATION_MAX_SIDES",
    "CatalanTable",
    "catalan_exact",
    "catalan_hypergeometric",
    "catalan_numbers",
    "catalan_segner",
    "count_balanced_parentheses",
    "count_polygon_triangulations",
    "ln_exact",
]

_LN2 = math.log(2.0)
_LN_PI = math.log(math.pi)

# Brute-force enumeration walks every valid prefix; past n = 14 the walk
# is too slow to be useful as an oracle.
ENUMERATION_LIMIT = 14
TRIANGULATION_MAX_SIDES = 16

def _check_index(n: int) -> None:
    if n < 0:
        raise ValueError(f"Catalan index must be >= 0, got {n}")


def _primes_upto(m: int) -> Iterator[int]:
    """Primes p <= m, from one bytearray sieve of Eratosthenes."""
    sieve = bytearray([1]) * max(m + 1, 2)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(m) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, m + 1, p)))
    return compress(range(m + 1), sieve)


def _catalan_prime_powers(n: int) -> Iterator[int]:
    """p ** e_p for every prime p dividing C_n = (2n)! / (n! (n + 1)!).

    e_p is Legendre's formula applied to the three factorials:
    the sum over k >= 1 of floor(2n / p^k) - floor(n / p^k) - floor((n + 1) / p^k).
    """
    two_n = 2 * n
    for p in _primes_upto(two_n):
        e = 0
        q = p
        while q <= two_n:
            e += two_n // q - n // q - (n + 1) // q
            q *= p
        if e:
            yield p**e


def _balanced_product(factors: Iterable[int]) -> int:
    """Product of a stream of integers, multiplied as a balanced tree.

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


def catalan_exact(n: int) -> int:
    """n-th Catalan number, binomial(2n, n) / (n + 1), exactly.

    Built as the balanced product of the prime powers of
    (2n)! / (n! (n + 1)!), with no big-integer division.  As a
    correctness witness its log must agree with
    lgamma(2n + 1) - lgamma(n + 1) - lgamma(n + 2) to 1e-9 (1 + ln C_n);
    one wrong exponent moves it by at least ln 2, which is outside that
    tolerance for every n below 10^8.
    """
    _check_index(n)
    c = _balanced_product(_catalan_prime_powers(n))
    via_lgamma = math.lgamma(2 * n + 1) - math.lgamma(n + 1) - math.lgamma(n + 2)
    assert abs(_log_of_positive_int(c) - via_lgamma) <= 1e-9 * (1.0 + via_lgamma), (
        f"prime factorisation of C_n disagrees with lgamma at n = {n}"
    )
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
        assert r == 0, f"ratio recurrence left a remainder at n = {k + 1}"


def catalan_segner(n: int) -> int:
    """n-th Catalan number via the convolution recurrence.

    C_0 = 1 and C_{k+1} = sum_{i=0..k} C_i C_{k-i}; an O(n^2) route
    that shares no arithmetic with the closed form.
    """
    _check_index(n)
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
    _check_index(n)
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


def _top_bits(m: int) -> tuple[float, int]:
    """(f, k) with m = f 2^k to a relative 2^-63 + 2^-53, for m >= 0 of
    any size: f is the top 64 bits of m rounded to a float, and k the
    number of bits shifted out."""
    shift = max(m.bit_length() - 64, 0)
    return float(m >> shift), shift


def _log_of_positive_int(m: int) -> float:
    """Natural log of a positive integer of any size, to ~1 ulp.

    Splits m into its top 64 bits times a power of two; the dropped low
    bits perturb the log by less than 2^-63.
    """
    if m <= 0:
        raise ValueError("argument must be a positive integer")
    top, shift = _top_bits(m)
    return math.log(top) + shift * _LN2


def ln_exact(n: int) -> float:
    """ln C_n computed from the exact integer, valid for all n.

    C_n itself overflows a double near n = 260; the bit-split log keeps
    full double accuracy regardless of size.
    """
    return _log_of_positive_int(catalan_exact(n))


@dataclass(frozen=True)
class CatalanTable:
    """Prefix table C_0..C_max_n, the first entries of ``catalan_numbers``."""

    max_n: int
    values: tuple[int, ...]

    @classmethod
    def build(cls, max_n: int) -> "CatalanTable":
        _check_index(max_n)
        return cls(max_n=max_n, values=tuple(islice(catalan_numbers(), max_n + 1)))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def ln(self, n: int) -> float:
        """ln C_n for a tabulated index."""
        return _log_of_positive_int(self.values[n])
