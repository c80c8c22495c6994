"""Exact Catalan oracles that share no arithmetic with the package.

The tests compare ``catalan_exact`` against these routes:

* ``catalan_segner``         -- convolution recurrence
* ``catalan_hypergeometric`` -- terminating 2F1(1 - n, -n; 2; 1) summed
  over exact rationals
* ``count_balanced_parentheses`` / ``count_polygon_triangulations``
  -- brute-force enumerations of two classical Catalan families
"""

from fractions import Fraction

from catalan_integrals.exact import _check_index

# Brute-force enumeration walks every valid prefix; past n = 14 the walk
# is too slow to be useful as an oracle.
ENUMERATION_LIMIT = 14
TRIANGULATION_MAX_SIDES = 16


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
