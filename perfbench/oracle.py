"""Reference values from mpmath at 40 digits, independent of the package.

Nothing here imports the package under test.  Every value is computed
on first use and kept, so a run pays only for the values its workload
needs (the 3F2 at z = 1 takes about a second).
"""

from __future__ import annotations

import functools

import mpmath

DIGITS = 40


class Oracle:
    def __init__(self) -> None:
        self.ctx = mpmath.MPContext()
        self.ctx.dps = DIGITS
        self._ln_catalan: dict[int, mpmath.mpf] = {}

    def ln_catalan(self, n: int):
        """ln C_n = ln Gamma(2n + 1) - ln Gamma(n + 1) - ln Gamma(n + 2)."""
        if n not in self._ln_catalan:
            lg = self.ctx.loggamma
            self._ln_catalan[n] = lg(2 * n + 1) - lg(n + 1) - lg(n + 2)
        return self._ln_catalan[n]

    @functools.cached_property
    def plain_limit(self):
        """sum C_2n C_n / 64^n = 3F2(1/4, 3/4, 1/2; 3/2, 2; 1).

        Cross-checked against the closed form
        (4/pi) ln(3 + 2 sqrt 2) - 8 sqrt 2 / (3 pi), so a wrong
        hypergeometric evaluation stops the run instead of grading it.
        """
        ctx = self.ctx
        q = ctx.mpf(1) / 4
        value = ctx.hyp3f2(q, 3 * q, 2 * q, 6 * q, 2, 1)
        closed = 4 / ctx.pi * ctx.log(3 + 2 * ctx.sqrt(2)) - 8 * ctx.sqrt(2) / (3 * ctx.pi)
        if abs(value - closed) > ctx.mpf(10) ** (5 - DIGITS):
            raise ArithmeticError(f"3F2 oracle {value} disagrees with its closed form {closed}")
        return value

    @functools.cached_property
    def odd_weight_limit(self):
        """sum C_2n C_n / ((2n + 1) 64^n) = 4F3(1/4, 3/4, 1/2, 1/2; 3/2, 3/2, 2; 1)."""
        ctx = self.ctx
        q = ctx.mpf(1) / 4
        return ctx.hyper([q, 3 * q, 2 * q, 2 * q], [6 * q, 6 * q, 2], 1)

    @functools.cached_property
    def ln_glaisher(self):
        return self.ctx.log(self.ctx.glaisher)

    def abs_diff(self, value: float, truth) -> float:
        """|value - truth| evaluated at the oracle's precision."""
        return float(abs(self.ctx.mpf(value) - truth))
