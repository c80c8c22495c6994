"""The proofs' one hypothesis, checked on the host that runs the suite.

Every proved error bound in the package takes libm's log, log1p, exp,
sin and expm1 to be within one ulp of the true value over the arguments
the proof reaches: ``exact._log_double``, ``exact._ln_double``,
``kernels._binet_theta``, ``representations._penson_moment`` and
``representations._assemble`` say which.  Each case draws seeded points over one such range and
compares the double with 40-digit mpmath.  A failure means the proved
bars need not hold on this host; the base-against-head ledger
(tests/ledger.py) stays valid there, since both sides share the libm.

``series.glaisher_from_integral`` rests on one more hypothesis: that
``math.lgamma`` is within 2e-15 of ln Gamma on [1, 3/2], the arguments
x + 1 of its integrand.  ``test_lgamma_is_within_its_absolute_bound``
checks it.
"""

import math
import random

import pytest
from mpmath import mp

from catalan_integrals.kernels import log_gamma_reference


def _log_uniform(lo, hi, sign=1.0):
    return lambda rng: sign * 2.0 ** rng.uniform(math.log2(lo), math.log2(hi))


# Name: (the function, a draw over the arguments a proof gives it).
CASES = {
    # ln_exact's ln n; _assemble's terms, down to the moment and Mellin
    # routes' integrals, about 2^-41 at n = 1e8.
    "log": ("log", _log_uniform(2.0**-44, 2.0**53)),
    # _binet_theta's log1p(1/x) for normal x below 10.
    "log1p-binet": ("log1p", _log_uniform(0.1, 2.0**1022)),
    # ln_exact's passes in doubles: ln(C_n / 2^k) in [1, 2] up to its
    # crossover, ln(n + 1) above it.
    "log-ln_exact": ("log", lambda rng: rng.uniform(1.0, 2.0)),
    "log1p-ln_exact": ("log1p", _log_uniform(201.0, 1e8)),
    # The moment route's samples: log1p(-sin^2), exp of n times it, and
    # the sine at the nodes of (0, pi/2).
    "log1p-moment": ("log1p", lambda rng: -rng.random()),
    "exp-moment": ("exp", lambda rng: rng.uniform(-745.0, 0.0)),
    "sin-moment": ("sin", lambda rng: rng.uniform(0.0, math.pi / 2)),
    # The Malmsten kernel's expm1(-t/2).
    "expm1-malmsten": ("expm1", _log_uniform(2.0**-40, 50.0, -1.0)),
}


def _ulp(y):
    """The gap between doubles in the binade of the true value y."""
    return mp.ldexp(1, max(mp.frexp(y)[1], -1021) - 53)


@pytest.mark.parametrize("case", CASES)
def test_libm_is_within_one_ulp(case):
    name, draw = CASES[case]
    rng = random.Random(case)
    worst, at = 0.0, None
    with mp.workdps(40):
        for x in (draw(rng) for _ in range(5000)):
            true = getattr(mp, name)(x)
            error = float(abs(getattr(math, name)(x) - true) / _ulp(true))
            if error > worst:
                worst, at = error, x
    assert worst <= 1.0, f"math.{name}({at!r}) is {worst:.3f} ulp off the 40-digit value"


# Glaisher's integrand takes ln Gamma at x + 1 for x in [0, 1/2].
LGAMMA_BOUND = 2e-15


def test_lgamma_is_within_its_absolute_bound():
    """math.lgamma on [1, 3/2], seeded points plus the ends and 1 + 2^-k,
    against 40-digit mpmath and against ``log_gamma_reference``, the
    recurrence-and-Stirling evaluation that the tests keep as a reference.

    The bound is absolute, not in ulps.  On [1, 3/2] |ln Gamma| stays
    below 0.13 and falls to 0 at x = 1, so its ulp is at most 2^-56 and
    shrinks towards x = 1, while a Lanczos or Stirling evaluation sums
    terms of size one and errs by some 1e-16 absolutely wherever x is:
    both evaluations reach about 100 ulp near x = 1.05.  And an absolute
    bound on the integrand is what bounds the integral's error.
    """
    rng = random.Random("lgamma-glaisher")
    points = [rng.uniform(1.0, 1.5) for _ in range(5000)]
    points += [1.0, 1.5] + [1.0 + 2.0**-k for k in range(1, 53)]
    worst, at = 0.0, None
    gap, gap_at = 0.0, None
    with mp.workdps(40):
        for x in points:
            value = math.lgamma(x)
            error = float(abs(value - mp.loggamma(x)))
            if error > worst:
                worst, at = error, x
            off = abs(value - log_gamma_reference(x))
            if off > gap:
                gap, gap_at = off, x
    assert worst <= LGAMMA_BOUND, f"math.lgamma({at!r}) is {worst:.3e} off the 40-digit value"
    assert gap <= LGAMMA_BOUND, f"math.lgamma({gap_at!r}) is {gap:.3e} off log_gamma_reference"
