"""Closed-form integrals shared by the quadrature and acceptance tests.

Every entry pairs an integrand with its exact value so that the
convergence and honesty checks (true error at most ten times the
reported estimate) run against ground truth rather than against the
integrator itself.  ``kernel_origin_cases`` does the same for the
limit and slope of each kernel at t = 0.
"""

import math

from oracles import theta_kernel
from catalan_integrals.kernels import binet_catalan_kernel, malmsten_catalan_kernel
from catalan_integrals.quadrature import TailBound

# (label, integrand, a, b, exact value) on a finite interval.  The
# corpus deliberately mixes smooth, oscillatory, and integrable-endpoint
# cases; the rule is open, so endpoint singularities are never sampled,
# but the guards keep the entries safe under any evaluation scheme.
FINITE_CORPUS = (
    ("monomial x^2", lambda x: x * x, 0.0, 1.0, 1.0 / 3.0),
    ("exponential", math.exp, 0.0, 1.0, math.e - 1.0),
    ("sine arch", math.sin, 0.0, math.pi, 2.0),
    (
        "semicircle",
        lambda x: math.sqrt(max(1.0 - x * x, 0.0)),
        -1.0,
        1.0,
        math.pi / 2.0,
    ),
    ("lorentzian", lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
    ("square root", math.sqrt, 0.0, 1.0, 2.0 / 3.0),
    (
        "log singularity",
        lambda x: -math.log(x) if x > 0.0 else 0.0,
        0.0,
        1.0,
        1.0,
    ),
    ("cosine squared", lambda x: math.cos(x) ** 2, 0.0, 2.0 * math.pi, math.pi),
    (
        "inverse sqrt",
        lambda x: 1.0 / math.sqrt(x) if x > 0.0 else 0.0,
        0.0,
        1.0,
        2.0,
    ),
    (
        "semicircle moment",
        lambda x: x * x * math.sqrt(max(1.0 - x * x, 0.0)),
        -1.0,
        1.0,
        math.pi / 8.0,
    ),
    (
        "gaussian bump",
        lambda x: math.exp(-x * x),
        -3.0,
        3.0,
        math.sqrt(math.pi) * math.erf(3.0),
    ),
    (
        "runge",
        lambda x: 1.0 / (1.0 + 25.0 * x * x),
        -1.0,
        1.0,
        2.0 * math.atan(5.0) / 5.0,
    ),
)

# (label, integrand, tail constants or None, exact value) on [0, inf).
# Tail constants are analytic bounds |f(t)| <= K exp(-c t):
#   t exp(-t) <= (2/e) exp(-t/2)           -> K = 1,   c = 1/2
#   exp(-t^2) <= exp(1/4) exp(-t)          -> K = 1.3, c = 1
# Entries without constants go through the split at t = 1; they cover
# exponential, faster-than-exponential and algebraic decay.
HALF_LINE_CORPUS = (
    (
        "exp decay",
        lambda t: math.exp(-t),
        TailBound(K=1.0, c=1.0),
        1.0,
    ),
    (
        "first moment",
        lambda t: t * math.exp(-t),
        TailBound(K=1.0, c=0.5),
        1.0,
    ),
    (
        "half gaussian",
        lambda t: math.exp(-t * t),
        TailBound(K=1.3, c=1.0),
        0.5 * math.sqrt(math.pi),
    ),
    (
        "plain exponential (split)",
        lambda t: math.exp(-2.0 * t),
        None,
        0.5,
    ),
    (
        "half gaussian (split)",
        lambda t: math.exp(-t * t),
        None,
        0.5 * math.sqrt(math.pi),
    ),
    (
        "gamma(1/2)",
        lambda t: math.exp(-t) / math.sqrt(t) if t > 0.0 else 0.0,
        None,
        math.sqrt(math.pi),
    ),
    (
        "algebraic moment",
        lambda t: math.sqrt(t) / (4.0 * t + 1.0) ** 2 if t > 0.0 else 0.0,
        None,
        math.pi / 16.0,
    ),
    (
        "lorentzian tail",
        lambda t: 1.0 / (1.0 + t * t),
        None,
        math.pi / 2.0,
    ),
)


def kernel_origin_cases():
    """(label, KernelSpec, limit, slope) for every kernel family.

    The limit and the slope of each kernel as t -> 0+, from its Taylor
    expansion about t = 0:

    * Malmsten-Catalan: expm1(-t/2)/t = -1/2 + t/8 - ...,
      (q + 1/2)/(1 + q) = 3/4 - t/16 + ... with q = e^{-t/2}, and
      e^{-(n+1/2) t} = 1 - (n + 1/2) t + ..., so the kernel tends to
      -3/8 with slope 3/32 + 1/32 + (3/8)(n + 1/2) = 3n/8 + 5/16.
    * Binet-Catalan: binet_core(t)/t -> 1/12 and
      e^{-t/2} - e^{-2t} = 3t/2 - 15t^2/8 + ..., so the kernel tends to
      0 with slope (1/12)(3/2) = 1/8.
    * Binet theta(x): binet_core(t)/t = 1/12 - t^2/720 + ... has zero
      slope, so times e^{-x t} it tends to 1/12 with slope -x/12.
    """
    cases = []
    for n in (0, 1, 5, 20):
        slope = 0.375 * n + 0.3125
        cases.append((f"malmsten n={n}", malmsten_catalan_kernel(n), -0.375, slope))
        cases.append((f"binet n={n}", binet_catalan_kernel(n), 0.0, 0.125))
    for x in (0.5, 2.0):
        cases.append((f"theta x={x}", theta_kernel(x), 1.0 / 12.0, -x / 12.0))
    return cases
