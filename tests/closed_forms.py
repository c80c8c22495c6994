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
# cases.  The rule is open, but bisection can close in on an endpoint
# until a node rounds onto it (the quadrature module's docstring), so
# each integrand is guarded to stay finite at both endpoints.
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
    # Two half-line integrals with only algebraic decay, mapped onto
    # (0, 1) by t = u/(1 - u), dt = du/(1 - u)^2.  The map needs decay
    # like 1/t^2 or faster: sqrt(t)/(4t + 1)^2 itself would become
    # (1 - u)^{-1/2}/16 at u = 1, and the mass beyond the last double
    # below 1, about 1.3e-9, would escape every estimate.  t = s^2
    # first gives 2 s^2/(4 s^2 + 1)^2 ds, as in the Penson-Mellin route.
    (
        "algebraic moment",
        # 2 s^2/(4 s^2 + 1)^2 ds = 2 u^2/((1 - u)^2 + 4 u^2)^2 du
        lambda u: 2.0 * u * u / ((1.0 - u) ** 2 + 4.0 * u * u) ** 2,
        0.0,
        1.0,
        math.pi / 16.0,
    ),
    (
        "lorentzian tail",
        # dt/(1 + t^2) = du/(u^2 + (1 - u)^2)
        lambda u: 1.0 / (u * u + (1.0 - u) ** 2),
        0.0,
        1.0,
        math.pi / 2.0,
    ),
)

# (label, integrand, tail constants, exact value) on [0, inf).
# Tail constants are analytic bounds |f(t)| <= K exp(-c t) for large t;
# the half-line map needs them only past about 294/c, where it folds
# the rest of the line away:
#   t exp(-t) <= (2/e) exp(-t/2)           -> K = 1,   c = 1/2
#   exp(-t^2) <= exp(1/4) exp(-t)          -> K = 1.3, c = 1
#   exp(-t)/sqrt(t) <= exp(-t) for t >= 1  -> K = 1,   c = 1
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
        "plain exponential",
        lambda t: math.exp(-2.0 * t),
        TailBound(K=1.0, c=2.0),
        0.5,
    ),
    (
        "gamma(1/2)",
        lambda t: math.exp(-t) / math.sqrt(t) if t > 0.0 else 0.0,
        TailBound(K=1.0, c=1.0),
        math.sqrt(math.pi),
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
