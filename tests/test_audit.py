"""Seeded audit of the honesty contract over the index range the API accepts.

The other tests check n = 0..200, a dozen larger n and a few configs.
Here a fixed seed draws n log-uniform over 0..MAX_INDEX, with small n
one time in five, and random quadrature configs, and calls every route
directly; the reference is 40-digit ``mpmath.loggamma``.  The same seed
draws tolerances log-uniform over [1e-13, 1e-4] for both sum rules,
checked against the 40-digit limit, and random configs for the Glaisher
integral, checked against 40-digit ln A.  The seed and the draw counts
were fixed before each audit first ran.
"""

import math
import random

import mpmath

from catalan_integrals import quadrature
from catalan_integrals.exact import MAX_INDEX
from catalan_integrals.quadrature import QuadConfig
from catalan_integrals.representations import (
    ROUTES,
    catalan_gamma_closed_form,
    catalan_penson_moment,
)
from catalan_integrals.series import (
    glaisher_from_integral,
    stewart_sum_odd_weight,
    stewart_sum_plain,
)

from oracles import sum_rule_limit

SEED = 11
DRAWS = 300
SUM_RULE_DRAWS = 200
PANEL = 21  # evaluations of one G10/K21 panel
SUBDIVISIONS = (1, 2, 3, 10, 50, 200)
# Routes whose bars are proved bounds rather than quadrature estimates.
PROVED = (catalan_gamma_closed_form, catalan_penson_moment)


def _tolerance(rng: random.Random) -> float:
    return 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-15.0, -6.0)


def _config(rng: random.Random) -> QuadConfig:
    abs_tol, rel_tol = _tolerance(rng), _tolerance(rng)
    if abs_tol == rel_tol == 0.0:
        abs_tol = 1e-12
    return QuadConfig(abs_tol, rel_tol, rng.choice(SUBDIVISIONS))


def _draws():
    rng = random.Random(SEED)
    for _ in range(DRAWS):
        if rng.random() < 0.2:
            n = rng.randrange(50)
        else:
            n = min(round(math.expm1(rng.uniform(0.0, math.log1p(MAX_INDEX)))), MAX_INDEX)
        yield n, _config(rng)


def test_no_route_is_dishonest_on_random_draws(monkeypatch):
    starting_panels = []
    adaptive = quadrature._adaptive

    def counting(f, edges, config, remainder=0.0):
        starting_panels.append(len(edges) - 1)
        return adaptive(f, edges, config, remainder)

    monkeypatch.setattr(quadrature, "_adaptive", counting)
    ctx = mpmath.mp.clone()
    ctx.dps = 40
    worst = {route: 0.0 for route in ROUTES}
    converged = {route: 0 for route in ROUTES}
    largest = {route: -1 for route in ROUTES}
    for n, config in _draws():
        truth = ctx.loggamma(2 * n + 1) - ctx.loggamma(n + 1) - ctx.loggamma(n + 2)
        for route in ROUTES:
            starting_panels.clear()
            row = route(n, config)  # no route may raise
            where = f"{route!r} at n = {n}, {config}"
            # The reference column is correctly rounded at every n.
            assert row.exact_ln == float(truth), where
            if route is catalan_penson_moment:
                budget = PANEL + 2 * PANEL * config.max_subdivisions
            else:
                budget = PANEL * sum(starting_panels) + 2 * PANEL * config.max_subdivisions
            assert row.evaluations <= budget, where
            # The moment route's bar, with the window's, is proved at
            # every budget and tolerance: it holds at every draw.
            if not row.converged and route is not catalan_penson_moment:
                continue
            error = abs(ctx.mpf(row.ln_value) - truth)
            bar = row.quad_error_estimate
            assert error <= (1.0 if route in PROVED else 10.0) * bar, where
            if not row.converged:
                continue
            converged[route] += 1
            largest[route] = max(largest[route], n)
            ratio = float(error / bar) if bar > 0 else (0.0 if error == 0 else math.inf)
            worst[route] = max(worst[route], ratio)
    # Shown with -s, and with the failure report, so a drift shows
    # before it fails.
    for route in ROUTES:
        print(
            f"[audit] {route!r}: worst error/bar {worst[route]:.3f} "
            f"over {converged[route]} of {DRAWS} converged rows, "
            f"the largest at n = {largest[route]}"
        )
    assert all(converged[route] > 0 for route in ROUTES)
    # The window takes the moment route to the index limit on the
    # driver's budgets: without it no draw past n = 6.3e6 converged.
    assert largest[catalan_penson_moment] > 10**7



def test_sum_rule_intervals_contain_the_limit_on_random_tolerances():
    rng = random.Random(SEED)
    for _ in range(SUM_RULE_DRAWS):
        tol = 10.0 ** rng.uniform(-13.0, -4.0)
        for rule, odd_weight in ((stewart_sum_plain, False), (stewart_sum_odd_weight, True)):
            result = rule(tol)
            where = f"{rule.__name__}({tol!r})"
            assert result.converged, where
            # No slack: the interval counts the rounding of its own sum.
            with mpmath.mp.workdps(40):
                low = mpmath.mpf(result.partial_sum)
                assert low <= sum_rule_limit(odd_weight) <= low + result.tail_bound, where


def test_glaisher_is_honest_on_random_configs():
    rng = random.Random(SEED)
    with mpmath.mp.workdps(40):
        ln_a = mpmath.log(mpmath.glaisher)
    worst, converged = 0.0, 0
    for _ in range(DRAWS):
        config = _config(rng)
        result = glaisher_from_integral(config)
        if not result.converged:
            continue
        converged += 1
        with mpmath.mp.workdps(40):
            error = abs(mpmath.mpf(result.ln_A) - ln_a)
            assert error <= 10 * result.error_estimate, config
            if result.error_estimate > 0:
                worst = max(worst, float(error / result.error_estimate))
    print(
        f"[audit] glaisher: worst error/estimate {worst:.3f} "
        f"over {converged} of {DRAWS} converged draws"
    )
    assert converged > 0
