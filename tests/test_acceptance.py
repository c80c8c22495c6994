"""Acceptance gate: every shipping criterion, one printed line each.

Each test prints ``[acceptance] <criterion>: PASS/FAIL`` with timing and
the measured numbers, then asserts.  The odd-weight sum rule criterion
is expected to FAIL: the summation machinery is validated elsewhere
(tests/test_series.py) against the series' true limit, but the series
as stated does not reach its stated closed-form target.  See that
test module and the sumrule command output for the measured gap.
"""

import math
import time

from cli_runner import invoke
from closed_forms import FINITE_CORPUS, HALF_LINE_CORPUS, kernel_origin_cases
from oracles import (
    binet_theta,
    catalan_hypergeometric,
    catalan_segner,
    count_balanced_parentheses,
    count_polygon_triangulations,
    frullani_term,
    log_gamma_difference_kernel,
    log_gamma_malmsten,
    sum_rule_term,
)
from catalan_integrals.cli import main as cli_main
from catalan_integrals.exact import catalan_exact, ln_exact
from catalan_integrals.kernels import log_gamma_reference, malmsten_catalan_kernel
from catalan_integrals.quadrature import (
    QuadConfig,
    integrate_finite,
    integrate_half_line,
)
from catalan_integrals.representations import catalan_malmsten, compare_representations
from catalan_integrals.series import (
    _tail_enclosure,
    glaisher_from_integral,
    series_tail_bound,
    stewart_sum_odd_weight,
    stewart_sum_plain,
)

CFG = QuadConfig()


def _report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_exact_values_and_enumerations():
    started = time.perf_counter()
    cli_c3 = invoke(cli_main, ["exact", "3"]).output.splitlines()[0]
    cli_c5 = invoke(cli_main, ["exact", "5"]).output.splitlines()[0]
    checks = (
        cli_c3 == "5",
        cli_c5 == "42",
        catalan_exact(3) == 5,
        catalan_exact(5) == 42,
        count_balanced_parentheses(3) == 5,
        count_polygon_triangulations(7) == 42,
    )
    elapsed = time.perf_counter() - started
    _report(
        "exact values and enumerations",
        all(checks) and elapsed < 1.0,
        f"C_3={cli_c3}, C_5={cli_c5}, parens(3), 7-gon, {elapsed:.2f}s < 1s",
    )


def test_criterion_2_malmsten_representation_sweep():
    started = time.perf_counter()
    worst = 0.0
    for n in range(51):
        row = catalan_malmsten(n, CFG)
        assert row.converged, n
        worst = max(worst, row.abs_err_ln)
    elapsed = time.perf_counter() - started
    _report(
        "malmsten route, n = 0..50",
        worst <= 1e-9 and elapsed < 30.0,
        f"max |ln err| = {worst:.3e} <= 1e-9, {elapsed:.1f}s < 30s",
    )


def test_criterion_3_cross_representation_sweep():
    started = time.perf_counter()
    rows = compare_representations(50, CFG)
    elapsed = time.perf_counter() - started
    all_converged = all(row.converged for row in rows)
    worst = max(row.abs_err_ln for row in rows if row.converged)
    _report(
        "five-route sweep, n = 0..50",
        all_converged and worst <= 1e-8 and elapsed < 120.0,
        f"{len(rows)} rows, all converged = {all_converged}, "
        f"max |ln err| = {worst:.3e} <= 1e-8, {elapsed:.1f}s < 120s",
    )


def test_criterion_4_log_gamma_kernel_route():
    worst = 0.0
    for x in (0.0, 0.25, 0.5, 1.0, 2.5, 7.0, 20.0):
        result = log_gamma_malmsten(x, CFG)
        assert result.converged, x
        reference = 0.0 if x == 0.0 else log_gamma_reference(x + 1.0)
        worst = max(worst, abs(result.value - reference))
    _report(
        "log-Gamma kernel route",
        worst <= 1e-10,
        f"max |err| = {worst:.3e} <= 1e-10 over seven abscissae",
    )


def test_criterion_5_binet_closure():
    worst = 0.0
    bounds_ok = True
    for x in (1.0, 2.0, 5.0, 10.0):
        theta = binet_theta(x, CFG)
        assert theta.converged, x
        main_terms = x * math.log(x) - x + 0.5 * math.log(2.0 * math.pi * x)
        closure = abs(log_gamma_reference(x + 1.0) - main_terms - theta.value)
        worst = max(worst, closure)
        bounds_ok = bounds_ok and 0.0 < theta.value < 1.0 / (12.0 * x)
    _report(
        "Binet closure",
        worst <= 1e-10 and bounds_ok,
        f"max closure gap = {worst:.3e} <= 1e-10, theta within (0, 1/12x)",
    )


def _checkpoint_containment(limit: float, odd_weight: bool) -> bool:
    for checkpoint in (10, 100, 1000):
        partial = math.fsum(
            sum_rule_term(n, odd_weight=odd_weight) for n in range(checkpoint)
        )
        term = sum_rule_term(checkpoint, odd_weight=odd_weight)
        width = series_tail_bound(checkpoint, odd_weight=odd_weight)
        lo, hi = _tail_enclosure(checkpoint, term, width, odd_weight)
        if not partial + lo <= limit <= partial + hi:
            return False
    return True


def test_criterion_6_sum_rule_plain():
    started = time.perf_counter()
    result = stewart_sum_plain(tol=1e-6)
    elapsed = time.perf_counter() - started
    contained = _checkpoint_containment(result.target, odd_weight=False)
    _report(
        "plain sum rule",
        result.abs_err <= 2e-6 and contained and elapsed < 30.0,
        f"certified {result.certified_value:.10f} vs target "
        f"{result.target:.10f}, |err| = {result.abs_err:.3e} <= 2e-6, "
        f"checkpoints contain target = {contained}, {elapsed:.1f}s < 30s",
    )


def test_criterion_6_sum_rule_odd_weight():
    # EXPECTED FAILURE, kept red deliberately.  The machinery passes the
    # same certification against the series' measured limit
    # (test_series.py); what fails is the stated closed-form target:
    # the series converges to 1.0124197378042575..., which sits 0.188
    # below 8 sqrt(2) / (3 pi).  Weighting by (2n + 1) instead of
    # dividing reproduces that target; the identity as printed does not.
    started = time.perf_counter()
    result = stewart_sum_odd_weight(tol=1e-6)
    elapsed = time.perf_counter() - started
    contained = _checkpoint_containment(result.target, odd_weight=True)
    _report(
        "odd-weight sum rule",
        result.abs_err <= 2e-6 and contained and elapsed < 30.0,
        f"certified {result.certified_value:.10f} vs target "
        f"{result.target:.10f}, |err| = {result.abs_err:.3e}, "
        f"checkpoints contain target = {contained}, {elapsed:.1f}s",
    )


def test_criterion_7_glaisher_constant():
    started = time.perf_counter()
    result = glaisher_from_integral(CFG)
    elapsed = time.perf_counter() - started
    _report(
        "Glaisher-Kinkelin recovery",
        result.abs_err <= 1e-8 and elapsed < 10.0,
        f"ln A = {result.ln_A:.12f}, |err vs oracle| = {result.abs_err:.3e} "
        f"<= 1e-8, {elapsed:.1f}s < 10s",
    )


def test_criterion_8_property_suites():
    # (a) Triple equality of the exact integer routes through n = 200.
    triple = all(
        catalan_exact(n) == catalan_segner(n) == catalan_hypergeometric(n)
        for n in range(201)
    )

    # (b) Quadrature honesty: true error <= 10x estimate on a corpus of
    # closed forms, finite and half-line.
    honesty = True
    corpus_size = 0
    for _, f, a, b, exact in FINITE_CORPUS:
        result = integrate_finite(f, a, b, CFG)
        honesty = honesty and result.converged
        honesty = honesty and abs(result.value - exact) <= 10.0 * result.error_estimate
        corpus_size += 1
    for _, f, tail, exact in HALF_LINE_CORPUS:
        result = integrate_half_line(f, CFG, tail=tail)
        honesty = honesty and result.converged
        honesty = honesty and abs(result.value - exact) <= 10.0 * result.error_estimate
        corpus_size += 1

    # (c) Every kernel family, evaluated at t = 1e-6, against its
    # analytic origin limit.
    origin_ok = True
    specs = kernel_origin_cases()
    for _, spec, limit, _ in specs:
        raw = spec.integrand(1e-6)
        origin_ok = origin_ok and abs(raw - limit) <= 0.01 * (1.0 + abs(limit))

    # (d) Frullani split, pointwise: the Malmsten-Catalan kernel is its
    # defining form less (3/2)(e^{-(n+1/2) t} - e^{-t}) / t.
    pointwise = True
    for n in (0, 1, 5):
        f = malmsten_catalan_kernel(n).integrand
        g = log_gamma_difference_kernel(n).integrand
        for t in (0.1, 1.0, 5.0):
            split = g(t) - frullani_term(n, t)
            pointwise = pointwise and abs(f(t) - split) <= 1e-13 * max(1.0, abs(f(t)))

    _report(
        "property suites",
        triple and honesty and origin_ok and pointwise,
        f"triple equality n <= 200 = {triple}, honesty on {corpus_size} "
        f"closed forms = {honesty}, origin consistency on {len(specs)} "
        f"kernels = {origin_ok}, Frullani split = {pointwise}",
    )


def test_exact_log_route_agreement():
    # Companion check used by several criteria: the split-log route
    # agrees with Stirling for a deep index without float overflow.
    via_gamma = (
        2.0 * 100 * math.log(2.0)
        - 0.5 * math.log(math.pi)
        + log_gamma_reference(100.5)
        - log_gamma_reference(102.0)
    )
    assert abs(ln_exact(100) - via_gamma) <= 1e-10
