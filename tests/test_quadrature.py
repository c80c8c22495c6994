"""Adaptive Gauss-Kronrod core and the half-line reduction."""

import itertools
import math
import random
import re
import sys

import pytest

from closed_forms import FINITE_CORPUS, HALF_LINE_CORPUS
from oracles import kronrod_panel_reference
from catalan_integrals import quadrature, representations
from catalan_integrals.exact import CatalanTable
from catalan_integrals.kernels import binet_catalan_kernel, malmsten_catalan_kernel
from catalan_integrals.quadrature import (
    _EPS,
    _WG,
    _XGK,
    IntegrandEvaluationError,
    QuadConfig,
    QuadResult,
    TailBound,
    _kronrod_panel,
    integrate_finite,
    integrate_half_line,
)
from catalan_integrals.report import Report, ReportSummary, build_report
from catalan_integrals.representations import (
    ROUTES,
    RepresentationResult,
    Route,
    catalan_gamma_closed_form,
)
from catalan_integrals.series import (
    GlaisherResult,
    SeriesResult,
    glaisher_from_integral,
    stewart_sum_plain,
)


# ---------------------------------------------------------------- panel


def _each(f):
    """The panel function that samples the plain function f at each node."""
    return lambda ts: [f(t) for t in ts]


def _gauss_rule(f):
    # The G10 rule embedded in the tables, on [-1, 1].
    return sum(w * (f(-x) + f(x)) for w, x in zip(_WG, _XGK[1::2]))


def test_panel_polynomial_exactness():
    # The 21-point Kronrod rule integrates polynomials of degree <= 31
    # exactly and its embedded 10-point Gauss rule those of degree <= 19;
    # check every monomial against (b^{d+1} - a^{d+1})/(d + 1).
    for degree in range(32):
        value, _, _ = _kronrod_panel(_each(lambda x, d=degree: x**d), 0.0, 1.0)
        exact = 1.0 / (degree + 1)
        assert abs(value - exact) <= 1e-13 * exact
    for degree in range(20):
        value = 0.5 * _gauss_rule(lambda x, d=degree: (0.5 + 0.5 * x) ** d)
        exact = 1.0 / (degree + 1)
        assert abs(value - exact) <= 1e-13 * exact
    # The next even degree is missed on [-1, 1], so the tables hold
    # these two rules and no rules of higher degree.
    value, _, _ = _kronrod_panel(_each(lambda x: x**32), -1.0, 1.0)
    assert abs(value - 2.0 / 33.0) > 1e-12
    assert abs(_gauss_rule(lambda x: x**20) - 2.0 / 21.0) > 1e-6


def test_panel_estimate_dominates_true_error():
    # On a single panel the sharpened |K21 - G10| estimate must not
    # understate the true error for generic smooth integrands.
    cases = [
        (math.exp, 0.0, 1.0, math.e - 1.0),
        (math.sin, 0.0, math.pi, 2.0),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
    ]
    for f, a, b, exact in cases:
        value, err, _ = _kronrod_panel(_each(f), a, b)
        assert abs(value - exact) <= 10.0 * err


def test_panel_flags_non_finite_samples():
    def bad(x):
        return float("nan") if x < 0.2 else 1.0

    with pytest.raises(IntegrandEvaluationError) as exc_info:
        _kronrod_panel(_each(bad), 0.0, 1.0)
    assert 0.0 < exc_info.value.abscissa < 0.2


def _recorded_panels(monkeypatch):
    """Route every panel the driver takes through a recorder: the list
    fills with (f, a, b, result) as integrations run, f the panel
    function the driver was given."""
    panels = []

    def recording(f, a, b):
        result = _kronrod_panel(f, a, b)
        panels.append((f, a, b, result))
        return result

    monkeypatch.setattr(quadrature, "_kronrod_panel", recording)
    return panels


def _assert_panels_match_reference(panels):
    assert panels
    for f, a, b, result in panels:
        assert result == kronrod_panel_reference(f, a, b), (a, b)


BIT_IDENTITY_NS = (0, 1, 7, 200, 100_000)


@pytest.mark.parametrize("n", BIT_IDENTITY_NS)
@pytest.mark.parametrize(
    "kernel", [malmsten_catalan_kernel, binet_catalan_kernel], ids=["malmsten", "binet"]
)
def test_panel_is_bit_identical_to_loop_on_kernels(kernel, n, cfg, monkeypatch):
    panels = _recorded_panels(monkeypatch)
    spec = kernel(n)
    # The plain kernel under the map, as the routes integrate it.
    integrate_half_line(spec.integrand, cfg, tail=spec.tail_constants)
    assert len({id(f) for f, *_ in panels}) == 1
    _assert_panels_match_reference(panels)


@pytest.mark.parametrize("n", BIT_IDENTITY_NS)
def test_panel_is_bit_identical_to_loop_on_penson(n, cfg, monkeypatch):
    panels = _recorded_panels(monkeypatch)
    representations._penson_moment(n, cfg)
    representations._penson_mellin(n, cfg)
    # One integrand, the Mellin route's over one finite interval: the
    # moment route takes the trapezoid rule and no panel.
    assert len({id(f) for f, *_ in panels}) == 1
    _assert_panels_match_reference(panels)


def test_panel_is_bit_identical_to_loop_on_finite_corpus(cfg, monkeypatch):
    panels = _recorded_panels(monkeypatch)
    for _, f, a, b, _ in FINITE_CORPUS:
        integrate_finite(f, a, b, cfg)
    _assert_panels_match_reference(panels)


def _panel_nodes(a, b):
    nodes = []
    _kronrod_panel(lambda ts: nodes.extend(ts) or list(ts), a, b)
    return nodes


def test_panel_samples_center_then_pairs_in_node_order():
    h, center = 2.0, 1.0
    expected = [center]
    for x in _XGK:
        expected += [center - h * x, center + h * x]
    assert _panel_nodes(-1.0, 3.0) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
def test_panel_names_each_non_finite_node(bad):
    nodes = _panel_nodes(-1.0, 3.0)
    for node in nodes:

        def f(t, node=node):
            return bad if t == node else t

        for panel in (_kronrod_panel, kronrod_panel_reference):
            with pytest.raises(IntegrandEvaluationError) as exc_info:
                panel(_each(f), -1.0, 3.0)
            assert exc_info.value.abscissa == node
            assert repr(exc_info.value.value) == repr(bad)


def test_panel_names_the_first_of_two_non_finite_nodes():
    nodes = _panel_nodes(-1.0, 3.0)
    for first, second in itertools.combinations(nodes, 2):
        bad = {first: math.nan, second: math.inf}

        def f(t, bad=bad):
            return bad.get(t, t)

        with pytest.raises(IntegrandEvaluationError) as exc_info:
            _kronrod_panel(_each(f), -1.0, 3.0)
        assert exc_info.value.abscissa == first
        assert math.isnan(exc_info.value.value)


def test_panel_overflowing_finite_samples_raise_nothing():
    # Every sample is finite, only the sums overflow: the panel reads
    # inf, as the loop form does, and the driver's tolerance decides.
    for panel in (_kronrod_panel, kronrod_panel_reference):
        assert panel(_each(lambda t: 1e308), 0.0, 4.0) == (math.inf, math.inf, math.inf)


def test_panel_takes_every_sample_before_checking():
    # All 21 samples are taken, in one call, before any is checked, so an
    # exception that f raises at a later node propagates ahead of the
    # evaluation error for an earlier non-finite sample; the loop form,
    # one node a call, stops first.
    nodes = _panel_nodes(0.0, 1.0)

    def f(t):
        if t == nodes[0]:
            return math.nan
        if t == nodes[5]:
            raise ZeroDivisionError("late node")
        return t

    with pytest.raises(ZeroDivisionError):
        _kronrod_panel(_each(f), 0.0, 1.0)
    with pytest.raises(IntegrandEvaluationError):
        kronrod_panel_reference(_each(f), 0.0, 1.0)


def _inverse_sqrt(t):
    return 1.0 / math.sqrt(t) if t > 0.0 else 0.0


@pytest.mark.parametrize(
    "integrate",
    [
        lambda f, cfg: integrate_finite(f, 0.0, 1.0, cfg),
        lambda f, cfg: integrate_half_line(
            lambda t: f(t) * math.exp(-50.0 * t), cfg, tail=TailBound(1.0, 50.0)
        ),
        lambda f, cfg: integrate_half_line(
            lambda t: f(t) * math.exp(-t), cfg, tail=TailBound(1.0, 0.5)
        ),
    ],
    ids=["unseeded", "seeded", "truncated-half-line"],
)
def test_evaluations_count_the_calls_to_f(integrate, cfg):
    calls = [0]

    def counted(t):
        calls[0] += 1
        return _inverse_sqrt(t)

    result = integrate(counted, cfg)
    assert result.evaluations == calls[0] > 15


# ------------------------------------------------------- finite interval


@pytest.mark.parametrize(
    "label, f, a, b, exact", FINITE_CORPUS, ids=[c[0] for c in FINITE_CORPUS]
)
def test_finite_corpus_convergence_and_honesty(label, f, a, b, exact, cfg):
    result = integrate_finite(f, a, b, cfg)
    assert result.converged, label
    # Convergence invariant: the estimate meets the configured tolerance.
    assert result.error_estimate <= cfg.tolerance_for(result.value)
    # Honesty invariant: the true error never exceeds ten times the
    # reported estimate.
    assert abs(result.value - exact) <= 10.0 * result.error_estimate, label


def test_linearity_on_random_polynomials(cfg):
    rng = random.Random(12345)
    for _ in range(20):
        coeffs_f = [rng.uniform(-2.0, 2.0) for _ in range(9)]
        coeffs_g = [rng.uniform(-2.0, 2.0) for _ in range(9)]
        alpha = rng.uniform(-3.0, 3.0)
        beta = rng.uniform(-3.0, 3.0)

        def poly(coeffs):
            def f(x):
                acc = 0.0
                for c in reversed(coeffs):
                    acc = acc * x + c
                return acc

            return f

        f, g = poly(coeffs_f), poly(coeffs_g)
        combo = lambda x: alpha * f(x) + beta * g(x)  # noqa: E731
        rf = integrate_finite(f, -1.0, 2.0, cfg)
        rg = integrate_finite(g, -1.0, 2.0, cfg)
        rc = integrate_finite(combo, -1.0, 2.0, cfg)
        slack = (
            rc.error_estimate
            + abs(alpha) * rf.error_estimate
            + abs(beta) * rg.error_estimate
            + 1e-13
        )
        assert abs(rc.value - alpha * rf.value - beta * rg.value) <= slack


def test_single_smooth_panel_costs_one_rule(cfg):
    result = integrate_finite(math.exp, 0.0, 1.0, cfg)
    assert result.evaluations == 21
    assert result.converged


def test_singular_integrand_needs_subdivision(cfg):
    smooth = integrate_finite(math.exp, 0.0, 1.0, cfg)
    singular = integrate_finite(
        lambda x: 1.0 / math.sqrt(x) if x > 0.0 else 0.0, 0.0, 1.0, cfg
    )
    assert singular.evaluations > smooth.evaluations


def test_invalid_interval_rejected(cfg):
    with pytest.raises(ValueError):
        integrate_finite(math.exp, 1.0, 1.0, cfg)
    with pytest.raises(ValueError):
        integrate_finite(math.exp, 2.0, 1.0, cfg)
    with pytest.raises(ValueError):
        integrate_finite(math.exp, 0.0, math.inf, cfg)
    # An int past the largest float compares below inf, and would raise
    # OverflowError on its way into a float.
    top = sys.float_info.max
    message = f"an interval edge cannot be {10**400}: must be a real number from {-top!r} to "
    message += f"{top!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        integrate_finite(lambda x: 1.0, 0, 10**400, cfg)
    for breakpoints in ((0.0,), (1.0,), (1.5,), (0.6, 0.4), (0.5, 0.5), (math.nan,)):
        with pytest.raises(ValueError):
            integrate_finite(math.exp, 0.0, 1.0, cfg, breakpoints=breakpoints)


def test_breakpoints_start_one_panel_each(cfg):
    # Each breakpoint inside (a, b) adds one starting panel, which is not
    # a subdivision; the smooth integrand needs no bisection on either.
    result = integrate_finite(math.exp, 0.0, 1.0, cfg, breakpoints=(0.25, 0.5))
    assert result.evaluations == 3 * 21
    assert result.converged
    assert abs(result.value - (math.e - 1.0)) <= 10.0 * result.error_estimate


@pytest.mark.parametrize("c", [1e-3, 0.5, 1.0, 1e4, 1e8], ids=repr)
def test_map_takes_an_exponential_in_one_panel(c, cfg):
    # t = -(8/c) ln(1 - u) turns e^{-c t} dt into (8/c)(1 - u)^7 du,
    # which one G10/K21 panel integrates exactly, whatever the rate.
    result = integrate_half_line(lambda t: math.exp(-c * t), cfg, tail=TailBound(1.0, c))
    assert result.evaluations == 21
    assert result.converged
    assert abs(result.value - 1.0 / c) <= 10.0 * result.error_estimate


def test_the_one_panel_is_not_a_subdivision():
    # max_subdivisions limits bisections only: with one allowed, a
    # singular integrand costs the panel [0, 1] and one bisection.
    one = QuadConfig(abs_tol=1e-15, rel_tol=0.0, max_subdivisions=1)
    result = integrate_half_line(
        lambda t: math.exp(-t) / math.sqrt(t) if t > 0.0 else 0.0,
        one,
        tail=TailBound(1.0, 1.0),
    )
    assert result.evaluations == 21 + 42
    assert not result.converged


def test_a_false_tail_bound_is_unconverged_not_raised(cfg):
    # f = 1 breaks the bound: mapped, it is 8/(1 - u), which bisection
    # chases into u = 1.  A node that rounds to 1 reads 0 there instead
    # of reaching log1p(-1), and the driver stops unconverged.
    result = integrate_half_line(lambda t: 1.0, cfg, tail=TailBound(1.0, 1.0))
    assert not result.converged


def test_non_convergence_is_reported_not_raised():
    tight = QuadConfig(abs_tol=1e-15, rel_tol=0.0, max_subdivisions=3)
    result = integrate_finite(
        lambda x: 1.0 / math.sqrt(x) if x > 0.0 else 0.0, 0.0, 1.0, tight
    )
    assert not result.converged
    assert result.error_estimate > tight.tolerance_for(result.value)


def test_an_infinite_estimate_is_not_converged(cfg):
    # A constant over the whole double range integrates to inf, with an
    # infinite estimate: an infinite value makes the relative target
    # infinite as well, and inf <= inf must not count as converged.
    top = sys.float_info.max
    result = integrate_finite(lambda x: 1.0, -top, top, cfg)
    assert result.value == result.error_estimate == math.inf
    assert result.evaluations == 21
    assert not result.converged


@pytest.mark.parametrize(
    "f, value",
    [(lambda x: 1.0, math.inf), (lambda x: math.copysign(2.0, x), math.nan)],
    ids=["overflow", "inf-minus-inf"],
)
def test_panels_that_sum_past_the_largest_float_are_not_converged(f, value, cfg):
    # Split at 0, each half of the double range holds finite samples, but
    # the two panel values sum past the largest float (math.fsum raised
    # OverflowError here), or are +inf and -inf (fsum raised ValueError).
    # Either way the call returns like the one without the breakpoint:
    # the value, an infinite estimate, unconverged, and no bisection.
    top = sys.float_info.max
    result = integrate_finite(f, -top, top, cfg, breakpoints=(0.0,))
    assert math.isnan(result.value) if math.isnan(value) else result.value == value
    assert result.error_estimate == math.inf
    assert result.evaluations == 42
    assert not result.converged


@pytest.mark.parametrize("a", [-1.0, -sys.float_info.max], ids=["-1", "-max"])
def test_no_node_is_infinite_next_to_the_largest_float(a, cfg):
    # On [-1, max] the centre 0.5 (a + b) of the panel [max/2, max],
    # after one bisection, overflowed to inf, in the panel and in the
    # driver's midpoint, and on [-max, max] so did the half-width
    # 0.5 (b - a) of the first panel: math.cos raised a bare ValueError
    # at the infinite node.  Both are now taken without overflow.
    top = sys.float_info.max
    nodes = []

    def cos(t):
        nodes.append(t)
        return math.cos(t)

    result = integrate_finite(cos, a, top, cfg)
    assert isinstance(result, QuadResult)
    assert result.evaluations == len(nodes)
    assert all(a <= t <= top for t in nodes)
    assert integrate_finite(math.cos, a, top, cfg) == result


def test_panel_centre_keeps_its_bits_where_the_edges_sum_finitely():
    # Only a sum or a difference that overflows takes the halved edges:
    # on subnormal edges 0.5 a + 0.5 b would round differently.
    a, b = 5e-324, 1e-323
    assert 0.5 * a + 0.5 * b != 0.5 * (a + b)
    assert quadrature._midpoint(a, b) == 0.5 * (a + b)
    assert _panel_nodes(a, b)[0] == 0.5 * (a + b)


def test_a_first_pass_that_meets_the_target_builds_no_heap(cfg, monkeypatch):
    class NoHeap:
        def __getattr__(self, name):
            raise AssertionError(f"heapq.{name} called")

    monkeypatch.setattr(quadrature, "heapq", NoHeap())
    result = integrate_finite(math.exp, 0.0, 1.0, cfg, breakpoints=(0.5,))
    assert result.converged and result.evaluations == 42
    assert abs(result.value - (math.e - 1.0)) <= result.error_estimate
    with pytest.raises(AssertionError, match="heapq"):
        integrate_finite(lambda x: abs(x - 0.3), 0.0, 1.0, cfg)


def test_driver_stops_at_the_float_floor():
    # A target below the 50 eps resabs floor of a smooth panel cannot be
    # met by bisection, which only splits the floor between the halves:
    # the driver returns the first panel, unconverged, in place of
    # spending its whole budget (2,000 bisections, 84,021 evaluations).
    below = QuadConfig(abs_tol=1e-30, rel_tol=1e-30)
    result = integrate_finite(math.exp, 0.0, 1.0, below)
    assert result.evaluations == 21
    assert not result.converged
    assert abs(result.value - (math.e - 1.0)) <= result.error_estimate
    assert result.error_estimate <= 100.0 * _EPS * (math.e - 1.0)


def test_driver_bisects_above_the_float_floor():
    # The floor alone does not stop the driver: while the error left
    # above the floors exceeds them, as next to a singularity, it bisects
    # until its budget is spent.
    below = QuadConfig(abs_tol=1e-30, rel_tol=1e-30, max_subdivisions=50)
    result = integrate_finite(_inverse_sqrt, 0.0, 1.0, below)
    assert result.evaluations == 21 + 50 * 42
    assert not result.converged


def test_driver_stops_at_float_resolution():
    # On [1, nextafter(1, 2)] the midpoint rounds onto an endpoint, so
    # the panel cannot be bisected.  Its one nonzero sample, at t = 1,
    # leaves an error of 8.3e-17 against a 50 eps floor of 1.8e-30, so
    # the float-floor stop does not take it: the resolution stop does,
    # after the first panel, unconverged.
    b = math.nextafter(1.0, 2.0)

    def spike(t):
        return 1.0 if t == 1.0 else 0.0

    _, err, floor = _kronrod_panel(_each(spike), 1.0, b)
    assert err - floor > floor
    result = integrate_finite(spike, 1.0, b, QuadConfig(1e-300, 0))
    assert result.evaluations == 21
    assert not result.converged
    assert result.error_estimate == err


def test_evaluation_error_carries_abscissa(cfg):
    def bad(x):
        return float("inf") if 0.4 < x < 0.6 else x

    with pytest.raises(IntegrandEvaluationError) as exc_info:
        integrate_finite(bad, 0.0, 1.0, cfg)
    assert 0.4 < exc_info.value.abscissa < 0.6


def test_a_node_rounds_onto_the_right_endpoint():
    # Bisection closes in on t = 1 until a node rounds onto it, so an
    # integrand must be finite at both endpoints; 1/sqrt(1 - t) is not.
    def f(t):
        return 1.0 / math.sqrt(1.0 - t) if t < 1.0 else math.inf

    with pytest.raises(IntegrandEvaluationError) as exc_info:
        integrate_finite(f, 0.0, 1.0, QuadConfig())
    assert exc_info.value.abscissa == 1.0


def test_no_node_rounds_onto_the_left_endpoint_at_zero():
    # Next to t = 0 float resolution is subnormal, so 1/sqrt(t) is
    # never sampled at 0 (where it would raise) and converges.
    samples = []

    def f(t):
        samples.append(t)
        return 1.0 / math.sqrt(t)

    result = integrate_finite(f, 0.0, 1.0, QuadConfig())
    assert result.converged
    assert abs(result.value - 2.0) <= 1e-12
    assert result.evaluations == len(samples) == 3003
    assert min(samples) > 0.0


# -------------------------------------------------------- configuration


def test_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(abs_tol=-1e-12)
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=-1e-11)
    with pytest.raises(ValueError):
        QuadConfig(abs_tol=0.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadConfig(max_subdivisions=0)
    with pytest.raises(ValueError):
        QuadConfig(abs_tol=float("nan"))
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=float("nan"))
    with pytest.raises(ValueError):
        QuadConfig(abs_tol=math.inf)
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=math.inf)
    # An int past the largest float compares below inf, and would accept
    # any first estimate as converged just the same.
    for abs_tol, rel_tol in ((10**400, 0), (0, 2**1024)):
        name, value = ("abs_tol", abs_tol) if abs_tol else ("rel_tol", rel_tol)
        with pytest.raises(ValueError, match=_real_refused(name, value, 0)):
            QuadConfig(abs_tol, rel_tol)
    assert QuadConfig(sys.float_info.max, 0).abs_tol == sys.float_info.max
    # _replace builds a new config and must check it as well.
    with pytest.raises(ValueError):
        QuadConfig()._replace(abs_tol=-1e-12)
    # bool is an int, so True and False would pass the range checks as 1 and 0.
    for field in QuadConfig._fields:
        for value in (True, False):
            if field == "max_subdivisions":
                message = _budget_refused(value)
            else:
                message = _real_refused(field, value, 0)
            with pytest.raises(ValueError, match=message):
                QuadConfig(**{field: value})
            with pytest.raises(ValueError, match=message):
                QuadConfig()._replace(**{field: value})


def _real_refused(name, value, least):
    """The pattern of ``exact._check_real``'s refusal, up to the largest float."""
    top = sys.float_info.max
    message = f"{name} cannot be {value!r}: must be a real number from {least!r} to {top!r}"
    return f"^{re.escape(message)}$"


def _budget_refused(value):
    message = f"max_subdivisions cannot be {value!r}: must be an integer from 1 to inf"
    return f"^{re.escape(message)}$"


@pytest.mark.parametrize("budget", [2.5, 100.0, "10", None])
def test_config_rejects_a_non_int_budget(budget):
    # The moment route turns the budget into a range() bound.
    with pytest.raises(ValueError, match=_budget_refused(budget)):
        QuadConfig(max_subdivisions=budget)
    with pytest.raises(ValueError, match=_budget_refused(budget)):
        QuadConfig()._replace(max_subdivisions=budget)


def test_tolerance_for_mixes_absolute_and_relative():
    config = QuadConfig(abs_tol=1e-12, rel_tol=1e-11)
    assert config.tolerance_for(0.0) == 1e-12
    assert config.tolerance_for(100.0) == pytest.approx(1e-9)


# ----------------------------------------------------------- half line


@pytest.mark.parametrize(
    "label, f, tail, exact",
    HALF_LINE_CORPUS,
    ids=[c[0] for c in HALF_LINE_CORPUS],
)
def test_half_line_corpus(label, f, tail, exact, cfg):
    result = integrate_half_line(f, cfg, tail=tail)
    assert result.converged, label
    assert abs(result.value - exact) <= 10.0 * result.error_estimate, label


SPIKE_WIDTH = 1e-6


def _spike(t: float) -> float:
    # t e^{-t/w} / w^2: integral 1, peak at t = w, and for w <= 1/2 it
    # sits under e^{-t} / w.
    return t * math.exp(-t / SPIKE_WIDTH) / SPIKE_WIDTH**2


@pytest.mark.parametrize("tail", [TailBound(1.0 / SPIKE_WIDTH, 1.0)], ids=["truncated"])
def test_narrow_spike_at_origin_is_found_with_its_scale(tail, cfg):
    # The map's scale is 8/c.  Stated with c = 1, the spike's first
    # panel samples no t below about 0.02, where the spike has long
    # vanished: the driver sees zeros and stops at once with a value
    # of 0.
    blind = integrate_half_line(_spike, cfg, tail=tail)
    assert abs(blind.value) <= 1e-12
    # t e^{-t/w} / w^2 <= (2 / (e w)) e^{-t/(2w)}, so c = 1/(2w) is a
    # valid rate too, and it puts the spike's own width into the map.
    fast = TailBound(1.0 / SPIKE_WIDTH, 0.5 / SPIKE_WIDTH)
    scaled = integrate_half_line(_spike, cfg, tail=fast)
    assert scaled.converged
    assert abs(scaled.value - 1.0) <= 10.0 * scaled.error_estimate


@pytest.mark.parametrize(
    "tail",
    [
        TailBound(0.0, 1.0),
        TailBound(1.0, -2.0),
        TailBound(math.nan, 1.0),
        TailBound(1.0, math.nan),
        TailBound(math.inf, 1.0),
        TailBound(1.0, math.inf),
        # An int past the largest float compares below inf, and would
        # raise OverflowError on its way into a float.
        TailBound(10**400, 1.0),
        TailBound(1.0, 10**400),
        # A bool is an int, and would pass the range check as 1.
        TailBound(True, 1.0),
        TailBound(1.0, True),
    ],
    ids=[
        "zero_K", "negative_c", "nan_K", "nan_c", "inf_K", "inf_c", "huge_int_K", "huge_int_c",
        "bool_K", "bool_c",
    ],
)
def test_explicit_tail_constants_must_be_positive(cfg, tail):
    # IntegrandEvaluationError is a ValueError too: the message must name
    # the tail bound, and the integrand must never be called.
    calls = []

    def f(t):
        calls.append(t)
        return math.exp(-t)

    # The one bad constant is the one that is not the float 1.0.
    [(field, value)] = [
        (field, value)
        for field, value in zip(tail._fields, tail)
        if not (type(value) is float and value == 1.0)
    ]
    # c's least value keeps the map's scale 8/c finite.
    least = 5e-324 if field == "K" else 8.0 / sys.float_info.max
    with pytest.raises(ValueError, match=_real_refused(f"TailBound.{field}", value, least)):
        integrate_half_line(f, cfg, tail=tail)
    assert calls == []


def test_truncation_remainder_enters_estimate(cfg):
    # With an exact tail bound K e^{-ct}, the piece the map folds away
    # contributes (K/c) 2^-424 to the estimate; the result must still
    # certify the true error honestly.
    result = integrate_half_line(
        lambda t: math.exp(-t), cfg, tail=TailBound(1.0, 1.0)
    )
    assert result.converged
    assert abs(result.value - 1.0) <= 10.0 * result.error_estimate
    assert result.error_estimate > 0.0


@pytest.mark.parametrize(
    "k, c, converged",
    [(1.0, 1.0, True), (0.5, 0.5, True), (3.0, 1e-3, True), (1.0, 1e8, True), (1e130, 1.0, False)],
    ids=["1-1", "0.5-0.5", "3-1e-3", "1-1e8", "1e130-1"],
)
def test_fold_remainder_is_the_whole_estimate_for_a_zero_integrand(k, c, converged):
    # f = 0 leaves every panel without error, so the estimate is the fold
    # remainder (K/c) 2^-424 to the bit, and the call converges exactly
    # when that meets the default target, abs_tol = 1e-12: at
    # K/c = 1e130 it is about 231.
    cfg = QuadConfig()
    result = integrate_half_line(lambda t: 0.0, cfg, tail=TailBound(k, c))
    assert result.value == 0.0
    assert result.error_estimate == k / c * 2.0**-424
    assert result.converged is converged


def test_irreducible_remainder_is_not_bisected(cfg):
    # A loose bound for e^{-t}, K = 1e130, puts the fold remainder
    # (K/c) 2^-424 at about 231, far over the target.  The map turns
    # e^{-t} into 8 (1 - u)^7, a polynomial that both rules integrate
    # exactly, so the first panel's error is its own 50 eps floor, and
    # the float-floor rule stops the driver there.
    result = integrate_half_line(lambda t: math.exp(-t), cfg, tail=TailBound(1e130, 1.0))
    assert not result.converged
    assert result.evaluations == 21
    assert abs(1.0 - result.value) <= 10.0 * result.error_estimate


def test_remainder_over_the_target_still_bisects_to_the_float_floor():
    # An absolute target far below the fold remainder (K/c) 2^-424, about
    # 2.3e-127, cannot be met, yet the panels' own error can still fall
    # to their floors: the remainder alone stops nothing, and the inverse
    # square root next to t = 0 is bisected until the float-floor rule
    # ends the call.
    result = integrate_half_line(
        lambda t: math.exp(-100.0 * t) / math.sqrt(t),
        QuadConfig(abs_tol=1e-300, rel_tol=0.0),
        tail=TailBound(1e3, 100.0),
    )
    truth = math.sqrt(math.pi) / 10.0
    assert abs(result.value - truth) <= 1e-15
    assert not result.converged
    assert abs(result.value - truth) <= 10.0 * result.error_estimate
    assert result.evaluations < 5000


def _report():
    return build_report([catalan_gamma_closed_form(3)], QuadConfig(), err_threshold=1e-8)


# Each record type, how to get one, and a field to try to assign.
RECORDS = [
    (QuadConfig, QuadConfig, "abs_tol"),
    (QuadResult, lambda: integrate_finite(math.exp, 0.0, 1.0, QuadConfig()), "value"),
    (RepresentationResult, lambda: catalan_gamma_closed_form(3), "ln_value"),
    (Route, lambda: ROUTES[0], "estimate"),
    (SeriesResult, lambda: stewart_sum_plain(1e-3), "partial_sum"),
    (GlaisherResult, lambda: glaisher_from_integral(QuadConfig()), "ln_A"),
    (ReportSummary, lambda: _report().summary, "failures"),
    (Report, _report, "rows"),
    (CatalanTable, lambda: CatalanTable.build(3), "values"),
]


@pytest.mark.parametrize(
    "kind, make, field", RECORDS, ids=[kind.__name__ for kind, _, _ in RECORDS]
)
def test_record_is_immutable(kind, make, field):
    record = make()
    assert isinstance(record, kind)
    with pytest.raises(AttributeError):
        setattr(record, field, 0.0)
