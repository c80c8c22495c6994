"""The three workload passes, run inside a worker through the public API.

Each pass function runs the workload's fixed batch and returns its
outputs together with a ``finish`` callback.  The caller times only the
pass; ``finish`` converts the results to plain JSON data afterwards,
together with the checks that need the package's own types (the report
round trip).  Every operation that raises is caught and recorded with
its error, so one failure cannot hide the rest of the batch.
"""

from __future__ import annotations

import math
import resource
import time

import catalan_integrals as ci
from catalan_integrals import exact, report, representations, series
from tracing import Tracer

# The `verify` and `rep` default threshold on abs_err_ln.
ERR_THRESHOLD = 1e-8

LARGE_N_ROUTES = ("gamma_closed_form", "malmsten", "binet")
SUM_RULES = ("plain", "odd_weight")


def _float_and_bigint() -> None:
    acc = 0.0
    for i in range(1, 80_000):
        acc += math.log(i) * math.sqrt(i)
    big = math.comb(24_000, 12_000)
    big = big * big // (big + 1)


def _table_recurrence() -> None:
    values = [1]
    for k in range(6000):
        values.append(values[k] * 2 * (2 * k + 1) // (k + 2))


# Fixed computations that do not touch the package, each with its usual
# time on the machine the benchmark was written on.  The first mirrors
# interpreter work (imports, quadrature) and bigint products (ln_exact);
# the second mirrors the Catalan table build that dominates `series`.
REFERENCES = {
    "float_and_bigint": (_float_and_bigint, 0.03),
    "table_recurrence": (_table_recurrence, 0.018),
}


REFERENCE_REPEATS = 5


def reference_samples(kind: str) -> list[float]:
    """Times of one reference computation; run.py scales the times taken
    next to them by nominal / median, so that the host's speed drifting
    between runs cancels out."""
    work = REFERENCES[kind][0]
    times = []
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        work()
        times.append(time.perf_counter() - t0)
    return times


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _row(r) -> dict:
    return {
        "n": r.n,
        "method": r.method.value,
        "ln_value": r.ln_value,
        "exact_ln": r.exact_ln,
        "quad_error_estimate": r.quad_error_estimate,
        "evaluations": r.evaluations,
        "converged": r.converged,
    }


def sweep(tracer: Tracer, n_max: int):
    """compare_representations(n_max), then a report with its JSON round trip and CSV."""
    config = ci.QuadConfig()
    out = {"rows": None, "rows_error": None, "report": None, "report_error": None}
    try:
        rows = tracer.call(
            "representations.compare_representations",
            ci.compare_representations,
            n_max,
            config,
        )
    except Exception as exc:
        out["rows_error"] = _error(exc)
        return out, lambda: None
    built = None
    try:
        built = tracer.call(
            "report.build_report", report.build_report, rows, config, ERR_THRESHOLD
        )
        text = tracer.call("report.to_json", report.to_json, built)
        csv_text = tracer.call("report.to_csv", report.to_csv, built)
        parsed = tracer.call("report.parse_report_json", report.parse_report_json, text)
    except Exception as exc:
        out["report_error"] = _error(exc)
        built = None

    def finish():
        out["rows"] = [_row(r) for r in rows]
        if built is None:
            return
        round_trip = (
            parsed.rows == built.rows
            and parsed.summary == built.summary
            and parsed.config == built.config
            and csv_text.count("\n") == len(built.rows) + 1
        )
        # The timestamp is the one part of the JSON whose length may vary.
        size = (
            len(text.encode())
            - len(built.generated_at.encode())
            + len(csv_text.encode())
        )
        out["report"] = {"round_trip": round_trip, "bytes": size}

    return out, finish


def large_n(tracer: Tracer, ns: list[int]):
    """The three routes that accept n > 200, once per n."""
    config = ci.QuadConfig()
    routes = {
        "gamma_closed_form": lambda n: ci.catalan_gamma_closed_form(n),
        "malmsten": lambda n: ci.catalan_malmsten(n, config),
        "binet": lambda n: ci.catalan_binet(n, config),
    }
    results = []
    for n in ns:
        for method in LARGE_N_ROUTES:
            try:
                r = tracer.call(f"representations.catalan_{method}", routes[method], n)
            except Exception as exc:
                r = _error(exc)
            results.append((n, method, r))
    out = {"ops": []}

    def finish():
        for n, method, r in results:
            if isinstance(r, str):
                out["ops"].append({"n": n, "method": method, "error": r})
            else:
                out["ops"].append(_row(r))

    return out, finish


def _terms_needed(tol: float, odd_weight: bool) -> int:
    """Smallest N >= 4 with series_tail_bound(N) <= tol, by bisection."""
    lo, hi = 4, 4
    while ci.series_tail_bound(hi, odd_weight=odd_weight) > tol:
        lo, hi = hi, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if ci.series_tail_bound(mid, odd_weight=odd_weight) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return hi


def series_pass(tracer: Tracer, tols: list[float]):
    """Both sum rules at each tolerance in the given order, then Glaisher."""
    rules = {"plain": ci.stewart_sum_plain, "odd_weight": ci.stewart_sum_odd_weight}
    sums = []
    for tol in tols:
        for which in SUM_RULES:
            try:
                r = tracer.call(f"series.stewart_sum_{which}", rules[which], tol)
            except Exception as exc:
                r = _error(exc)
            sums.append((which, tol, r))
    try:
        glaisher = tracer.call(
            "series.glaisher_from_integral", ci.glaisher_from_integral, ci.QuadConfig()
        )
    except Exception as exc:
        glaisher = _error(exc)
    out = {"sums": [], "glaisher": None}

    def finish():
        for which, tol, r in sums:
            item = {
                "which": which,
                "tol": tol,
                "needed": _terms_needed(tol, which == "odd_weight"),
            }
            if isinstance(r, str):
                item["error"] = r
            else:
                item.update(
                    partial_sum=r.partial_sum,
                    tail_bound=r.tail_bound,
                    certified_value=r.certified_value,
                    terms_used=r.terms_used,
                )
            out["sums"].append(item)
        if isinstance(glaisher, str):
            out["glaisher"] = {"error": glaisher}
        else:
            out["glaisher"] = {"ln_A": glaisher.ln_A}

    return out, finish


# Workload: (pass, input parser, reference for the pass time).
PASSES = {
    "sweep": (sweep, int, "float_and_bigint"),
    "large_n": (large_n, lambda s: [int(x) for x in s.split(",")], "float_and_bigint"),
    "series": (series_pass, lambda s: [float(x) for x in s.split(",")], "table_recurrence"),
}
SETUP_REFERENCE = "float_and_bigint"


def run(workload: str, traced: bool, inputs: str) -> dict:
    """Install the taps, run one timed pass and return its record."""
    body, parse, reference = PASSES[workload]
    tracer = Tracer(timed=traced)
    tracer.install(representations, series, exact.CatalanTable)
    args = parse(inputs)
    setup_reference_s = reference_samples(SETUP_REFERENCE)
    before_s = reference_samples(reference)
    t0 = time.perf_counter()
    outputs, finish = body(tracer, args)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after_s = reference_samples(reference)
    finish()
    return {
        "package_file": ci.__file__,
        "wall_s": wall_s,
        "setup_reference": {
            "nominal_s": REFERENCES[SETUP_REFERENCE][1],
            "samples_s": setup_reference_s,
        },
        "pass_reference": {
            "nominal_s": REFERENCES[reference][1],
            "samples_s": before_s + after_s,
        },
        "peak_rss_mb": peak_rss_mb,
        "outputs": outputs,
        "ln_exact_args": tracer.ln_exact_args,
        "table_builds": tracer.table_builds,
        "quadratures": tracer.quadratures,
        "missing": tracer.missing,
        "spans": tracer.spans,
    }
