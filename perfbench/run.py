"""Benchmark for catalan-integrals: three workloads, checked against mpmath.

    python3 perfbench/run.py --workload sweep|large_n|series|all \
        --seed N --seconds S --trace 0|1

Run it from the repository root.  Every pass runs in a fresh worker
interpreter (see worker.py), one at a time, so each pays the cold start
a CLI call pays.  Passes repeat until S seconds have gone by (at least
three untraced passes; with --trace 1, untraced and traced passes
alternate, at least two of each).  The parent checks every output
against an mpmath oracle computed before the first pass, outside any
timed region.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The lines above it
print every metric with its unit, the provenance and the counters.
The full record, with the spans of the traced passes, goes to
perfbench/results/.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
BASELINE = HERE / "baseline.json"

# Threshold on |answer - oracle| for ln C_n (the `verify` and `rep`
# default) and for ln A (the `glaisher` command's check).
ERR_THRESHOLD = 1e-8
# A quadrature row is honest when its true error is at most this many
# times its own estimate: the package's contract, with no floor added.
HONESTY_FACTOR = 10.0
# exact_ln must be this close to the oracle, in ulp of the oracle.
EXACT_ULPS = 2.0
# Ulp of the partial sum allowed on each side of a sum rule's interval
# for the float rounding of that sum.
SUM_ROUNDING_ULPS = 2.0

MIN_PASSES = 3
MIN_TRACE_PASSES = 2
# Stop starting passes once the next one could end past this, so that a
# run stays inside the 180 s it may take.
BUDGET_S = 140.0
WORKER_TIMEOUT_S = 170.0
IMPORTTIME_WORKERS = 3

ROUTES = ("gamma_closed_form", "malmsten", "binet", "penson_moment", "penson_mellin")


class BenchmarkError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


# --- workloads ---------------------------------------------------------------

SWEEP_N_MAX = 200
# The top edge of each half-decade from 10^2.5 to 10^5.
LARGE_N = tuple(round(10 ** (k / 2)) for k in range(6, 11))
SERIES_TOLS = (1e-6, 1e-8, 1e-9, 1e-10)

WORKLOADS = {
    "sweep": {
        "inputs": str(SWEEP_N_MAX),
        "ops": len(ROUTES) * (SWEEP_N_MAX + 1) + 1,
        "why": "compare_representations(200) plus report round trip: quadrature and kernels",
    },
    "large_n": {
        "inputs": ",".join(map(str, LARGE_N)),
        "ops": 3 * len(LARGE_N),
        "why": "three routes at n = 1e3 .. 1e5: bigint work in ln_exact",
    },
    "series": {
        "inputs": ",".join(map(repr, SERIES_TOLS)),
        "ops": 2 * len(SERIES_TOLS) + 1,
        "why": "both sum rules at four tolerances, then Glaisher: the Catalan table",
    },
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verified_frac": "ratio",
    "honest_frac": "ratio",
    "peak_rss_mb": "MB",
}

COUNTERS = {
    "exact.ln_exact.calls": "count",
    "exact.bigint_bits": "bit",
    "exact.table_build.calls": "count",
    "exact.table_build.entries": "count",
    "kernels.evals": "count",
    "quadrature.calls": "count",
    "quadrature.unconverged": "count",
    "quadrature.panels": "count",
    "representations.rows": "count",
    **{f"representations.evals.{r}": "count" for r in ROUTES},
    "series.terms": "count",
    "series.terms_over_needed": "ratio",
    "report.bytes": "B",
}

SELF_TIMES = (
    "exact.ln_exact.self_s",
    "exact.table_build.self_s",
    "kernels.self_s",
    "quadrature.self_s",
    "representations.self_s",
    "series.self_s",
    "report.self_s",
)

IMPORT_METRICS = {
    "cli.import.numpy_s": "s",
    "cli.import.click_s": "s",
    "cli.import.package_s": "s",
    "cli.import.modules": "count",
}

PER_LAYER = {
    **COUNTERS,
    **{name: "s" for name in SELF_TIMES},
    **IMPORT_METRICS,
    "trace.overhead_frac": "ratio",
}


# --- workers -----------------------------------------------------------------


def _python(*args: str, timeout: float = WORKER_TIMEOUT_S) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(
            [sys.executable, "-I", *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
            check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out after {timeout} s: {args[:2]}") from exc


def warm_up() -> None:
    """Import the package once (writing its bytecode) and check where it lives."""
    proc = _python(
        "-c",
        "import sys; sys.path.insert(0, sys.argv[1]); import catalan_integrals.cli, "
        "catalan_integrals as p; print(p.__file__)",
        str(SRC),
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"cannot import the package from {SRC}:\n{proc.stderr}")
    if Path(proc.stdout.strip()).resolve().parent.parent != SRC:
        raise BenchmarkError(f"imported {proc.stdout.strip()}, not the package under {SRC}")


def import_breakdown() -> dict[str, float]:
    """cli.import.* from `python -X importtime`, median of a few fresh workers."""
    marker = "@@perfbench-import@@"
    samples = defaultdict(list)
    for _ in range(IMPORTTIME_WORKERS):
        proc = _python(
            "-X",
            "importtime",
            "-c",
            f"import sys; sys.path.insert(0, sys.argv[1]); sys.stderr.write('{marker}\\n'); "
            "import catalan_integrals.cli",
            str(SRC),
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"importtime worker failed:\n{proc.stderr}")
        lines = proc.stderr.split(marker, 1)[1].splitlines()
        total = numpy_us = click_us = 0
        modules = 0
        for line in lines:
            if not line.startswith("import time:"):
                continue
            _, cumulative, name = line.split("|")
            depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
            name = name.strip()
            us = int(cumulative)
            modules += 1
            if depth == 0:
                total += us
            if name == "numpy":
                numpy_us += us
            elif name == "click":
                click_us += us
        samples["cli.import.numpy_s"].append(numpy_us / 1e6)
        samples["cli.import.click_s"].append(click_us / 1e6)
        samples["cli.import.package_s"].append((total - numpy_us - click_us) / 1e6)
        samples["cli.import.modules"].append(modules)
    return {k: statistics.median(v) for k, v in samples.items()}


def run_pass(workload: str, traced: bool) -> dict:
    proc = _python(
        str(HERE / "worker.py"),
        str(SRC),
        workload,
        "1" if traced else "0",
        WORKLOADS[workload]["inputs"],
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr}")
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise BenchmarkError(f"{workload} worker printed no record:\n{proc.stdout}") from exc
    record["traced"] = traced
    return record


# --- checks against the oracle ------------------------------------------------


class Tally:
    """Operation outcomes, plus the integrity problems that make a run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.with_bar = 0
        self.dishonest = 0
        self.problems: list[str] = []
        self.failures: dict[str, int] = defaultdict(int)
        self.dishonesty: dict[str, int] = defaultdict(int)

    def add(self, label: str, failed: bool, bar: bool | None = None) -> None:
        """One operation: ``bar`` is None without an error bar, else whether it held."""
        self.attempted += 1
        if failed:
            self.failed += 1
            self.failures[label] += 1
        if bar is not None:
            self.with_bar += 1
            if not bar:
                self.dishonest += 1
                self.dishonesty[label] += 1


def check_route_row(tally: Tally, oracle, row: dict) -> None:
    truth = oracle.ln_catalan(row["n"])
    label = f"{row['method']}@{row['n']}"
    value = row["ln_value"]
    if not math.isfinite(value):
        tally.add(label, failed=True)
        return
    err = oracle.abs_diff(value, truth)
    failed = not row["converged"] or not err <= ERR_THRESHOLD
    bar = None
    if row["method"] != "gamma_closed_form":
        bar = err <= HONESTY_FACTOR * row["quad_error_estimate"]
    tally.add(label, failed, bar)
    exact_err = oracle.abs_diff(row["exact_ln"], truth)
    if not exact_err <= EXACT_ULPS * math.ulp(float(truth)):
        tally.problems.append(
            f"exact_ln({row['n']}) is {exact_err:.3e} from the oracle, "
            f"more than {EXACT_ULPS:g} ulp"
        )


def check_sweep(tally: Tally, oracle, out: dict) -> None:
    expected = len(ROUTES) * (SWEEP_N_MAX + 1)
    if out["rows"] is None:
        for _ in range(expected + 1):
            tally.add("compare_representations raised", failed=True)
        return
    if len(out["rows"]) != expected:
        tally.problems.append(f"sweep returned {len(out['rows'])} rows, expected {expected}")
    for row in out["rows"]:
        check_route_row(tally, oracle, row)
    report = out["report"]
    tally.add("report", failed=report is None or not report["round_trip"])


def check_large_n(tally: Tally, oracle, out: dict) -> None:
    for op in out["ops"]:
        if "error" in op:
            tally.add(f"{op['method']}@{op['n']}", failed=True)
        else:
            check_route_row(tally, oracle, op)


def check_series(tally: Tally, oracle, out: dict) -> None:
    ctx = oracle.ctx
    for item in out["sums"]:
        label = f"{item['which']}@{item['tol']:g}"
        if "error" in item:
            tally.add(label, failed=True)
            continue
        limit = oracle.plain_limit if item["which"] == "plain" else oracle.odd_weight_limit
        partial = item["partial_sum"]
        if not (math.isfinite(partial) and math.isfinite(item["certified_value"])):
            tally.add(label, failed=True)
            continue
        widen = SUM_ROUNDING_ULPS * math.ulp(partial)
        low = ctx.mpf(partial) - widen
        high = ctx.mpf(partial) + ctx.mpf(item["tail_bound"]) + widen
        # The `sumrule` command's criterion, against the true limit.
        miss = oracle.abs_diff(item["certified_value"], limit)
        failed = not miss <= item["tol"] + item["tail_bound"]
        tally.add(label, failed, bar=bool(low <= limit <= high))
    glaisher = out["glaisher"]
    if "error" in glaisher:
        tally.add("glaisher", failed=True)
    else:
        miss = oracle.abs_diff(glaisher["ln_A"], oracle.ln_glaisher)
        tally.add("glaisher", failed=not miss <= ERR_THRESHOLD)


CHECKS = {"sweep": check_sweep, "large_n": check_large_n, "series": check_series}


# --- counters and span times ----------------------------------------------------

_LN2 = math.log(2.0)


def catalan_bit_length(k: int) -> int:
    """Bit length of C_k from lgamma; exact when log2 C_k is too near an integer to call."""
    x = (math.lgamma(2 * k + 1) - math.lgamma(k + 1) - math.lgamma(k + 2)) / _LN2
    whole = math.floor(x)
    if min(x - whole, whole + 1 - x) < 1e-6:
        return (math.comb(2 * k, k) // (k + 1)).bit_length()
    return whole + 1


class BitCounter:
    """Cached bit lengths and prefix sums of C_0, C_1, ..."""

    def __init__(self) -> None:
        self._prefix = [0]

    def table(self, max_n: int) -> int:
        """Summed bit length of C_0 .. C_max_n."""
        for k in range(len(self._prefix) - 1, max_n + 1):
            self._prefix.append(self._prefix[-1] + catalan_bit_length(k))
        return self._prefix[max_n + 1]

    def single(self, n: int) -> int:
        if n + 1 < len(self._prefix):
            return self._prefix[n + 1] - self._prefix[n]
        return catalan_bit_length(n)


def counters(record: dict, bits: BitCounter) -> dict:
    out = record["outputs"]
    rows = out.get("rows") or [op for op in out.get("ops", []) if "error" not in op]
    sums = [s for s in out.get("sums", []) if "error" not in s]
    quads = record["quadratures"]
    builds = record["table_builds"]
    evals_by_route = {r: 0 for r in ROUTES}
    for row in rows:
        evals_by_route[row["method"]] += row["evaluations"]
    series_evals = sum(e for consumer, e, _ in quads if consumer == "series")
    needed = sum(s["needed"] for s in sums)
    report = out.get("report") or {}
    values = {
        "exact.ln_exact.calls": len(record["ln_exact_args"]),
        "exact.bigint_bits": sum(bits.single(n) for n in record["ln_exact_args"])
        + sum(bits.table(m) for m in builds),
        "exact.table_build.calls": len(builds),
        "exact.table_build.entries": sum(m + 1 for m in builds),
        "kernels.evals": sum(evals_by_route.values()) + series_evals,
        "quadrature.calls": len(quads),
        "quadrature.unconverged": sum(1 for _, _, ok in quads if not ok),
        "quadrature.panels": sum(e for _, e, _ in quads) / 15,
        "representations.rows": len(rows),
        **{f"representations.evals.{r}": e for r, e in evals_by_route.items()},
        "series.terms": sum(s["terms_used"] for s in sums),
        "series.terms_over_needed": sum(s["terms_used"] for s in sums) / needed if needed else 0.0,
        "report.bytes": report.get("bytes", 0),
    }
    return values


def self_times(spans: list) -> dict:
    """Per-layer self time: each span's duration minus its children and kernel time."""
    children = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent] += end - start
    totals = dict.fromkeys(SELF_TIMES, 0.0)
    for i, (name, start, end, _, _, kernel_s) in enumerate(spans):
        layer = name if name.startswith("exact.") else name.split(".", 1)[0]
        totals[f"{layer}.self_s"] += end - start - children[i] - kernel_s
        totals["kernels.self_s"] += kernel_s
    return totals


def baseline_diff(workload: str, values: dict) -> str:
    """How the counters differ from the recorded baseline; information only."""
    try:
        base = json.loads(BASELINE.read_text())[workload]["counters"]
    except (OSError, ValueError, KeyError):
        return "no baseline recorded"
    moved = [f"{k} {base.get(k)} -> {v}" for k, v in values.items() if base.get(k) != v]
    return "; ".join(moved) or "all equal"


# --- provenance ---------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def provenance(workload: str, seed: int, seconds: float, untraced: int, traced: int) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "click": _version("click"),
        "mpmath": _version("mpmath"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "ops_per_pass": WORKLOADS[workload]["ops"],
        "passes_untraced": untraced,
        "passes_traced": traced,
    }


# --- one workload ---------------------------------------------------------------


def _want_more(records: list, trace: bool, elapsed: float, seconds: float) -> bool:
    untraced = sum(1 for r in records if not r["traced"])
    traced = len(records) - untraced
    if records and elapsed + records[-1]["elapsed"] > BUDGET_S:
        return untraced == 0 or (trace and traced == 0)
    if trace:
        enough = min(untraced, traced) >= MIN_TRACE_PASSES
    else:
        enough = untraced >= MIN_PASSES
    return not enough or elapsed < seconds


def _scaled(raw_s: float, reference: dict) -> float:
    """A raw time in reference seconds.

    The raw time is multiplied by the nominal over the median time of a
    fixed computation (passes.REFERENCES) that the same worker ran next
    to it: right after the import for setup_s, before and after the pass
    for the pass time.  The host's speed drifts by tens of percent over
    minutes, and a reference taken in the same worker seconds apart
    cancels most of it when it does the same kind of work.  The raw
    times are printed and recorded next to the scaled ones.
    """
    return raw_s * reference["nominal_s"] / statistics.median(reference["samples_s"])


def _setup_s(record: dict) -> float:
    return _scaled(record["setup_s"], record["setup_reference"])


def _wall_s(record: dict) -> float:
    return _scaled(record["wall_s"], record["pass_reference"])


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def collect(workload: str, trace: bool, seconds: float, oracle) -> list[dict]:
    """Fill the oracle for the workload's inputs, then run its passes."""
    warm_up()
    if workload == "series":
        _ = oracle.plain_limit, oracle.odd_weight_limit, oracle.ln_glaisher
    else:
        for n in range(SWEEP_N_MAX + 1) if workload == "sweep" else LARGE_N:
            oracle.ln_catalan(n)
    records = []
    start = time.perf_counter()
    while _want_more(records, trace, time.perf_counter() - start, seconds):
        traced = trace and len(records) % 2 == 1
        t0 = time.perf_counter()
        record = run_pass(workload, traced)
        record["elapsed"] = time.perf_counter() - t0
        records.append(record)
    return records


def summarize(workload: str, records: list[dict], tally: Tally, counts: list[dict], imports: dict):
    """End-to-end metrics from the untraced passes, per-layer from all of them."""
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    end_to_end = {
        "setup_s": statistics.median(_setup_s(r) for r in untraced),
        "wall_s": statistics.median(_wall_s(r) for r in untraced),
        "verified_frac": 1.0 - tally.failed / tally.attempted,
        "honest_frac": 1.0 - tally.dishonest / tally.with_bar if tally.with_bar else 0.0,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    per_layer = {**counts[0], **imports}
    if traced:
        layer_runs = [(self_times(r["spans"]), _wall_s(r) / r["wall_s"]) for r in traced]
        for name in SELF_TIMES:
            per_layer[name] = statistics.median(t[name] * k for t, k in layer_runs)
        traced_wall = statistics.median(_wall_s(r) for r in traced)
        per_layer["trace.overhead_frac"] = traced_wall / end_to_end["wall_s"] - 1.0
    return end_to_end, per_layer


def render(workload, records, tally, end_to_end, per_layer, repeat, prov) -> list[str]:
    untraced = [r for r in records if not r["traced"]]
    walls = [_wall_s(r) for r in untraced]
    q1, q3 = _quartiles(walls)
    reference_s = statistics.median(t for r in records for t in r["pass_reference"]["samples_s"])
    missing = sorted({m for r in records for m in r["missing"]})
    dishonest_frac = tally.dishonest / tally.with_bar if tally.with_bar else 0.0
    lines = [
        f"== {workload}: {WORKLOADS[workload]['why']}",
        "provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()),
        f"  host: pass reference {reference_s:.6f} s (median), nominal "
        f"{records[0]['pass_reference']['nominal_s']} s",
        f"  setup_s          {end_to_end['setup_s']:.6f} s   median of {len(untraced)} workers "
        f"(raw {statistics.median(r['setup_s'] for r in untraced):.6f} s); raw -X importtime: "
        f"numpy {per_layer['cli.import.numpy_s']:.4f} s, click "
        f"{per_layer['cli.import.click_s']:.4f} s, the rest "
        f"{per_layer['cli.import.package_s']:.4f} s, {per_layer['cli.import.modules']:g} modules",
        f"  wall_s           {end_to_end['wall_s']:.6f} s   median of {len(walls)} passes, "
        f"quartiles {q1:.6f} .. {q3:.6f} s (raw median "
        f"{statistics.median(r['wall_s'] for r in untraced):.6f} s)",
        f"  failed_frac      {tally.failed / tally.attempted:.6g} ratio   "
        f"{tally.failed} of {tally.attempted} operations {dict(tally.failures) or ''}",
        f"  dishonest_frac   {dishonest_frac:.6g} ratio   {tally.dishonest} of {tally.with_bar} "
        f"answers with an error bar {dict(tally.dishonesty) or ''}",
        f"  verified_frac    {end_to_end['verified_frac']:.6g} ratio",
        f"  honest_frac      {end_to_end['honest_frac']:.6g} ratio",
        f"  peak_rss_mb      {end_to_end['peak_rss_mb']:.2f} MB",
    ]
    for name, unit in PER_LAYER.items():
        if name in per_layer:
            lines.append(f"  {name:<40} {per_layer[name]:.6g} {unit}")
    sums = records[0]["outputs"].get("sums", [])
    if sums:
        terms = ", ".join(f"{x['which']}@{x['tol']:g} {x.get('terms_used', 'raised')}" for x in sums)
        lines.append(f"  terms per sum: {terms}")
    lines.append(f"  missing spans: {', '.join(missing) or 'none'}")
    lines.append(f"  counters repeat across {len(records)} passes: {repeat}")
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool, oracle) -> tuple[dict, list]:
    """Run one workload; return its result object and the lines to print."""
    imports = import_breakdown()
    records = collect(workload, trace, seconds, oracle)

    tally = Tally()
    bits = BitCounter()
    counts = []
    for record in records:
        if Path(record["package_file"]).resolve().parent.parent != SRC:
            tally.problems.append(f"a worker imported {record['package_file']}")
        CHECKS[workload](tally, oracle, record["outputs"])
        counts.append(counters(record, bits))
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        tally.problems.append("the counters differ between passes")
    for problem in sorted(set(tally.problems)):
        print(f"perfbench: {problem}", file=sys.stderr)

    end_to_end, per_layer = summarize(workload, records, tally, counts, imports)
    metrics, units = (per_layer, PER_LAYER) if trace else (end_to_end, END_TO_END)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    traced = sum(1 for r in records if r["traced"])
    prov = provenance(workload, seed, seconds, len(records) - traced, traced)
    lines = render(workload, records, tally, end_to_end, per_layer, repeat, prov)
    lines.append(f"  counters against {BASELINE.name}: {baseline_diff(workload, counts[0])}")

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    passes = [
        {key: r[key] for key in ("traced", "setup_s", "wall_s", "setup_reference",
                                 "pass_reference", "peak_rss_mb", "spans")} | {"counters": c}
        for r, c in zip(records, counts)
    ]
    record = {
        "provenance": prov,
        "result": result,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "problems": sorted(set(tally.problems)),
        "passes": passes,
    }
    path.write_text(json.dumps(record) + "\n")
    lines.append(f"  record: {path.relative_to(ROOT)}")
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "catalan_integrals" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    try:
        from oracle import Oracle

        oracle = Oracle()
    except ImportError as exc:
        print(f"perfbench: the mpmath oracle cannot run: {exc}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace), oracle)
            print("\n".join(lines), flush=True)
            results[name] = result
    except (BenchmarkError, ArithmeticError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        for name, result in results.items():
            print(f"{name}: {json.dumps(result)}")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
