"""Verification report assembly and serialization.

A ``Report`` is the machine-readable product of a representation sweep:
one row per (n, method) pair plus a summary.  Serializations are
deterministic byte for byte given the same rows and configuration,
except for the ``generated_at`` timestamp:

* JSON: one top-level object; row field names and order are fixed.
* CSV: header ``n,method,ln_value,exact_ln,abs_err_ln,
  quad_error_estimate,evaluations,converged``, LF line endings,
  17-significant-digit floats, lowercase true/false.
* text: an aligned table for humans, same ordering.

Non-finite floats (failed rows carry NaN) serialize as JSON null; the
CSV writes them as nan/inf literals.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

from .quadrature import QuadConfig
from .representations import Method, RepresentationResult

__all__ = [
    "ROW_FIELDS",
    "SCHEMA_VERSION",
    "Report",
    "ReportSummary",
    "build_report",
    "parse_report_json",
    "to_csv",
    "to_json",
    "to_text",
]

SCHEMA_VERSION = "1"

ROW_FIELDS = (
    "n",
    "method",
    "ln_value",
    "exact_ln",
    "abs_err_ln",
    "quad_error_estimate",
    "evaluations",
    "converged",
)


@dataclass(frozen=True)
class ReportSummary:
    """Aggregates over the rows: worst ln-scale error among converged rows,
    and the count of rows that failed (not converged, or error above the
    threshold the report was built with)."""

    max_abs_err_ln: float
    failures: int


@dataclass(frozen=True)
class Report:
    schema_version: str
    generated_at: str
    config: dict
    rows: tuple[RepresentationResult, ...]
    summary: ReportSummary


def build_report(
    rows: list[RepresentationResult], config: QuadConfig, err_threshold: float
) -> Report:
    """Assemble a Report; a row fails if it did not converge or its
    abs_err_ln exceeds ``err_threshold``."""
    failures = sum(
        1
        for r in rows
        if not r.converged or not (r.abs_err_ln <= err_threshold)
    )
    converged_errs = [r.abs_err_ln for r in rows if r.converged]
    max_err = max(converged_errs) if converged_errs else 0.0
    return Report(
        schema_version=SCHEMA_VERSION,
        generated_at=datetime.now(timezone.utc).isoformat(),
        config={**asdict(config), "err_threshold": err_threshold},
        rows=tuple(rows),
        summary=ReportSummary(max_abs_err_ln=max_err, failures=failures),
    )


def _row_dict(row: RepresentationResult) -> dict:
    return {
        "n": row.n,
        "method": row.method.value,
        "ln_value": row.ln_value,
        "exact_ln": row.exact_ln,
        "abs_err_ln": row.abs_err_ln,
        "quad_error_estimate": row.quad_error_estimate,
        "evaluations": row.evaluations,
        "converged": row.converged,
    }


def _json_safe(x: float):
    # json has no NaN/Infinity; failed rows become null fields.
    return x if math.isfinite(x) else None


def to_json(report: Report) -> str:
    payload = {
        "schema_version": report.schema_version,
        "generated_at": report.generated_at,
        "config": report.config,
        "rows": [
            {
                k: (_json_safe(v) if isinstance(v, float) else v)
                for k, v in _row_dict(r).items()
            }
            for r in report.rows
        ],
        "summary": {
            "max_abs_err_ln": _json_safe(report.summary.max_abs_err_ln),
            "failures": report.summary.failures,
        },
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def parse_report_json(text: str) -> Report:
    """Inverse of to_json (null fields come back as NaN)."""
    payload = json.loads(text)

    def num(x) -> float:
        return float("nan") if x is None else float(x)

    rows = tuple(
        RepresentationResult(
            n=r["n"],
            method=Method(r["method"]),
            ln_value=num(r["ln_value"]),
            exact_ln=num(r["exact_ln"]),
            abs_err_ln=num(r["abs_err_ln"]),
            quad_error_estimate=num(r["quad_error_estimate"]),
            evaluations=r["evaluations"],
            converged=r["converged"],
        )
        for r in payload["rows"]
    )
    return Report(
        schema_version=payload["schema_version"],
        generated_at=payload["generated_at"],
        config=payload["config"],
        rows=rows,
        summary=ReportSummary(
            max_abs_err_ln=num(payload["summary"]["max_abs_err_ln"]),
            failures=payload["summary"]["failures"],
        ),
    )


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def to_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ROW_FIELDS)
    for r in report.rows:
        writer.writerow(
            [
                r.n,
                r.method.value,
                _fmt(r.ln_value),
                _fmt(r.exact_ln),
                _fmt(r.abs_err_ln),
                _fmt(r.quad_error_estimate),
                r.evaluations,
                "true" if r.converged else "false",
            ]
        )
    return buf.getvalue()


def to_text(report: Report) -> str:
    lines = [
        f"representation sweep ({len(report.rows)} rows), schema {report.schema_version}",
        f"config: {report.config}",
        "",
        f"{'n':>4} {'method':<18} {'ln_value':>24} {'abs_err_ln':>12} "
        f"{'quad_err':>12} {'evals':>7} {'ok':>5}",
    ]
    for r in report.rows:
        lines.append(
            f"{r.n:>4} {r.method.value:<18} {r.ln_value:>24.17g} "
            f"{r.abs_err_ln:>12.3e} {r.quad_error_estimate:>12.3e} "
            f"{r.evaluations:>7} {'yes' if r.converged else 'NO':>5}"
        )
    lines.append("")
    lines.append(
        f"summary: max_abs_err_ln = {report.summary.max_abs_err_ln:.3e}, "
        f"failures = {report.summary.failures}"
    )
    return "\n".join(lines) + "\n"
