"""Verification report assembly and serialization.

A ``Report`` is the machine-readable product of a representation sweep:
one row per (n, method) pair plus a summary.  Serializations are
deterministic byte for byte given the same rows and configuration,
except for the ``generated_at`` timestamp, the UTC time to the whole
second as ``YYYY-MM-DDTHH:MM:SS+00:00``.  Their layout is part of that
byte-stable contract:

* JSON: one top-level object in the layout of ``json.dumps(payload,
  indent=2)``: 2-space indent, fixed key order (``schema_version``,
  ``generated_at``, ``config``, ``rows``, ``summary``; row fields in
  ``ROW_FIELDS`` order), floats as ``repr`` (shortest round-trip),
  non-finite floats as ``null``, lowercase true/false.
* CSV: header ``n,method,ln_value,exact_ln,abs_err_ln,
  quad_error_estimate,evaluations,converged``, LF line endings,
  17-significant-digit floats written as nan/inf literals when
  non-finite, lowercase true/false.
* text: an aligned table for humans, same ordering.

The header and the summary of the JSON go through ``json.dumps``.  The
rows, which are nearly all of the bytes, are written one format string
per row, in the same layout: with an indent, CPython's ``json`` never
reaches its C encoder, and its pure-Python one would cost more than
building the rows.  A row's method is written as its route's ``value``,
of ``[a-z_]`` characters only, so it is quoted as it stands: JSON has
nothing in it to escape.  CSV rows are one format string each as well.
``tests/oracles.py`` keeps the stdlib-encoder forms that both must
match byte for byte.
"""

from __future__ import annotations

import json
import math
import time
from typing import NamedTuple, get_type_hints

from .exact import MAX_INDEX
from .quadrature import QuadConfig
from .representations import ROUTES, RepresentationResult

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

ROW_FIELDS = RepresentationResult._fields


class ReportSummary(NamedTuple):
    """Aggregates over the rows: worst ln-scale error among converged rows,
    and the count of rows that failed (not converged, or error above the
    threshold the report was built with)."""

    max_abs_err_ln: float
    failures: int


class Report(NamedTuple):
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
    # A NaN error fails the comparison, and so the row.
    failures = sum(not (r.converged and r.abs_err_ln <= err_threshold) for r in rows)
    max_err = max((r.abs_err_ln for r in rows if r.converged), default=0.0)
    return Report(
        schema_version=SCHEMA_VERSION,
        generated_at=time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        config={**config._asdict(), "err_threshold": err_threshold},
        rows=tuple(rows),
        summary=ReportSummary(max_abs_err_ln=max_err, failures=failures),
    )


_JSON_ROW = (
    "    {\n"
    + ",\n".join(f'      "{field}": %s' for field in ROW_FIELDS)
    + "\n    }"
)
_CSV_ROW = "%d,%s,%.17g,%.17g,%.17g,%.17g,%d,%s\n"


def _json_float(x: float) -> str:
    # json has no NaN/Infinity; failed rows get null fields.
    return float.__repr__(x) if math.isfinite(x) else "null"


def to_json(report: Report) -> str:
    head = json.dumps(
        {
            "schema_version": report.schema_version,
            "generated_at": report.generated_at,
            "config": report.config,
        },
        indent=2,
        allow_nan=False,
    )
    max_err = report.summary.max_abs_err_ln
    summary = json.dumps(
        {
            "summary": {
                "max_abs_err_ln": max_err if math.isfinite(max_err) else None,
                "failures": report.summary.failures,
            }
        },
        indent=2,
        allow_nan=False,
    )
    rows = ",\n".join(
        [
            _JSON_ROW
            % (
                r.n,
                '"%s"' % r.method.value,
                _json_float(r.ln_value),
                _json_float(r.exact_ln),
                _json_float(r.abs_err_ln),
                _json_float(r.quad_error_estimate),
                r.evaluations,
                "true" if r.converged else "false",
            )
            for r in report.rows
        ]
    )
    rows = f"[\n{rows}\n  ]" if rows else "[]"
    # head ends in "\n}" and summary starts with "{\n": the rows go between.
    return f'{head[:-2]},\n  "rows": {rows},\n{summary[2:]}\n'


_ROUTES_BY_VALUE = {route.value: route for route in ROUTES}
_ROW_KEYS = frozenset(ROW_FIELDS)
_CONFIG_KEYS = frozenset((*QuadConfig._fields, "err_threshold"))
# A parsed row's values have exactly the types of RepresentationResult.
_ROW_TYPES = tuple(get_type_hints(RepresentationResult).values())


def _parse_row(r: object) -> RepresentationResult:
    """The row that a JSON row stands for, if to_json could have written it."""
    if type(r) is not dict:
        raise ValueError(f"a row must be an object, got {r!r}")
    if r.keys() != _ROW_KEYS:
        odd = sorted(r.keys() ^ _ROW_KEYS)
        raise ValueError(f"row keys differ from ROW_FIELDS in {odd}")
    method = r["method"]
    route = _ROUTES_BY_VALUE.get(method) if type(method) is str else None
    if route is None:
        raise ValueError(f"unknown method {method!r}")
    row = RepresentationResult(
        r["n"], route, r["ln_value"], r["exact_ln"], r["abs_err_ln"],
        r["quad_error_estimate"], r["evaluations"], r["converged"],
    )
    if tuple(map(type, row)) != _ROW_TYPES:
        # A NaN float is written as null.
        row = row._replace(**{f: math.nan for f in ROW_FIELDS[2:6] if r[f] is None})
        for field, x, t in zip(ROW_FIELDS, row, _ROW_TYPES):
            if type(x) is not t:
                raise ValueError(f"row field {field!r} cannot be {r[field]!r}")
    if not 0 <= row.n <= MAX_INDEX:
        raise ValueError(f"row field 'n' cannot be {row.n!r}")
    return row


def _summary(summary: object) -> ReportSummary:
    """The summary that a JSON summary stands for, if to_json could have
    written it (a NaN maximum is written as null)."""
    if type(summary) is not dict:
        raise ValueError(f"summary must be an object, got {summary!r}")
    if missing := set(ReportSummary._fields) - summary.keys():
        raise ValueError(f"summary lacks {sorted(missing)}")
    max_err, failures = summary["max_abs_err_ln"], summary["failures"]
    if max_err is not None and type(max_err) is not float:
        raise ValueError(f"summary field 'max_abs_err_ln' cannot be {max_err!r}")
    if type(failures) is not int or failures < 0:
        raise ValueError(f"summary field 'failures' cannot be {failures!r}")
    return ReportSummary(math.nan if max_err is None else max_err, failures)


def parse_report_json(text: str) -> Report:
    """Inverse of to_json (null fields come back as NaN).

    Raises ValueError, naming the value or field, on a report that is not
    a JSON object, a ``schema_version`` other than ``SCHEMA_VERSION``, a
    missing or unknown top-level key, a ``generated_at`` that is not a
    string, a ``config`` that is not an object, lacks or adds a field, or
    holds values ``QuadConfig`` refuses or an ``err_threshold`` that is
    not a finite number >= 0, ``rows`` that is not a list, a row
    whose keys are not ``ROW_FIELDS``, whose field has the wrong JSON
    type or whose ``n`` lies outside 0..MAX_INDEX, an unknown ``method``,
    and a ``summary`` that is not an object, lacks a field, or holds a
    ``max_abs_err_ln`` that is neither a float nor null or a
    ``failures`` that is not an int >= 0.
    """
    payload = json.loads(text)
    if type(payload) is not dict:
        raise ValueError(f"a report must be an object, got {type(payload).__name__}")
    if missing := set(Report._fields) - payload.keys():
        raise ValueError(f"report lacks {sorted(missing)}")
    if unknown := payload.keys() - set(Report._fields):
        raise ValueError(f"report has unknown keys {sorted(unknown)}")
    schema = payload["schema_version"]
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {schema!r}, expected {SCHEMA_VERSION!r}"
        )
    for key, kind, name in (
        ("generated_at", str, "a string"),
        ("config", dict, "an object"),
        ("rows", list, "a list"),
    ):
        if type(payload[key]) is not kind:
            raise ValueError(f"{key} must be {name}, got {payload[key]!r}")
    config = payload["config"]
    if config.keys() != _CONFIG_KEYS:
        raise ValueError(f"config keys differ in {sorted(config.keys() ^ _CONFIG_KEYS)}")
    quad = {field: config[field] for field in QuadConfig._fields}
    try:
        QuadConfig(**quad)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config fields {quad} are refused: {exc}") from None
    threshold = config["err_threshold"]
    if type(threshold) not in (int, float) or not 0 <= threshold < math.inf:
        raise ValueError(f"config field 'err_threshold' cannot be {threshold!r}")
    return Report(
        schema_version=schema,
        generated_at=payload["generated_at"],
        config=config,
        rows=tuple(map(_parse_row, payload["rows"])),
        summary=_summary(payload["summary"]),
    )


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def to_csv(report: Report) -> str:
    rows = "".join(
        [
            _CSV_ROW
            % (
                r.n,
                r.method.value,
                r.ln_value,
                r.exact_ln,
                r.abs_err_ln,
                r.quad_error_estimate,
                r.evaluations,
                "true" if r.converged else "false",
            )
            for r in report.rows
        ]
    )
    return ",".join(ROW_FIELDS) + "\n" + rows


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
