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

``to_json`` dumps the document without its rows in one ``json.dumps``
call and puts the rows in before its ``summary`` line.  The rows, which
are nearly all of the bytes, are written one format string per row, in
the same layout: with an indent, CPython's ``json`` never reaches its C
encoder, and its pure-Python one would cost more than building the
rows.  A row's method is written as its route's ``value``, of
``[a-z_]`` characters only, so it is quoted as it stands: JSON has
nothing in it to escape.  CSV rows are one format string each as well.
``tests/oracles.py`` keeps the stdlib-encoder forms that both must
match byte for byte.

``build_report`` and ``parse_report_json`` share the checks of what a
report may hold: ``_object`` for the report, its ``config``, each row
and the ``summary``, and ``_check_threshold`` for ``err_threshold``,
which is the package's ``exact._check_real`` over 0 to the largest
float; a row's ``n`` goes through ``exact._check_index``.
"""

from __future__ import annotations

import math
import re
import sys
import time
from typing import NamedTuple, Sequence, get_type_hints

from .exact import _check_index, _check_real
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
# A parsed row's values have exactly the types of RepresentationResult.
_ROW_TYPES = tuple(get_type_hints(RepresentationResult).values())


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
    abs_err_ln exceeds ``err_threshold``, an int or a float from 0 to the
    largest float, and no bool."""
    err_threshold = _check_threshold(err_threshold)
    return Report(
        schema_version=SCHEMA_VERSION,
        generated_at=time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        config={**config._asdict(), "err_threshold": err_threshold},
        rows=tuple(rows),
        summary=_summarize(rows, err_threshold),
    )


def _summarize(rows: Sequence[RepresentationResult], err_threshold: float) -> ReportSummary:
    """The summary of ``rows``.  A converged row's error that is not
    finite, which to_json writes as null and a parse reads back as NaN,
    fails its row and makes the maximum NaN, so that parsed rows give
    the summary they were written with."""
    errors = [r.abs_err_ln for r in rows if r.converged]
    passed = sum(math.isfinite(e) and e <= err_threshold for e in errors)
    max_err = max(errors, default=0.0) if all(map(math.isfinite, errors)) else math.nan
    return ReportSummary(max_abs_err_ln=max_err, failures=len(rows) - passed)


def _check_threshold(threshold: float) -> float:
    """An ``err_threshold``: an int or a float from 0 to the largest float."""
    return _check_real(threshold, 0, sys.float_info.max, "config field 'err_threshold'")


_JSON_ROW = (
    "    {\n"
    + ",\n".join(f'      "{field}": %s' for field in ROW_FIELDS)
    + "\n    }"
)
_CSV_ROW = ",".join({int: "%d", float: "%.17g"}.get(t, "%s") for t in _ROW_TYPES) + "\n"
# The row fields that to_json writes as null when they are not finite.
_FLOAT_FIELDS = tuple(f for f, t in zip(ROW_FIELDS, _ROW_TYPES) if t is float)


def _json_float(x: float) -> str:
    # json has no NaN/Infinity; failed rows get null fields.
    return float.__repr__(x) if math.isfinite(x) else "null"


def _written_summary(summary: ReportSummary) -> dict:
    """``summary`` as to_json writes it, with null for a maximum that is
    not finite."""
    max_err = summary.max_abs_err_ln
    return {"max_abs_err_ln": max_err if math.isfinite(max_err) else None,
            "failures": summary.failures}


def to_json(report: Report) -> str:
    # Imported here, like parse_report_json's, so that a CLI call that
    # writes no JSON does not load json.
    import json

    document = json.dumps(
        {
            "schema_version": report.schema_version,
            "generated_at": report.generated_at,
            "config": report.config,
            "summary": _written_summary(report.summary),
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
    # Only a top-level key starts a line with two spaces of indent.
    head, key, summary = document.rpartition('\n  "summary": ')
    return f'{head}\n  "rows": {rows},{key}{summary}\n'


_ROUTES_BY_VALUE = {route.value: route for route in ROUTES}
_REPORT_KEYS = frozenset(Report._fields)
_CONFIG_KEYS = frozenset((*QuadConfig._fields, "err_threshold"))
_ROW_KEYS = frozenset(ROW_FIELDS)
_SUMMARY_KEYS = frozenset(ReportSummary._fields)


def _object(value: object, name: str, keys: frozenset[str]) -> dict:
    """``value``, if it is a JSON object with exactly ``keys``, as to_json
    writes the object ``name``."""
    if type(value) is not dict:
        raise ValueError(f"{name} must be an object, got {value!r}")
    if value.keys() != keys:
        raise ValueError(f"{name} keys differ in {sorted(value.keys() ^ keys)}")
    return value


def _refuse_constant(name: str) -> None:
    raise ValueError(f"a report cannot hold {name}: to_json writes null for it")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, unless it repeats a key, which json.loads
    would settle silently by keeping the last value."""
    value = dict(pairs)
    if len(value) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"a report object repeats the key {max(keys, key=keys.count)!r}")
    return value


# What build_report writes as generated_at: a pattern string, which
# re compiles and caches on the first parse, not at import.
_TIMESTAMP = r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00"


def _parse_row(r: object) -> RepresentationResult:
    """The row that a JSON row stands for, if to_json could have written it."""
    _object(r, "a row", _ROW_KEYS)
    method = r["method"]
    try:
        route = _ROUTES_BY_VALUE[method]
    except (KeyError, TypeError):  # TypeError: a list or an object
        raise ValueError(f"unknown method {method!r}") from None
    row = RepresentationResult(
        r["n"], route, r["ln_value"], r["exact_ln"], r["abs_err_ln"],
        r["quad_error_estimate"], r["evaluations"], r["converged"],
    )
    if tuple(map(type, row)) != _ROW_TYPES:
        # A NaN float is written as null.
        row = row._replace(**{f: math.nan for f in _FLOAT_FIELDS if r[f] is None})
        for field, x, t in zip(ROW_FIELDS, row, _ROW_TYPES):
            if type(x) is not t:
                raise ValueError(f"row field {field!r} cannot be {r[field]!r}")
    _check_index(row.n, name="row field 'n'")
    return row


def _summary(summary: object) -> ReportSummary:
    """The summary that a JSON summary stands for, if to_json could have
    written it (a NaN maximum is written as null)."""
    _object(summary, "summary", _SUMMARY_KEYS)
    max_err, failures = summary["max_abs_err_ln"], summary["failures"]
    if max_err is not None and type(max_err) is not float:
        raise ValueError(f"summary field 'max_abs_err_ln' cannot be {max_err!r}")
    if type(failures) is not int or failures < 0:
        raise ValueError(f"summary field 'failures' cannot be {failures!r}")
    return ReportSummary(math.nan if max_err is None else max_err, failures)


def parse_report_json(text: str) -> Report:
    """Inverse of to_json (null fields come back as NaN).

    Raises ValueError, naming the value, field or constant, on what
    to_json could not have written: the constants ``NaN``, ``Infinity``
    and ``-Infinity``; an object that repeats a key; a report,
    ``config``, row or ``summary`` that is not a JSON object or lacks or
    adds a key; a ``schema_version`` other than ``SCHEMA_VERSION``; a
    ``generated_at`` that is not a string in build_report's layout;
    ``config`` values that ``QuadConfig`` refuses, or an
    ``err_threshold`` that is not an int or a float from 0 to the
    largest float; ``rows`` that is not a list; a row field of the wrong
    JSON type, an ``n`` outside 0..MAX_INDEX or an unknown ``method``;
    a ``max_abs_err_ln`` that is neither a float nor null or
    ``failures`` that is not an int >= 0; and, checked last, a summary
    that differs, as written, from the one build_report gives the rows
    and ``err_threshold``.
    """
    import json

    payload = json.loads(text, parse_constant=_refuse_constant, object_pairs_hook=_unique_keys)
    payload = _object(payload, "a report", _REPORT_KEYS)
    schema = payload["schema_version"]
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {schema!r}, expected {SCHEMA_VERSION!r}"
        )
    for key, kind, name in (("generated_at", str, "a string"), ("rows", list, "a list")):
        if type(payload[key]) is not kind:
            raise ValueError(f"{key} must be {name}, got {payload[key]!r}")
    stamp = payload["generated_at"]
    if not re.fullmatch(_TIMESTAMP, stamp, re.ASCII):
        raise ValueError(f"generated_at must read YYYY-MM-DDTHH:MM:SS+00:00, got {stamp!r}")
    config = _object(payload["config"], "config", _CONFIG_KEYS)
    quad = {field: config[field] for field in QuadConfig._fields}
    try:
        QuadConfig(**quad)
    except ValueError as exc:
        raise ValueError(f"config fields {quad} are refused: {exc}") from None
    threshold = _check_threshold(config["err_threshold"])
    rows = tuple(map(_parse_row, payload["rows"]))
    report = Report(schema, stamp, config, rows, _summary(payload["summary"]))
    # Floats as repr, as to_json writes them: -0.0 is not 0.0 here.
    written, recomputed = (
        json.dumps(_written_summary(s)) for s in (report.summary, _summarize(rows, threshold))
    )
    if written != recomputed:
        raise ValueError(f"summary {written} contradicts its rows, which give {recomputed}")
    return report


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
