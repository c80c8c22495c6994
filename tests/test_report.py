"""Report assembly and the three serializations."""

import csv
import io
import json
import math

from catalan_integrals.quadrature import QuadConfig
from catalan_integrals.report import (
    ROW_FIELDS,
    SCHEMA_VERSION,
    build_report,
    parse_report_json,
    to_csv,
    to_json,
    to_text,
)
from catalan_integrals.representations import (
    Method,
    RepresentationResult,
    compare_representations,
)

EXPECTED_HEADER = (
    "n,method,ln_value,exact_ln,abs_err_ln,quad_error_estimate,evaluations,converged"
)


def _sample_report(cfg, n_max=1, threshold=1e-8):
    rows = compare_representations(n_max, cfg)
    return build_report(rows, cfg, threshold)


def test_row_field_order_is_contractual():
    assert ",".join(ROW_FIELDS) == EXPECTED_HEADER


def test_summary_counts(cfg):
    report = _sample_report(cfg)
    assert report.schema_version == SCHEMA_VERSION == "1"
    assert report.summary.failures == 0
    assert 0.0 < report.summary.max_abs_err_ln <= 1e-8
    assert len(report.rows) == 10


def test_failure_counting(cfg):
    rows = list(compare_representations(0, cfg))
    bad = RepresentationResult(
        n=99,
        method=Method.MALMSTEN,
        ln_value=1.0,
        exact_ln=2.0,
        abs_err_ln=1.0,
        quad_error_estimate=math.inf,
        evaluations=123,
        converged=False,
    )
    report = build_report(rows + [bad], cfg, 1e-8)
    assert report.summary.failures == 1
    # Non-converged rows stay out of the converged maximum.
    assert report.summary.max_abs_err_ln <= 1e-8


def test_nan_rows_count_as_failures(cfg):
    nan_row = RepresentationResult(
        n=7,
        method=Method.BINET,
        ln_value=math.nan,
        exact_ln=2.0,
        abs_err_ln=math.nan,
        quad_error_estimate=math.nan,
        evaluations=0,
        converged=False,
    )
    report = build_report([nan_row], cfg, 1e-8)
    assert report.summary.failures == 1


def test_json_round_trip(cfg):
    report = _sample_report(cfg)
    text = to_json(report)
    assert text.endswith("\n")
    parsed = parse_report_json(text)
    assert parsed == report


def test_json_is_plain_and_nan_free(cfg):
    nan_row = RepresentationResult(
        n=7,
        method=Method.BINET,
        ln_value=math.nan,
        exact_ln=2.0,
        abs_err_ln=math.nan,
        quad_error_estimate=math.nan,
        evaluations=0,
        converged=False,
    )
    report = build_report([nan_row], cfg, 1e-8)
    text = to_json(report)
    payload = json.loads(text)  # must be strictly valid JSON
    assert payload["rows"][0]["ln_value"] is None
    recovered = parse_report_json(text)
    assert math.isnan(recovered.rows[0].ln_value)


def test_csv_shape_and_round_trip(cfg):
    report = _sample_report(cfg, n_max=0)
    text = to_csv(report)
    lines = text.splitlines()
    assert lines[0] == EXPECTED_HEADER
    assert len(lines) == 1 + 5
    assert "\r" not in text
    reader = csv.DictReader(io.StringIO(text))
    for parsed, row in zip(reader, report.rows):
        # %.17g float formatting round-trips doubles exactly.
        assert float(parsed["ln_value"]) == row.ln_value
        assert float(parsed["abs_err_ln"]) == row.abs_err_ln
        assert int(parsed["n"]) == row.n
        assert parsed["method"] == row.method.value
        assert parsed["converged"] == "true"


def test_text_rendering_mentions_summary(cfg):
    report = _sample_report(cfg)
    text = to_text(report)
    assert "max_abs_err_ln" in text
    assert "failures" in text
    # One line per row plus header material.
    assert len(text.splitlines()) >= len(report.rows) + 2


def test_config_echo(cfg):
    report = _sample_report(cfg)
    assert report.config["abs_tol"] == cfg.abs_tol
    assert report.config["rel_tol"] == cfg.rel_tol
    assert report.config["max_subdivisions"] == cfg.max_subdivisions
    assert report.config["err_threshold"] == 1e-8
    assert list(report.config) == [
        "abs_tol",
        "rel_tol",
        "max_subdivisions",
        "err_threshold",
    ]


def test_reports_identical_up_to_timestamp(cfg):
    first = _sample_report(cfg)
    second = _sample_report(cfg)
    a = json.loads(to_json(first))
    b = json.loads(to_json(second))
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b
