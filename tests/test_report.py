"""Report assembly and the three serializations."""

import csv
import io
import json
import math
import re
import sys
from datetime import datetime, timedelta
from typing import NamedTuple

import pytest

from catalan_integrals import representations
from catalan_integrals.exact import MAX_INDEX
from catalan_integrals.quadrature import QuadConfig
from catalan_integrals.report import (
    ROW_FIELDS,
    SCHEMA_VERSION,
    Report,
    ReportSummary,
    build_report,
    parse_report_json,
    to_csv,
    to_json,
    to_text,
)
from catalan_integrals.representations import (
    ROUTES,
    RepresentationResult,
    catalan_binet,
    catalan_malmsten,
    compare_representations,
)

from oracles import to_csv_reference, to_json_reference

_TOP = sys.float_info.max

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
        method=catalan_malmsten,
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
        method=catalan_binet,
        ln_value=math.nan,
        exact_ln=2.0,
        abs_err_ln=math.nan,
        quad_error_estimate=math.nan,
        evaluations=0,
        converged=False,
    )
    report = build_report([nan_row], cfg, 1e-8)
    assert report.summary.failures == 1


def test_a_route_that_raises_leaves_a_failed_row(cfg, monkeypatch):
    good = compare_representations(2, cfg)

    def estimate(n, config):
        raise ZeroDivisionError("a broken route")

    broken = catalan_binet._replace(estimate=estimate)
    monkeypatch.setattr(
        representations, "ROUTES", tuple(broken if r is catalan_binet else r for r in ROUTES)
    )
    rows = compare_representations(2, cfg)
    failed = [k for k, row in enumerate(rows) if row.method is broken]
    assert failed == [5 * n + ROUTES.index(catalan_binet) for n in range(3)]
    for k in failed:
        row = rows[k]
        assert (row.n, row.exact_ln) == (good[k].n, good[k].exact_ln)
        assert math.isnan(row.ln_value) and math.isnan(row.abs_err_ln)
        assert row[-3:] == (math.inf, 0, False)
    assert [r for k, r in enumerate(rows) if k not in failed] == [
        r for k, r in enumerate(good) if k not in failed
    ]

    report = build_report(rows, cfg, 1e-8)
    assert build_report(good, cfg, 1e-8).summary.failures == 0
    assert report.summary.failures == len(failed)
    text = to_json(report)
    written = json.loads(text)["rows"]
    for k in failed:
        assert written[k]["method"] == "binet"
        assert written[k]["ln_value"] is written[k]["abs_err_ln"] is None
        assert written[k]["quad_error_estimate"] is None
        assert (written[k]["evaluations"], written[k]["converged"]) == (0, False)
    parsed = parse_report_json(text)
    assert all(math.isnan(parsed.rows[k].quad_error_estimate) for k in failed)
    assert to_json(parsed) == text


def test_json_round_trip(cfg):
    report = _sample_report(cfg)
    text = to_json(report)
    assert text.endswith("\n")
    parsed = parse_report_json(text)
    assert parsed == report


def test_json_is_plain_and_nan_free(cfg):
    nan_row = RepresentationResult(
        n=7,
        method=catalan_binet,
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


def test_generated_at_is_an_iso_utc_time(cfg):
    stamp = datetime.fromisoformat(_sample_report(cfg).generated_at)
    assert stamp.utcoffset() == timedelta(0)


def test_method_values_need_no_json_escaping():
    # to_json quotes a method as it stands, with no escaping.
    assert all(re.fullmatch("[a-z_]+", route.value) for route in ROUTES)


def test_reports_identical_up_to_timestamp(cfg):
    first = _sample_report(cfg)
    second = _sample_report(cfg)
    a = json.loads(to_json(first))
    b = json.loads(to_json(second))
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b


# ------------------------------------------------ byte identity with json/csv


def _row(n, method=catalan_malmsten, converged=True, **fields):
    values = dict(
        ln_value=1.5, exact_ln=1.5, abs_err_ln=0.0, quad_error_estimate=1e-12
    )
    values.update(fields)
    return RepresentationResult(
        n=n, method=method, evaluations=15 * n, converged=converged, **values
    )


def _non_finite_rows():
    """NaN, +inf and -inf in each float field, alternating converged, and
    a few finite floats whose repr is unusual."""
    rows = []
    for field in ("ln_value", "exact_ln", "abs_err_ln", "quad_error_estimate"):
        for value in (math.nan, math.inf, -math.inf):
            rows.append(
                _row(len(rows), converged=len(rows) % 2 == 1, **{field: value})
            )
    rows.append(
        _row(
            len(rows),
            catalan_binet,
            ln_value=-0.0,
            exact_ln=5e-324,
            abs_err_ln=1e300,
            quad_error_estimate=1e-07,
        )
    )
    return rows


REPORTS = {
    "sweep_30": lambda cfg: build_report(compare_representations(30, cfg), cfg, 1e-8),
    "non_finite": lambda cfg: build_report(_non_finite_rows(), cfg, 1e-8),
    "one_row": lambda cfg: build_report([_row(3)], cfg, 1e-8),
    "empty": lambda cfg: build_report([], cfg, 1e-8),
    "n_1e6": lambda cfg: build_report(
        [catalan_malmsten(10**6, cfg), catalan_binet(10**6, cfg)], cfg, 1e-8
    ),
}


@pytest.mark.parametrize("name", REPORTS)
def test_serializations_match_the_stdlib_encoders(cfg, name):
    report = REPORTS[name](cfg)
    text = to_json(report)
    assert text == to_json_reference(report)
    assert to_csv(report) == to_csv_reference(report)
    assert to_json(parse_report_json(text)) == text


def test_non_finite_report_covers_every_case(cfg):
    report = REPORTS["non_finite"](cfg)
    assert {r.converged for r in report.rows} == {True, False}
    assert not math.isfinite(report.summary.max_abs_err_ln)
    assert '"max_abs_err_ln": null' in to_json(report)


@pytest.mark.parametrize("error", [math.nan, math.inf, -math.inf])
def test_a_converged_row_with_a_non_finite_error_fails(cfg, error):
    # to_json writes each of these as null, which parses back as NaN, so
    # the summary may depend neither on which it was nor on row order.
    rows = [_row(1, abs_err_ln=error), _row(2, abs_err_ln=1e-9)]
    for order in (rows, rows[::-1]):
        report = build_report(order, cfg, 1e-8)
        assert report.summary.failures == 1
        assert math.isnan(report.summary.max_abs_err_ln)
        text = to_json(report)
        assert to_json(parse_report_json(text)) == text


def test_empty_report_prints_an_empty_row_list(cfg):
    report = REPORTS["empty"](cfg)
    assert '"rows": [],' in to_json(report)
    assert to_csv(report) == EXPECTED_HEADER + "\n"
    assert parse_report_json(to_json(report)).rows == ()


def _synthetic_report(n_rows):
    rows = tuple(
        _row(k // 5, ROUTES[k % 5], ln_value=k / 7) for k in range(n_rows)
    )
    return Report(
        schema_version=SCHEMA_VERSION,
        generated_at="2000-01-01T00:00:00+00:00",
        config={"abs_tol": 1e-12},
        rows=rows,
        summary=ReportSummary(max_abs_err_ln=0.0, failures=0),
    )


def test_rows_bypass_the_pure_python_encoder(monkeypatch):
    """With an indent, json encodes through the pure-Python
    ``_make_iterencode``; the rows must never go that way, so the number
    of such encodings does not grow with the rows."""
    real = json.encoder._make_iterencode
    made = []

    def guarded(*args, **kwargs):
        iterencode = real(*args, **kwargs)
        made.append(1)

        def checked(o, level):
            if isinstance(o, (list, tuple)) or (
                isinstance(o, dict) and ("rows" in o or "n" in o)
            ):
                raise AssertionError("rows reached the pure-Python JSON encoder")
            return iterencode(o, level)

        return checked

    monkeypatch.setattr(json.encoder, "_make_iterencode", guarded)
    to_json(_synthetic_report(1))
    per_report = len(made)
    made.clear()
    text = to_json(_synthetic_report(1005))
    assert len(made) == per_report
    monkeypatch.undo()
    assert text == to_json_reference(_synthetic_report(1005))


def test_parse_rejects_other_schema_versions(cfg):
    payload = json.loads(to_json(REPORTS["one_row"](cfg)))
    payload["schema_version"] = "2"
    with pytest.raises(ValueError, match="schema_version '2'"):
        parse_report_json(json.dumps(payload))


@pytest.mark.parametrize("method", ["simpson", "MALMSTEN", None, []])
def test_parse_rejects_unknown_methods(cfg, method):
    payload = json.loads(to_json(REPORTS["one_row"](cfg)))
    payload["rows"][0]["method"] = method
    with pytest.raises(ValueError, match=re.escape(f"unknown method {method!r}")):
        parse_report_json(json.dumps(payload))


class _Repeat(NamedTuple):
    """An edit of the written text, where a dict cannot hold it: the
    first ``"key": value`` pair written, ``pair``, is written twice."""

    pair: str


def _payload_with(cfg, edit):
    payload = json.loads(to_json(REPORTS["one_row"](cfg)))
    if isinstance(edit, _Repeat):
        return json.dumps(payload).replace(edit.pair, f"{edit.pair}, {edit.pair}", 1)
    edit(payload)
    return json.dumps(payload)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p.update(rows=[[3]]), "a row must be an object, got [3]"),
        (lambda p: p["rows"][0].update(extra=1), "a row keys differ in ['extra']"),
        (lambda p: p["rows"][0].pop("n"), "a row keys differ in ['n']"),
        (lambda p: p["rows"][0].update(n=3.0), "row field 'n' cannot be 3.0"),
        (lambda p: p["rows"][0].update(n=True), "row field 'n' cannot be True"),
        (lambda p: p["rows"][0].update(evaluations="45"), "'evaluations' cannot be '45'"),
        (lambda p: p["rows"][0].update(converged="yes"), "'converged' cannot be 'yes'"),
        (lambda p: p["rows"][0].update(converged=1), "'converged' cannot be 1"),
        (lambda p: p["rows"][0].update(ln_value="abc"), "'ln_value' cannot be 'abc'"),
        (lambda p: p["rows"][0].update(abs_err_ln=0), "'abs_err_ln' cannot be 0"),
        (lambda p: p.update(rows={}), "rows must be a list, got {}"),
        (lambda p: p.pop("summary"), "a report keys differ in ['summary']"),
        # Named by the start of the message, as when it ended there.
        pytest.param(
            lambda p: p["rows"][0].update(n=-5),
            f"row field 'n' cannot be -5: must be an integer from 0 to {MAX_INDEX}",
            id="<lambda>-row field 'n' cannot be -5",
        ),
        pytest.param(
            lambda p: p["rows"][0].update(n=MAX_INDEX + 1),
            f"'n' cannot be {MAX_INDEX + 1}: must be an integer from 0 to {MAX_INDEX}",
            id=f"<lambda>-'n' cannot be {MAX_INDEX + 1}",
        ),
        (lambda p: p.update(generated_at=5), "generated_at must be a string, got 5"),
        (
            lambda p: p.update(generated_at="yesterday"),
            "generated_at must read YYYY-MM-DDTHH:MM:SS+00:00, got 'yesterday'",
        ),
        (lambda p: p.update(generated_at="2000-01-01T00:00:00Z"), "got '2000-01-01T00:00:00Z'"),
        (lambda p: p.update(config=[1e-12]), "config must be an object, got [1e-12]"),
        (lambda p: p.update(extra=1), "a report keys differ in ['extra']"),
        (
            lambda p: p.update(config={"x": "y"}),
            "config keys differ in ['abs_tol', 'err_threshold', 'max_subdivisions', "
            "'rel_tol', 'x']",
        ),
        (lambda p: p["config"].pop("err_threshold"), "config keys differ in ['err_threshold']"),
        (lambda p: p["config"].update(abs_tol=-1.0), "'abs_tol': -1.0, 'rel_tol'"),
        (lambda p: p["config"].update(rel_tol="y"), "'rel_tol': 'y', 'max_subdivisions'"),
        (lambda p: p["config"].update(max_subdivisions=2.5), "'max_subdivisions': 2.5}"),
        (
            lambda p: p["config"].update(max_subdivisions=True),
            "'max_subdivisions': True} are refused: max_subdivisions cannot be True: "
            "must be an integer from 1 to inf",
        ),
        (lambda p: p["config"].update(rel_tol=False), "'rel_tol': False, 'max_subdivisions'"),
        (lambda p: p["config"].update(abs_tol=True), "{'abs_tol': True, 'rel_tol'"),
        (
            lambda p: p["config"].update(abs_tol=0.0, rel_tol=0.0),
            "at least one tolerance must be positive",
        ),
        (
            lambda p: p["config"].update(err_threshold=-1.0),
            f"'err_threshold' cannot be -1.0: must be a real number from 0 to {_TOP!r}",
        ),
        (
            lambda p: p["config"].update(err_threshold=True),
            f"'err_threshold' cannot be True: must be a real number from 0 to {_TOP!r}",
        ),
        (
            lambda p: p["config"].update(err_threshold="0"),
            f"'err_threshold' cannot be '0': must be a real number from 0 to {_TOP!r}",
        ),
        (
            lambda p: p["config"].update(err_threshold=None),
            f"'err_threshold' cannot be None: must be a real number from 0 to {_TOP!r}",
        ),
        (lambda p: p.update(summary=[0.0, 0]), "summary must be an object, got [0.0, 0]"),
        (
            lambda p: p["summary"].pop("max_abs_err_ln"),
            "summary keys differ in ['max_abs_err_ln']",
        ),
        (
            lambda p: p["summary"].update(max_abs_err_ln="abc"),
            "summary field 'max_abs_err_ln' cannot be 'abc'",
        ),
        (lambda p: p["summary"].update(failures="many"), "'failures' cannot be 'many'"),
        (lambda p: p["summary"].update(failures=-1), "'failures' cannot be -1"),
        (lambda p: p["summary"].update(failures=False), "'failures' cannot be False"),
        (lambda p: p["summary"].update(extra=1), "summary keys differ in ['extra']"),
        (lambda p: p["rows"][0].update(ln_value=math.nan), "cannot hold NaN"),
        (lambda p: p["summary"].update(max_abs_err_ln=math.inf), "cannot hold Infinity"),
        (lambda p: p["config"].update(err_threshold=-math.inf), "cannot hold -Infinity"),
        (_Repeat('"n": 3'), "a report object repeats the key 'n'"),
        (_Repeat('"schema_version": "1"'), "repeats the key 'schema_version'"),
        (
            lambda p: p["summary"].update(failures=7),
            'summary {"max_abs_err_ln": 0.0, "failures": 7} contradicts its rows, which give '
            '{"max_abs_err_ln": 0.0, "failures": 0}',
        ),
        (
            lambda p: p["summary"].update(max_abs_err_ln=1e-9),
            'summary {"max_abs_err_ln": 1e-09, "failures": 0} contradicts its rows, which give '
            '{"max_abs_err_ln": 0.0, "failures": 0}',
        ),
    ],
)
def test_parse_rejects_rows_to_json_cannot_write(cfg, edit, message):
    # A report is input from outside the program: a row or a summary that
    # to_json could not have written is refused, naming its field, rather
    # than parsed into a wrongly typed or out-of-range value.
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_report_json(_payload_with(cfg, edit))


@pytest.mark.parametrize("threshold", [math.inf, math.nan, -1.0, True])
def test_build_report_refuses_a_threshold_to_json_cannot_write(cfg, threshold):
    # The threshold parse_report_json refuses is refused when the report
    # is built, before to_json could write it or fail on it.
    rows = compare_representations(0, cfg)
    message = f"config field 'err_threshold' cannot be {threshold!r}: must be a real number "
    message += f"from 0 to {_TOP!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_report(rows, cfg, threshold)


def test_an_int_past_the_largest_float_is_refused(cfg):
    # 10**400 compares below inf, yet has no float to round to: as a
    # threshold it would pass every row, and as a tolerance accept any
    # estimate.
    rows = compare_representations(0, cfg)
    refusal = f"cannot be {10**400}: must be a real number from 0 to {_TOP!r}"
    with pytest.raises(ValueError, match=re.escape(f"'err_threshold' {refusal}")):
        build_report(rows, cfg, 10**400)
    for field, name in (("abs_tol", "abs_tol"), ("err_threshold", "'err_threshold'")):
        text = _payload_with(cfg, lambda p: p["config"].update({field: 10**400}))
        assert f'"{field}": 1{"0" * 400}' in text
        with pytest.raises(ValueError, match=re.escape(f"{name} {refusal}")):
            parse_report_json(text)


@pytest.mark.parametrize("text", ["[]", "[1, 2]", '"report"', "3", "null"])
def test_parse_rejects_a_report_that_is_not_an_object(text):
    with pytest.raises(ValueError, match="a report must be an object"):
        parse_report_json(text)


def test_rows_name_their_route(cfg):
    text = to_json(_sample_report(cfg, n_max=0))
    for row, route in zip(parse_report_json(text).rows, ROUTES):
        assert row.method is route
        assert "0x" not in repr(row)
        assert f"method=catalan_{route.value}," in repr(row)
