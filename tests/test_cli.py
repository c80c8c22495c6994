"""Command-line interface: output contracts and exit codes."""

import decimal
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import mpmath as mp
import pytest

from cli_runner import invoke
import catalan_integrals
from catalan_integrals.cli import main
from catalan_integrals import cli, exact
from catalan_integrals.exact import MAX_INDEX, catalan_exact
from catalan_integrals.quadrature import QuadConfig
from catalan_integrals.report import parse_report_json
from catalan_integrals.representations import ROUTES
from catalan_integrals.series import GlaisherResult

# One run of every command, each of which returns when it succeeds.
EVERY_COMMAND = [
    ["exact", "3"],
    ["rep", "gamma", "3"],
    ["verify", "--n-max", "1", "--format", "csv"],
    ["sumrule", "plain", "--tol", "1e-10"],
    ["glaisher"],
    ["dump-kernel", "binet", "1", "--points", "3"],
]


def _ln_value(output: str) -> float:
    match = re.search(r"ln_value=(\S+)", output)
    assert match, output
    return float(match.group(1))


# --------------------------------------------------------------- exact


def test_exact_prints_digits_then_log():
    result = invoke(main, ["exact", "3"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "5"
    assert lines[1].startswith("ln ")
    assert abs(float(lines[1].split()[1]) - math.log(5.0)) <= 1e-15


@pytest.mark.parametrize("n", [29, 478, 549, 100_000])
def test_exact_log_is_the_one_rep_prints(n):
    # ``exact`` prints ln_exact(n), the exact_ln of every row: at n = 29
    # the log of the integer itself is 1 ulp away from it, and at 478
    # and 549 so is the sum of the logs of the prime factors.
    exact_line = invoke(main, ["exact", str(n)]).output.splitlines()[1]
    rep = invoke(main, ["rep", "gamma", str(n)]).output
    assert exact_line == "ln " + re.search(r"exact_ln=(\S+)", rep).group(1)


@pytest.mark.parametrize("n", [3, 29, 256, 100_000])
def test_exact_prints_a_bar_that_covers_the_error(n):
    # ln is correctly rounded, so its bar is half an ulp.  At n = 29 and
    # 256 a sum of the logs of the prime factors is 1 ulp off.
    lines = invoke(main, ["exact", str(n)]).output.splitlines()
    assert lines[2].startswith("ln_error ")
    ln_c, bar = float(lines[1].split()[1]), float(lines[2].split()[1])
    with mp.workdps(40):
        exact = mp.loggamma(2 * n + 1) - mp.loggamma(n + 1) - mp.loggamma(n + 2)
        assert ln_c == float(exact)
        assert abs(mp.mpf(ln_c) - exact) <= bar
    assert bar == 0.5 * math.ulp(ln_c)


def test_exact_edge_and_larger_values():
    assert invoke(main, ["exact", "0"]).output.splitlines()[0] == "1"
    assert invoke(main, ["exact", "10"]).output.splitlines()[0] == "16796"


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 8, 9, 100, 7150, 30_000])
def test_exact_prints_every_digit_past_the_str_limit(n):
    # C_7150 has 4,299 digits, one below str(int)'s default limit, and
    # C_30000 has 18,055.
    precision = decimal.getcontext().prec
    str_digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    result = invoke(main, ["exact", str(n)])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[0] == str(Decimal(catalan_exact(n)))
    assert decimal.getcontext().prec == precision
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == str_digits


def test_exact_checks_the_factors_before_printing(monkeypatch):
    def fail(n, ln_c):
        raise ArithmeticError(f"witness failed at n = {n}")

    monkeypatch.setattr(exact, "_check_against_lgamma", fail)
    result = invoke(main, ["exact", "5"])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert "ArithmeticError: witness failed at n = 5" in result.stderr


def test_exact_checks_ln_exact_before_printing(monkeypatch):
    # The digits pass their witness, and the ln line still has its own,
    # which runs before the digits are printed: a fixed-point log that
    # returns 0 moves ln C_1000 by ln(1000 * 1001^2) / 2.  The double
    # pass, which would decide n = 1000 first, is switched off.
    monkeypatch.setattr(exact, "_ln_double", lambda n: None)
    monkeypatch.setattr(exact, "_fixed_log", lambda m, p: 0)
    result = invoke(main, ["exact", "1000"])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert "fixed-point ln C_n disagrees" in result.stderr


def test_a_crash_exits_4_after_what_the_command_printed(monkeypatch):
    # A crash is not a failed check (exit 1): the traceback follows the
    # lines already printed, and names the exception.
    def fail(value):
        raise RuntimeError("formatter broke")

    monkeypatch.setattr(cli, "_fmt", fail)
    result = invoke(main, ["exact", "5"])
    assert result.exit_code == 4
    assert result.stdout == "42\n"
    assert result.output.startswith("42\nTraceback (most recent call last):")
    assert result.stderr.endswith("RuntimeError: formatter broke\n")


def test_exact_rejects_negative():
    result = invoke(main, ["exact", "--", "-1"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args, name",
    [
        (["exact", "-1"], "N"),
        (["rep", "gamma", "-3"], "N"),
        (["dump-kernel", "malmsten", "-1"], "N"),
        (["verify", "--n-max", "-1"], "--n-max"),
    ],
)
def test_negative_index_names_its_argument(args, name):
    # A negative number is an index out of range, not an unknown option.
    result = invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert (
        f"argument {name}: Catalan index cannot be -" in result.stderr
        and f": must be an integer from 0 to {MAX_INDEX}\n" in result.stderr
    )


@pytest.mark.parametrize(
    "args, name",
    [
        (["exact", str(MAX_INDEX + 1)], "N"),
        (["rep", "gamma", str(MAX_INDEX + 1)], "N"),
        (["rep", "malmsten", "1000000000000"], "N"),
        (["verify", "--n-max", str(MAX_INDEX + 1)], "--n-max"),
        (["dump-kernel", "binet", str(MAX_INDEX + 1)], "N"),
    ],
)
def test_index_past_the_limit_is_a_usage_error(args, name, monkeypatch):
    # Refused before any work: the sieve behind catalan_exact and exact N,
    # which would need n bytes, is never started.
    def sieve(m):
        pytest.fail(f"sieve started for m = {m}")

    monkeypatch.setattr(exact, "_odd_sieve", sieve)
    result = invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert (
        f"argument {name}: Catalan index cannot be " in result.stderr
        and f": must be an integer from 0 to {MAX_INDEX}\n" in result.stderr
    )


# ----------------------------------------------------------------- rep


def test_rep_malmsten():
    result = invoke(main, ["rep", "malmsten", "5"])
    assert result.exit_code == 0
    assert "method=malmsten" in result.output
    assert "converged=true" in result.output
    assert abs(_ln_value(result.output) - math.log(42.0)) <= 1e-9


def test_rep_gamma_index_zero():
    result = invoke(main, ["rep", "gamma", "0"])
    assert result.exit_code == 0
    assert abs(_ln_value(result.output)) <= 1e-12


def test_rep_penson_mellin():
    result = invoke(main, ["rep", "penson-mellin", "3"])
    assert result.exit_code == 0
    assert abs(_ln_value(result.output) - math.log(5.0)) <= 1e-9


def test_rep_unknown_method_is_usage_error():
    result = invoke(main, ["rep", "bogus", "5"])
    assert result.exit_code == 2


def test_rep_penson_accepts_large_index():
    # The Penson routes carry no cap on n: at n = 1e6 they converge and
    # pass the default --tol.
    for method in ("penson-moment", "penson-mellin"):
        result = invoke(main, ["rep", method, "1000000"])
        assert result.exit_code == 0, method
        assert "converged=true" in result.output, method


def test_rep_choices_reach_every_method():
    # Every route name must get through the parser and reach its route.
    for route in ROUTES:
        result = invoke(main, ["rep", route.name, "1"])
        assert result.exit_code == 0, route.name
        assert re.search(r"method=(\S+)", result.output).group(1) == route.value


def test_rep_unreachable_tol_fails():
    result = invoke(main, ["rep", "malmsten", "5", "--tol", "1e-18"])
    assert result.exit_code == 1


def test_rep_without_absolute_target_converges():
    result = invoke(main, ["rep", "malmsten", "1000", "--abs-tol", "0"])
    assert result.exit_code == 0
    assert "converged=true" in result.output


def test_rep_at_the_least_tolerance_prints_its_row():
    # 5e-324 is a valid target far below the float floor: the command
    # prints its unconverged row and fails, with no traceback.
    result = invoke(main, ["rep", "malmsten", "5", "--abs-tol", "5e-324", "--rel-tol", "0"])
    assert result.exit_code == 1
    assert "method=malmsten" in result.stdout
    assert "converged=false" in result.stdout
    assert "Traceback" not in result.output


def test_rep_bad_quad_config_is_usage_error():
    for options in (
        ["--abs-tol", "0", "--rel-tol", "0"],
        ["--abs-tol", "nan"],
        ["--abs-tol", "inf"],
        ["--rel-tol", "inf"],
    ):
        result = invoke(main, ["rep", "malmsten", "5", *options])
        assert result.exit_code == 2, options


@pytest.mark.parametrize("args", [["verify", "--n-max", "1"], ["glaisher"]])
@pytest.mark.parametrize("option", ["--abs-tol", "--rel-tol"])
def test_infinite_quad_tolerance_is_usage_error(args, option):
    result = invoke(main, [*args, option, "inf"])
    assert result.exit_code == 2
    name = option[2:].replace("-", "_")
    top = sys.float_info.max
    assert f"{name} cannot be inf: must be a real number from 0 to {top!r}" in result.output


@pytest.mark.parametrize("args", [["rep", "malmsten", "5"], ["verify", "--n-max", "1"]])
@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_bad_tol_is_usage_error(args, tol):
    result = invoke(main, [*args, "--tol", tol])
    assert result.exit_code == 2
    assert "--tol" in result.output


@pytest.mark.parametrize(
    "args", [["rep", "malmsten", "5"], ["verify", "--n-max", "1"], ["glaisher"]]
)
def test_transform_option_is_gone(args):
    result = invoke(main, [*args, "--transform", "none"])
    assert result.exit_code == 2


# -------------------------------------------------------------- verify


def test_verify_csv_shape():
    result = invoke(main, ["verify", "--n-max", "0", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0].startswith("n,method,")
    assert len(lines) == 1 + 5


def test_verify_json_contract():
    result = invoke(main, ["verify", "--n-max", "2", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["schema_version"] == "1"
    assert len(payload["rows"]) == 15
    expected_fields = [
        "n",
        "method",
        "ln_value",
        "exact_ln",
        "abs_err_ln",
        "quad_error_estimate",
        "evaluations",
        "converged",
    ]
    assert list(payload["rows"][0]) == expected_fields
    assert payload["summary"]["failures"] == 0
    # The emitted text parses back into the library's own types.
    report = parse_report_json(result.output)
    assert len(report.rows) == 15


def test_verify_output_is_deterministic():
    args = ["verify", "--n-max", "1", "--format", "csv"]
    first = invoke(main, args)
    second = invoke(main, args)
    assert first.output == second.output
    json_args = ["verify", "--n-max", "1", "--format", "json"]
    a = json.loads(invoke(main, json_args).output)
    b = json.loads(invoke(main, json_args).output)
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b


def test_verify_failure_exit_code():
    result = invoke(
        main,
        [
            "verify",
            "--n-max",
            "1",
            "--abs-tol",
            "0",
            "--rel-tol",
            "1e-16",
            "--max-subdivisions",
            "1",
        ],
    )
    assert result.exit_code == 1


def test_verify_writes_file(tmp_path):
    out = tmp_path / "report.json"
    result = invoke(
        main,
        ["verify", "--n-max", "0", "--format", "json", "--output", str(out)],
    )
    assert result.exit_code == 0
    report = parse_report_json(out.read_text(encoding="utf-8"))
    assert len(report.rows) == 5


def test_verify_unwritable_output_is_io_error(tmp_path):
    target = tmp_path / "missing-dir" / "report.json"
    result = invoke(
        main, ["verify", "--n-max", "0", "--output", str(target)]
    )
    assert result.exit_code == 3


def test_verify_requires_n_max():
    result = invoke(main, ["verify"])
    assert result.exit_code == 2


# ------------------------------------------------------------- sumrule


def test_sumrule_plain_passes():
    result = invoke(main, ["sumrule", "plain"])
    assert result.exit_code == 0
    match = re.search(r"certified_value (\S+)", result.output)
    assert match
    assert abs(float(match.group(1)) - 1.0439776544805791) <= 2e-6


def test_sumrule_odd_weight_reports_target_miss():
    # The printed series misses its stated closed form by ~0.188; the
    # command must say so and fail.
    result = invoke(main, ["sumrule", "odd-weight"])
    assert result.exit_code == 1
    assert "target missed" in result.output
    match = re.search(r"abs_err\s+(\S+)", result.output)
    assert match
    assert 0.187 < float(match.group(1)) < 0.189


def test_sumrule_budget_exhaustion():
    # The whole failure output: the reason on stderr, and the partial
    # summation on stdout so that it shows how far the sum got.
    result = invoke(main, ["sumrule", "plain", "--tol", "1e-30"])
    assert result.exit_code == 1
    assert result.stderr == (
        "tolerance unreachable: tail bound 6.934e-16 after 364 terms, "
        "within 0.1% of the rounding floor 2e = 6.928e-16\n"
    )
    assert result.stdout.splitlines() == [
        "partial_sum     1.0439776544805788",
        "terms_used      364",
        "tail_bound      6.934e-16",
        "certified_value 1.0439776544805792",
        "target          1.043977654480579",
        "abs_err         2.220e-16",
    ]


def test_sumrule_bad_tolerance_is_usage_error():
    # abs_err <= inf + tail_bound holds for any sum, so an infinite
    # tolerance would pass odd-weight, whose target is missed.
    for rule, tol in (("plain", "0"), ("plain", "nan"), ("odd-weight", "inf")):
        result = invoke(main, ["sumrule", rule, "--tol", tol])
        assert result.exit_code == 2, tol


def test_sumrule_unknown_rule_is_usage_error():
    result = invoke(main, ["sumrule", "even-weight"])
    assert result.exit_code == 2


# ------------------------------------------------------------ glaisher


def test_glaisher_passes():
    result = invoke(main, ["glaisher"])
    assert result.exit_code == 0
    match = re.search(r"ln_A\s+(\S+)", result.output)
    assert match
    assert abs(float(match.group(1)) - 0.2487544770337843) <= 1e-8


def test_glaisher_starved_quadrature_fails():
    result = invoke(
        main,
        ["glaisher", "--abs-tol", "1e-30", "--rel-tol", "1e-30", "--max-subdivisions", "2"],
    )
    assert result.exit_code == 1
    assert result.stderr == (
        "quadrature failed: log-Gamma integral on [0, 1/2]: error estimate "
        "4.758e-16 did not meet tolerance after 21 evaluations\n"
    )
    assert result.stdout == ""


def test_glaisher_converged_but_off_fails_after_its_lines(monkeypatch):
    # No quadrature config reaches this branch (abs_err is 2.8e-17 even
    # at tolerance 10), so the result is made 1e-7 off by hand.
    off = GlaisherResult(
        integral_value=-0.04,
        ln_A=0.24875447703378425 + 1e-7,
        oracle_ln_A=0.24875447703378425,
        abs_err=1e-7,
        error_estimate=1e-15,
        evaluations=21,
        converged=True,
    )
    monkeypatch.setattr(cli, "glaisher_from_integral", lambda config: off)
    result = invoke(main, ["glaisher"])
    assert result.exit_code == 1
    assert result.stderr == ""
    lines = result.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "integral_value", "ln_A", "oracle_ln_A", "abs_err",
    ]
    assert lines[-1] == "abs_err        1.000e-07"


# --------------------------------------------------------- dump-kernel


def test_dump_kernel_malmsten_header_and_origin():
    result = invoke(main, ["dump-kernel", "malmsten", "1", "--points", "50"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 1 + 50
    # At t = 1e-8 the value sits at the origin limit -3/8.
    first_t, first_v = lines[1].split(",")
    assert float(first_t) == pytest.approx(1e-8)
    assert abs(float(first_v) - (-0.375)) <= 1e-6
    # Every value parses and is finite.
    for line in lines[1:]:
        value = float(line.split(",")[1])
        assert math.isfinite(value)


def test_dump_kernel_binet_origin_is_zero():
    result = invoke(main, ["dump-kernel", "binet", "3", "--points", "10"])
    assert result.exit_code == 0
    first_value = float(result.output.splitlines()[1].split(",")[1])
    assert abs(first_value) <= 1e-7


def test_dump_kernel_two_points():
    result = invoke(main, ["dump-kernel", "malmsten", "0", "--points", "2"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == pytest.approx(1e-8)
    assert float(lines[2].split(",")[0]) == pytest.approx(50.0)


class _NullStream:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_dump_kernel_prints_each_row_as_it_computes_it(monkeypatch):
    # A list of the whole grid held 1.6 MB at 50,000 points; printed row
    # by row, what the command holds at once does not grow with --points.
    monkeypatch.setattr(sys, "stdout", _NullStream())
    tracemalloc.start()
    try:
        main(["dump-kernel", "binet", "1", "--points", "50000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


def test_dump_kernel_t_min_zero_is_usage_error():
    # The grid is log-spaced and the kernels are sampled only at t > 0.
    result = invoke(
        main, ["dump-kernel", "malmsten", "1", "--t-min", "0", "--points", "5"]
    )
    assert result.exit_code == 2


def test_dump_kernel_bad_range_is_usage_error():
    result = invoke(
        main, ["dump-kernel", "malmsten", "1", "--t-min", "5", "--t-max", "1"]
    )
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "t_min, t_max",
    [
        pytest.param("1e-8", "inf", id="inf"),
        pytest.param("1e-8", "nan", id="nan"),
        pytest.param("1e-300", "1e300", id="ratio-overflow"),
    ],
)
def test_dump_kernel_non_finite_t_max_is_usage_error(t_min, t_max):
    # An infinite end, or a ratio t_max / t_min that overflows, would
    # print t = inf rows rather than a table.
    args = ["dump-kernel", "binet", "0", "--t-min", t_min, "--t-max", t_max]
    result = invoke(main, [*args, "--points", "3"])
    assert result.exit_code == 2
    assert "t,value" not in result.output


def test_dump_kernel_unknown_kernel_is_usage_error():
    # The cancelling difference form is a test oracle, not a choice.
    for kernel in ("unknown", "difference"):
        result = invoke(main, ["dump-kernel", kernel, "1"])
        assert result.exit_code == 2, kernel


# -------------------------------------------------------------- parser


@pytest.mark.parametrize("command", [[], *([args[0]] for args in EVERY_COMMAND)])
def test_help_exits_zero_on_stdout(command):
    result = invoke(main, [*command, "--help"])
    assert result.exit_code == 0
    assert result.stdout.startswith(" ".join(["usage: catalan-integrals", *command]))
    assert result.stderr == ""


@pytest.mark.parametrize("command", ["rep", "verify", "glaisher"])
def test_help_shows_quadrature_defaults(command):
    text = " ".join(invoke(main, [command, "--help"]).stdout.split())
    for field, value in QuadConfig()._asdict().items():
        option = "--" + field.replace("_", "-")
        assert re.search(rf"{option} \S+ [^[]*\[default: {value}\]", text), option


@pytest.mark.parametrize("args", [[], ["bogus"]])
def test_missing_or_unknown_command_is_usage_error(args):
    result = invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: catalan-integrals")


# ------------------------------------------------------------- README

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_tour() -> dict[str, list[str]]:
    """Each command of the README's Command-line tour with the output
    lines printed under it, continuation lines joined."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command-line tour", 1)[1].split("```text\n", 1)[1]
    block = re.sub(r" \\\n\s*", " ", block.split("```", 1)[0])
    tour: dict[str, list[str]] = {}
    for example in block.split("\n\n"):
        command, *output = example.strip().splitlines()
        tour[command.removeprefix("$ catalan-integrals ")] = output
    return tour


@pytest.mark.parametrize("command", ["exact 5", "rep malmsten 5", "glaisher", "sumrule plain"])
def test_readme_tour_output_is_current(command):
    # These examples print their whole output in the README; it must be
    # what the command prints today.
    result = invoke(main, command.split())
    assert result.exit_code == 0, result.output
    assert result.output.splitlines() == _readme_tour()[command]


# ------------------------------------------------------------- module


@pytest.mark.parametrize("blocked", ["numpy", "click", "mpmath"])
def test_runs_without(blocked):
    # numpy and mpmath are test-only dependencies, mpmath the tests'
    # oracle library, and click no dependency at all: blocking any of
    # these imports must leave every command, down to the certified sum
    # rules, fully working.
    package_root = os.path.dirname(os.path.dirname(catalan_integrals.__file__))
    pythonpath = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p
    )
    script = (
        f"import sys; sys.modules[{blocked!r}] = None\n"
        "from catalan_integrals.cli import main\n"
        f"for args in {EVERY_COMMAND!r}:\n"
        "    main(args)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert "terms_used" in proc.stdout
    assert blocked not in proc.stderr


def test_cli_import_leaves_out_click_dataclasses_inspect_datetime_and_decimal(tmp_path):
    # The command line's cold start: none of these is needed to run it.
    # Only exact N imports decimal, to print the digits of C_N, so neither
    # a sweep nor ln_exact far above its crossover loads it; the report's
    # timestamp comes from time, not datetime.  Only a JSON report and
    # its parser load json.
    package_root = os.path.dirname(os.path.dirname(catalan_integrals.__file__))
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import catalan_integrals.cli\n"
        "unneeded = {'click', 'dataclasses', 'inspect', 'datetime', '_datetime',"
        " 'decimal', '_decimal', 'json', '_json', 'json.decoder', 'json.encoder',"
        " 'json.scanner'}\n"
        "print(sorted(unneeded & set(sys.modules)))\n"
        "catalan_integrals.cli.main(['verify', '--n-max', '200', '--output', sys.argv[2]])\n"
        "print(sorted(unneeded & set(sys.modules)))\n"
        "catalan_integrals.cli.main(['rep', 'gamma', '100000'])\n"
        "print(sorted(unneeded & set(sys.modules)))\n"
        "catalan_integrals.cli.main(['verify', '--n-max', '20', '--format', 'json',"
        " '--output', sys.argv[3]])\n"
        "print('json' in sys.modules)\n"
    )
    report_json = tmp_path / "report.json"
    proc = subprocess.run(
        [
            sys.executable, "-I", "-c", script, package_root,
            str(tmp_path / "report.txt"), str(report_json),
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    empty, after_verify, row, after_rep, json_loaded = proc.stdout.splitlines()
    assert [empty, after_verify, after_rep] == ["[]", "[]", "[]"]
    assert row.startswith("n=100000 method=gamma_closed_form ")
    assert json_loaded == "True"
    report = parse_report_json(report_json.read_text(encoding="utf-8"))
    assert len(report.rows) == 5 * 21


def test_module_entry_point():
    # The child interpreter must import the same package copy as this
    # process, whatever the test runner put on sys.path.
    package_root = os.path.dirname(os.path.dirname(catalan_integrals.__file__))
    pythonpath = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "catalan_integrals", "exact", "3"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "5"
