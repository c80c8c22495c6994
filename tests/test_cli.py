"""Command-line interface: output contracts and exit codes."""

import decimal
import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal

import mpmath as mp
import pytest

from cli_runner import invoke
import catalan_integrals
from catalan_integrals.cli import _decimal_digits, main
from catalan_integrals.exact import catalan_exact
from catalan_integrals.quadrature import QuadConfig
from catalan_integrals.report import parse_report_json
from catalan_integrals.representations import ROUTES, Method

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


def test_exact_log_is_the_one_rep_prints():
    # ``exact`` prints ln_exact(n), the exact_ln of every row: at n = 29
    # the log of the integer itself is 1 ulp away from it.
    exact_line = invoke(main, ["exact", "29"]).output.splitlines()[1]
    rep = invoke(main, ["rep", "gamma", "29"]).output
    assert exact_line == "ln " + re.search(r"exact_ln=(\S+)", rep).group(1)


@pytest.mark.parametrize("n", [3, 29, 100_000])
def test_exact_prints_a_bar_that_covers_the_error(n):
    lines = invoke(main, ["exact", str(n)]).output.splitlines()
    assert lines[2].startswith("ln_error ")
    ln_c, bar = float(lines[1].split()[1]), float(lines[2].split()[1])
    with mp.workdps(40):
        exact = mp.loggamma(2 * n + 1) - mp.loggamma(n + 1) - mp.loggamma(n + 2)
        assert abs(mp.mpf(ln_c) - exact) <= bar
    assert bar <= 2.0 * math.ulp(ln_c)


def test_exact_edge_and_larger_values():
    assert invoke(main, ["exact", "0"]).output.splitlines()[0] == "1"
    assert invoke(main, ["exact", "10"]).output.splitlines()[0] == "16796"


def test_exact_prints_every_digit_past_the_str_limit():
    # C_10000 has 6015 digits, more than str(int) gives by default.
    n = 10_000
    result = invoke(main, ["exact", str(n)])
    assert result.exit_code == 0, result.output
    digits = result.output.splitlines()[0]
    c = catalan_exact(n)
    assert digits.isdigit()
    assert 10 ** (len(digits) - 1) <= c < 10 ** len(digits)
    assert int(digits[-18:]) == c % 10**18
    assert digits == str(Decimal(c))


@pytest.mark.parametrize("k", [1, 300, 308, 309, 1024, 1025, 5000, 20_000])
def test_decimal_digits_exact_at_limb_boundaries(k):
    # 10^k has a low half of binary zeros and 10^k - 1 a decimal run of
    # nines; the split points of 2^k fall exactly on the powers of two.
    precision = decimal.getcontext().prec
    str_digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    for value in (10**k - 1, 10**k, 2**k - 1, 2**k, 2**k + 1):
        assert _decimal_digits(value) == str(Decimal(value)), value
    assert decimal.getcontext().prec == precision
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == str_digits


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
    assert f"argument {name}: must be >= 0, got -" in result.stderr


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
    choices = [route.name for route in ROUTES]
    reached = set()
    for choice in choices:
        result = invoke(main, ["rep", choice, "1"])
        assert result.exit_code == 0, choice
        reached.add(Method(re.search(r"method=(\S+)", result.output).group(1)))
    assert reached == set(Method)


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
    assert "finite" in result.output


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
        "term budget exhausted: tail bound 1.319e-14 after 20000 terms; "
        "requested tolerance is unreachable within 20000 terms\n"
    )
    assert result.stdout.splitlines() == [
        "partial_sum     1.0439776544805739",
        "terms_used      20000",
        "tail_bound      1.319e-14",
        "certified_value 1.0439776544805806",
        "target          1.043977654480579",
        "abs_err         1.554e-15",
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
        "4.758e-16 did not meet tolerance after 75 evaluations\n"
    )
    assert result.stdout == ""


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


@pytest.mark.parametrize("t_max", ["inf", "nan"])
def test_dump_kernel_non_finite_t_max_is_usage_error(t_max):
    # An infinite end would print inf,nan rows rather than a table.
    result = invoke(
        main, ["dump-kernel", "binet", "0", "--t-max", t_max, "--points", "3"]
    )
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


@pytest.mark.parametrize("blocked", ["numpy", "click"])
def test_runs_without(blocked):
    # numpy is a test-only dependency and click no dependency at all:
    # blocking either import must leave every command, down to the
    # certified sum rules, fully working.
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


def test_cli_import_leaves_out_click_dataclasses_and_inspect():
    # The command line's cold start: none of these is needed to run it.
    package_root = os.path.dirname(os.path.dirname(catalan_integrals.__file__))
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import catalan_integrals.cli\n"
        "print(sorted({'click', 'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", script, package_root],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
