"""Command-line interface, on the standard library's ``argparse``.

Exit codes, uniform across subcommands:

* 0 -- success (all requested checks met their tolerance)
* 1 -- a verification failure (tolerance missed, quadrature did not
       converge, or a sum rule reached its rounding floor)
* 2 -- usage error (bad arguments): the usage line and the error go to
       stderr, and nothing to stdout
* 3 -- I/O failure writing requested output
* 4 -- a crash: the command raised an exception, whose traceback goes
       to stderr (an import failure before ``main`` runs still exits 1)

Numeric text output uses 17 significant digits so values round-trip
through the printed form.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import NoReturn

from .exact import _catalan_digits, _check_index, _check_real, ln_exact
from .kernels import binet_catalan_kernel, malmsten_catalan_kernel
from .quadrature import QuadConfig
from .report import _check_threshold, _fmt, build_report, to_csv, to_json, to_text
from .representations import ROUTES, RepresentationResult, compare_representations
from .series import (
    _check_tol,
    _widening,
    glaisher_from_integral,
    stewart_sum_odd_weight,
    stewart_sum_plain,
)

_ROUTES_BY_NAME = {route.name: route for route in ROUTES}

_KERNELS = {
    "malmsten": malmsten_catalan_kernel,
    "binet": binet_catalan_kernel,
}

EXIT_VERIFICATION_FAILED = 1
EXIT_IO = 3
EXIT_CRASH = 4


class UsageError(Exception):
    """Arguments that parsed but do not fit together; main exits 2."""


def _fail(message: str, code: int = EXIT_VERIFICATION_FAILED) -> NoReturn:
    # Flushing first keeps the message after stdout when both share a pipe.
    sys.stdout.flush()
    print(message, file=sys.stderr)
    sys.exit(code)


def _print_row(row: RepresentationResult) -> None:
    print(
        f"n={row.n} method={row.method.value} ln_value={_fmt(row.ln_value)} "
        f"exact_ln={_fmt(row.exact_ln)} abs_err_ln={row.abs_err_ln:.3e} "
        f"quad_error_estimate={row.quad_error_estimate:.3e} "
        f"evaluations={row.evaluations} converged={str(row.converged).lower()}"
    )


def cmd_exact(n: int) -> None:
    """Print C_N exactly (all digits), then ln C_N and its error bound."""
    # Both lgamma witnesses run before anything is printed.  The ln line
    # is ln_exact(N), the exact_ln of every row.
    digits = _catalan_digits(n)
    ln_c = ln_exact(n)
    print(digits)
    print(f"ln {_fmt(ln_c)}")
    # ln_exact rounds correctly, so it errs by at most half an ulp.
    print(f"ln_error {_fmt(0.5 * math.ulp(ln_c))}")


def cmd_rep(method: str, n: int, tol: float, config: QuadConfig) -> None:
    """Evaluate one representation METHOD at index N and check it."""
    row = _ROUTES_BY_NAME[method](n, config)
    _print_row(row)
    # The verdict of verify, applied to the one row.
    if build_report([row], config, err_threshold=tol).summary.failures:
        sys.exit(EXIT_VERIFICATION_FAILED)


def cmd_verify(
    n_max: int, fmt: str, tol: float, output: str | None, config: QuadConfig
) -> None:
    """Cross-check every representation against exact values for n = 0..N_MAX."""
    rows = compare_representations(n_max, config)
    report = build_report(rows, config, err_threshold=tol)
    rendered = {"text": to_text, "csv": to_csv, "json": to_json}[fmt](report)
    if output is None:
        sys.stdout.write(rendered)
    else:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            _fail(f"cannot write {output}: {exc}", EXIT_IO)
    if report.summary.failures > 0:
        sys.exit(EXIT_VERIFICATION_FAILED)


def cmd_sumrule(which: str, tol: float) -> None:
    """Sum a Catalan series rule with a certified tail and check its target.

    Exits 0 only if the tail bound met tol and the certified interval is
    consistent with the closed-form target (abs_err <= tol + tail_bound).
    """
    rule = stewart_sum_odd_weight if which == "odd-weight" else stewart_sum_plain
    result = rule(tol)
    print(f"partial_sum     {_fmt(result.partial_sum)}")
    print(f"terms_used      {result.terms_used}")
    print(f"tail_bound      {result.tail_bound:.3e}")
    print(f"certified_value {_fmt(result.certified_value)}")
    print(f"target          {_fmt(result.target)}")
    print(f"abs_err         {result.abs_err:.3e}")
    if not result.converged:
        _fail(
            f"tolerance unreachable: tail bound {result.tail_bound:.3e} after "
            f"{result.terms_used} terms, within 0.1% of the rounding floor "
            f"2e = {2.0 * _widening(which == 'odd-weight'):.3e}"
        )
    if not result.abs_err <= tol + result.tail_bound:
        _fail("target missed: the series does not certify to the stated closed form")


def cmd_glaisher(config: QuadConfig) -> None:
    """Recover the Glaisher-Kinkelin constant from the log-Gamma integral."""
    result = glaisher_from_integral(config)
    if not result.converged:
        _fail(
            f"quadrature failed: log-Gamma integral on [0, 1/2]: error estimate "
            f"{result.error_estimate:.3e} did not meet tolerance after "
            f"{result.evaluations} evaluations"
        )
    print(f"integral_value {_fmt(result.integral_value)}")
    print(f"ln_A           {_fmt(result.ln_A)}")
    print(f"oracle_ln_A    {_fmt(result.oracle_ln_A)}")
    print(f"abs_err        {result.abs_err:.3e}")
    if not result.abs_err <= 1e-8:
        sys.exit(EXIT_VERIFICATION_FAILED)


def cmd_dump_kernel(
    kernel: str, n: int, t_min: float, t_max: float, points: int
) -> None:
    """Tabulate KERNEL at index N on a log-spaced grid, as CSV ``t,value``."""
    if not t_min < t_max:
        raise UsageError(f"need t_min < t_max, got [{t_min}, {t_max}]")
    if t_max / t_min == math.inf:
        raise UsageError(f"need a finite t_max / t_min, got {t_max} / {t_min} = inf")
    integrand = _KERNELS[kernel](n).integrand
    # int / int: points past the largest float has no float to round to.
    ratio = (t_max / t_min) ** (1 / (points - 1))
    print("t,value")
    # Each row is printed as it is computed, and the last t is t_max.
    for k in range(points):
        t = t_min * ratio**k if k < points - 1 else t_max
        print(f"{t:.17g},{integrand(t):.17g}")


def _checked(convert, check, *bounds):
    """An argparse type: ``convert`` the text, then pass it through the
    library's ``check`` (with ``bounds``), whose ValueError becomes a
    usage error; so no range is stated here that the library states."""

    def parse(text: str):
        value = convert(text)
        try:
            return check(value, *bounds)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    # argparse names the type in "invalid int value: 'x'".
    parse.__name__ = convert.__name__
    return parse


# Checked before any work: the package's index range and a report's
# err_threshold.
_INDEX = _checked(int, _check_index)
_THRESHOLD = _checked(float, _check_threshold)


def _build_parser() -> argparse.ArgumentParser:
    # Long options only, spelled out in full: no -h and no abbreviations.
    strict = {"add_help": False, "allow_abbrev": False}
    parser = argparse.ArgumentParser(
        prog="catalan-integrals",
        description="Exact Catalan numbers, their integral representations, "
        "and certified series identities.",
        **strict,
    )
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(name: str, run) -> argparse.ArgumentParser:
        sub = commands.add_parser(
            name, help=run.__doc__.split("\n")[0], description=run.__doc__, **strict
        )
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        sub.set_defaults(run=run, parser=sub)
        return sub

    def quad_options(sub: argparse.ArgumentParser) -> None:
        defaults = QuadConfig()
        for option, value, text in (
            ("--abs-tol", defaults.abs_tol, "Absolute quadrature tolerance."),
            ("--rel-tol", defaults.rel_tol, "Relative quadrature tolerance."),
            ("--max-subdivisions", defaults.max_subdivisions, "Adaptive bisection budget."),
        ):
            text += " [default: %(default)s]"
            sub.add_argument(option, type=type(value), default=value, help=text)

    command("exact", cmd_exact).add_argument("n", metavar="N", type=_INDEX)

    rep = command("rep", cmd_rep)
    rep.add_argument(
        "method",
        metavar="METHOD",
        choices=sorted(_ROUTES_BY_NAME),
        help="One of %(choices)s.",
    )
    rep.add_argument("n", metavar="N", type=_INDEX)
    rep.add_argument(
        "--tol",
        type=_THRESHOLD,
        default=1e-8,
        help="Acceptable |ln_value - exact_ln|. [default: %(default)s]",
    )
    quad_options(rep)

    verify = command("verify", cmd_verify)
    verify.add_argument("--n-max", type=_INDEX, required=True, help="Sweep n = 0..N_MAX.")
    verify.add_argument(
        "--format",
        dest="fmt",
        choices=["text", "csv", "json"],
        default="text",
        help="One of %(choices)s. [default: %(default)s]",
    )
    verify.add_argument(
        "--tol",
        type=_THRESHOLD,
        default=1e-8,
        help="Per-row failure threshold on abs_err_ln. [default: %(default)s]",
    )
    verify.add_argument("--output", help="Write the report here instead of stdout.")
    quad_options(verify)

    sumrule = command("sumrule", cmd_sumrule)
    sumrule.add_argument(
        "which",
        metavar="WHICH",
        choices=["odd-weight", "plain"],
        help="One of %(choices)s.",
    )
    sumrule.add_argument(
        "--tol",
        type=_checked(float, _check_tol),
        default=1e-6,
        help="Tail-bound stopping tolerance. [default: %(default)s]",
    )

    quad_options(command("glaisher", cmd_glaisher))

    dump = command("dump-kernel", cmd_dump_kernel)
    dump.add_argument(
        "kernel", metavar="KERNEL", choices=sorted(_KERNELS), help="One of %(choices)s."
    )
    dump.add_argument("n", metavar="N", type=_INDEX)
    positive = (math.ulp(0.0), sys.float_info.max)
    for option, name, default in (("--t-min", "t_min", 1e-8), ("--t-max", "t_max", 50.0)):
        dump.add_argument(
            option,
            type=_checked(float, _check_real, *positive, name),
            default=default,
            help="[default: %(default)s]",
        )
    dump.add_argument(
        "--points",
        type=_checked(int, _check_index, math.inf, "points", 2),
        default=200,
        help="[default: %(default)s]",
    )
    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> None:
    """Run the command named in ``argv`` (default ``sys.argv[1:]``).

    Returns when the command succeeds; otherwise exits with one of the
    codes the module docstring lists.
    """
    args = vars(_PARSER.parse_args(argv))
    run, parser = args.pop("run"), args.pop("parser")
    try:
        if "abs_tol" in args:  # a command with the quadrature options
            try:
                args["config"] = QuadConfig(*map(args.pop, QuadConfig._fields))
            except ValueError as exc:
                raise UsageError(str(exc)) from None
        run(**args)
    except UsageError as exc:
        parser.error(str(exc))
    except Exception:
        # A crash, told apart from a failed check; the traceback prints as
        # Python would print it, after what the command wrote to stdout.
        sys.stdout.flush()
        sys.excepthook(*sys.exc_info())
        sys.exit(EXIT_CRASH)


if __name__ == "__main__":
    main()
