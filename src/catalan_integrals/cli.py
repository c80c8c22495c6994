"""Command-line interface.

Exit codes, uniform across subcommands:

* 0 -- success (all requested checks met their tolerance)
* 1 -- a verification failure (tolerance missed, quadrature did not
       converge, or a term budget ran out)
* 2 -- usage error (bad arguments; raised by the option parser)
* 3 -- I/O failure writing requested output

Numeric text output uses 17 significant digits so values round-trip
through the printed form.
"""

from __future__ import annotations

import decimal
import math
import sys
from decimal import Decimal

import click

from .exact import catalan_exact, ln_exact
from .kernels import binet_catalan_kernel, malmsten_catalan_kernel
from .quadrature import QuadConfig
from .report import _fmt, build_report, to_csv, to_json, to_text
from .representations import ROUTES, RepresentationResult, compare_representations
from .series import (
    TERM_BUDGET,
    SeriesResult,
    glaisher_from_integral,
    stewart_sum_odd_weight,
    stewart_sum_plain,
)

_ROUTES_BY_NAME = {route.name: route for route in ROUTES}

_KERNELS = {
    "malmsten": malmsten_catalan_kernel,
    "binet": binet_catalan_kernel,
}

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _quad_options(fn):
    fn = click.option(
        "--abs-tol",
        type=float,
        default=QuadConfig.abs_tol,
        show_default=True,
        help="Absolute quadrature tolerance.",
    )(fn)
    fn = click.option(
        "--rel-tol",
        type=float,
        default=QuadConfig.rel_tol,
        show_default=True,
        help="Relative quadrature tolerance.",
    )(fn)
    fn = click.option(
        "--max-subdivisions",
        type=int,
        default=QuadConfig.max_subdivisions,
        show_default=True,
        help="Adaptive bisection budget.",
    )(fn)
    return fn


def _config(abs_tol: float, rel_tol: float, max_subdivisions: int) -> QuadConfig:
    try:
        return QuadConfig(
            abs_tol=abs_tol, rel_tol=rel_tol, max_subdivisions=max_subdivisions
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _nonnegative_tol(
    ctx: click.Context, param: click.Parameter, value: float
) -> float:
    if not 0 <= value < math.inf:
        raise click.BadParameter(f"must be finite and >= 0, got {value}")
    return value


def _print_row(row: RepresentationResult) -> None:
    click.echo(
        f"n={row.n} method={row.method.value} ln_value={_fmt(row.ln_value)} "
        f"exact_ln={_fmt(row.exact_ln)} abs_err_ln={row.abs_err_ln:.3e} "
        f"quad_error_estimate={row.quad_error_estimate:.3e} "
        f"evaluations={row.evaluations} converged={str(row.converged).lower()}"
    )


@click.group()
def main() -> None:
    """Exact Catalan numbers, their integral representations, and
    certified series identities."""


def _decimal_digits(value: int) -> str:
    """Every decimal digit of a non-negative int, in subquadratic time.

    str(int) stops at sys.int_max_str_digits (4300 digits by default on
    CPython 3.10.7+/3.11, reached near C_7150), and both it and
    Decimal(int) are quadratic in the digit count.  Splitting on powers
    of two and recombining exactly in decimal, whose multiplication is
    subquadratic, avoids both; the global settings are left alone.
    """
    powers: dict[int, Decimal] = {}

    def two_to(k: int) -> Decimal:
        if k not in powers:
            powers[k] = (
                Decimal(1 << k) if k <= 1024 else two_to(k // 2) * two_to(k - k // 2)
            )
        return powers[k]

    def convert(v: int, bits: int) -> Decimal:
        if bits <= 1024:
            return Decimal(v)
        half = bits // 2
        high = v >> half
        return convert(high, bits - half) * two_to(half) + convert(v - (high << half), half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(convert(value, value.bit_length()))


@main.command("exact")
@click.argument("n", type=click.IntRange(min=0))
def cmd_exact(n: int) -> None:
    """Print C_N exactly (all digits), then ln C_N and its error bound."""
    click.echo(_decimal_digits(catalan_exact(n)))
    ln_c = ln_exact(n)
    click.echo(f"ln {_fmt(ln_c)}")
    # The bound ln_exact's docstring proves: a relative 2^-53 of the sum
    # for the logs of the factors, and half an ulp for its one rounding.
    click.echo(f"ln_error {_fmt(ln_c * 2.0**-53 + 0.5 * math.ulp(ln_c))}")


@main.command("rep")
@click.argument("method", type=click.Choice(sorted(_ROUTES_BY_NAME)))
@click.argument("n", type=click.IntRange(min=0))
@click.option(
    "--tol",
    type=float,
    default=1e-8,
    show_default=True,
    callback=_nonnegative_tol,
    help="Acceptable |ln_value - exact_ln|.",
)
@_quad_options
def cmd_rep(
    method: str,
    n: int,
    tol: float,
    abs_tol: float,
    rel_tol: float,
    max_subdivisions: int,
) -> None:
    """Evaluate one representation METHOD at index N and check it."""
    config = _config(abs_tol, rel_tol, max_subdivisions)
    row = _ROUTES_BY_NAME[method].evaluate(n, config)
    _print_row(row)
    if not row.converged or not (row.abs_err_ln <= tol):
        sys.exit(EXIT_VERIFICATION_FAILED)


@main.command("verify")
@click.option("--n-max", type=click.IntRange(min=0), required=True, help="Sweep n = 0..N_MAX.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "csv", "json"]),
    default="text",
    show_default=True,
)
@click.option(
    "--tol",
    type=float,
    default=1e-8,
    show_default=True,
    callback=_nonnegative_tol,
    help="Per-row failure threshold on abs_err_ln.",
)
@click.option(
    "--output",
    type=str,
    default=None,
    help="Write the report here instead of stdout.",
)
@_quad_options
def cmd_verify(
    n_max: int,
    fmt: str,
    tol: float,
    output: str | None,
    abs_tol: float,
    rel_tol: float,
    max_subdivisions: int,
) -> None:
    """Cross-check every representation against exact values for n = 0..N_MAX."""
    config = _config(abs_tol, rel_tol, max_subdivisions)
    rows = compare_representations(n_max, config)
    report = build_report(rows, config, err_threshold=tol)
    rendered = {"text": to_text, "csv": to_csv, "json": to_json}[fmt](report)
    if output is None:
        click.echo(rendered, nl=False)
    else:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            click.echo(f"cannot write {output}: {exc}", err=True)
            sys.exit(EXIT_IO)
    if report.summary.failures > 0:
        sys.exit(EXIT_VERIFICATION_FAILED)


def _print_series(result: SeriesResult) -> None:
    click.echo(f"partial_sum     {_fmt(result.partial_sum)}")
    click.echo(f"terms_used      {result.terms_used}")
    click.echo(f"tail_bound      {result.tail_bound:.3e}")
    click.echo(f"certified_value {_fmt(result.certified_value)}")
    click.echo(f"target          {_fmt(result.target)}")
    click.echo(f"abs_err         {result.abs_err:.3e}")


@main.command("sumrule")
@click.argument("which", type=click.Choice(["odd-weight", "plain"]))
@click.option(
    "--tol",
    type=float,
    default=1e-6,
    show_default=True,
    help="Tail-bound stopping tolerance.",
)
def cmd_sumrule(which: str, tol: float) -> None:
    """Sum a Catalan series rule with a certified tail and check its target.

    Exits 0 only if the tail bound met tol and the certified interval is
    consistent with the closed-form target (abs_err <= tol + tail_bound).
    """
    rule = stewart_sum_odd_weight if which == "odd-weight" else stewart_sum_plain
    try:
        result = rule(tol)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _print_series(result)
    if not result.converged:
        click.echo(
            f"term budget exhausted: tail bound {result.tail_bound:.3e} after "
            f"{result.terms_used} terms; requested tolerance is unreachable "
            f"within {TERM_BUDGET} terms",
            err=True,
        )
        sys.exit(EXIT_VERIFICATION_FAILED)
    if not result.abs_err <= tol + result.tail_bound:
        click.echo(
            "target missed: the series does not certify to the stated closed form",
            err=True,
        )
        sys.exit(EXIT_VERIFICATION_FAILED)


@main.command("glaisher")
@_quad_options
def cmd_glaisher(abs_tol: float, rel_tol: float, max_subdivisions: int) -> None:
    """Recover the Glaisher-Kinkelin constant from the log-Gamma integral."""
    config = _config(abs_tol, rel_tol, max_subdivisions)
    result = glaisher_from_integral(config)
    if not result.converged:
        click.echo(
            f"quadrature failed: log-Gamma integral on [0, 1/2]: error estimate "
            f"{result.error_estimate:.3e} did not meet tolerance after "
            f"{result.evaluations} evaluations",
            err=True,
        )
        sys.exit(EXIT_VERIFICATION_FAILED)
    click.echo(f"integral_value {_fmt(result.integral_value)}")
    click.echo(f"ln_A           {_fmt(result.ln_A)}")
    click.echo(f"oracle_ln_A    {_fmt(result.oracle_ln_A)}")
    click.echo(f"abs_err        {result.abs_err:.3e}")
    if not result.abs_err <= 1e-8:
        sys.exit(EXIT_VERIFICATION_FAILED)


@main.command("dump-kernel")
@click.argument("kernel", type=click.Choice(sorted(_KERNELS)))
@click.argument("n", type=click.IntRange(min=0))
@click.option(
    "--t-min",
    type=click.FloatRange(min=0.0, min_open=True),
    default=1e-8,
    show_default=True,
)
@click.option("--t-max", type=float, default=50.0, show_default=True)
@click.option("--points", type=click.IntRange(min=2), default=200, show_default=True)
def cmd_dump_kernel(
    kernel: str, n: int, t_min: float, t_max: float, points: int
) -> None:
    """Tabulate KERNEL at index N on a log-spaced grid, as CSV ``t,value``."""
    if not t_min < t_max < math.inf:
        raise click.UsageError(
            f"need 0 < t_min < t_max < inf, got [{t_min}, {t_max}]"
        )
    spec = _KERNELS[kernel](n)
    ratio = (t_max / t_min) ** (1.0 / (points - 1))
    grid = [t_min * ratio**k for k in range(points)]
    grid[-1] = t_max
    click.echo("t,value")
    for t in grid:
        click.echo(f"{t:.17g},{spec.integrand(t):.17g}")


if __name__ == "__main__":
    main()
