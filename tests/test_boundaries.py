"""One boundary test for every public number.

Each entry point that takes a number, each ``QuadConfig`` and
``TailBound`` field and each numeric command-line option gets the same
awkward values.  The contract: a value is either refused with
``ValueError`` (on the command line, exit 2 with nothing on stdout) or
accepted, and then gives a result, flagged where it cannot be trusted;
never another exception type.  Where an index is taken,
``numpy.int64(5)`` works as 5.  Each site names the values it accepts,
so a value that starts or stops being accepted fails here.
"""

import io
import math
import sys

import numpy as np
import pytest

from catalan_integrals.cli import main
from catalan_integrals.exact import CatalanTable, _catalan_digits, catalan_exact, ln_exact
from catalan_integrals.kernels import (
    binet_catalan_kernel,
    log_gamma_reference,
    malmsten_catalan_kernel,
)
from catalan_integrals.quadrature import (
    QuadConfig,
    TailBound,
    integrate_finite,
    integrate_half_line,
)
from catalan_integrals.report import build_report
from catalan_integrals.representations import ROUTES, compare_representations
from catalan_integrals.series import (
    series_tail_bound,
    stewart_sum_odd_weight,
    stewart_sum_plain,
)

_TOP = sys.float_info.max

# The awkward values, by name.
VALUES = {
    "True": True,
    "False": False,
    "10**400": 10**400,
    "-10**400": -(10**400),
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "-0.0": -0.0,
    "5e-324": 5e-324,
    "max": _TOP,
    "'3'": "3",
    "None": None,
    "int64(5)": np.int64(5),
}

_INDEX_ONLY = {"int64(5)"}  # an integer type that is not int
_NON_NEGATIVE = {"-0.0", "5e-324", "max"}
_POSITIVE = {"5e-324", "max"}


def _half_line(tail):
    return integrate_half_line(lambda t: math.exp(-t), QuadConfig(), tail)


def _quad(config):
    return integrate_finite(math.exp, 0.0, 1.0, config)


def _edges(a, *rest):
    *breakpoints, b = rest
    return integrate_finite(math.atan, a, b, QuadConfig(), breakpoints=tuple(breakpoints))


# Library sites: (name, call, the names of the values it accepts).
LIBRARY = [
    ("ln_exact", ln_exact, _INDEX_ONLY),
    ("catalan_exact", catalan_exact, _INDEX_ONLY),
    ("_catalan_digits", _catalan_digits, _INDEX_ONLY),
    ("CatalanTable.build", lambda v: CatalanTable.build(v).values, _INDEX_ONLY),
    *[
        (f"{kernel.__name__}", lambda v, k=kernel: (k(v).integrand(0.5), k(v).tail_constants),
         _INDEX_ONLY)
        for kernel in (malmsten_catalan_kernel, binet_catalan_kernel)
    ],
    *[(repr(route), lambda v, r=route: r(v, QuadConfig()), _INDEX_ONLY) for route in ROUTES],
    ("compare_representations", lambda v: compare_representations(v, QuadConfig()), _INDEX_ONLY),
    # From 4 to the largest float: an int past it is refused.
    ("series_tail_bound", series_tail_bound, _INDEX_ONLY),
    ("series_tail_bound odd", lambda v: series_tail_bound(v, odd_weight=True), _INDEX_ONLY),
    ("stewart_sum_plain", stewart_sum_plain, _POSITIVE),
    ("stewart_sum_odd_weight", stewart_sum_odd_weight, _POSITIVE),
    ("build_report err_threshold", lambda v: build_report([], QuadConfig(), v), _NON_NEGATIVE),
    # From the least normal double: below it 1/x overflows.
    ("log_gamma_reference", log_gamma_reference, {"max"}),
    # Each edge within the largest float of 0, and ascending.  The
    # integrand is finite at +-inf: on [-1, the largest float] a node
    # rounds to inf once the driver bisects.
    ("integrate_finite a", lambda v: _edges(v, 1.0), {"-0.0", "5e-324"}),
    ("integrate_finite b", lambda v: _edges(-1.0, v), _NON_NEGATIVE),
    ("integrate_finite breakpoint", lambda v: _edges(-1.0, v, 1.0), {"-0.0", "5e-324"}),
    ("QuadConfig.abs_tol", lambda v: _quad(QuadConfig(abs_tol=v)), _NON_NEGATIVE),
    ("QuadConfig.rel_tol", lambda v: _quad(QuadConfig(rel_tol=v)), _NON_NEGATIVE),
    # An integer >= 1, with no upper limit.
    ("QuadConfig.max_subdivisions", lambda v: _quad(QuadConfig(max_subdivisions=v)),
     {"10**400", "int64(5)"}),
    ("TailBound.K", lambda v: _half_line(TailBound(v, 1.0)), _POSITIVE),
    # From 8 over the largest float, so that the map's scale 8/c is finite.
    ("TailBound.c", lambda v: _half_line(TailBound(1.0, v)), {"max"}),
]


@pytest.mark.parametrize("value_name", VALUES)
@pytest.mark.parametrize("site, call, accepted", LIBRARY, ids=[s[0] for s in LIBRARY])
def test_library_boundaries(site, call, accepted, value_name):
    value = VALUES[value_name]
    if value_name not in accepted:
        # The one wording of the checks, or the order of an interval's edges.
        with pytest.raises(ValueError, match=r"cannot be .*: must be |ascending"):
            call(value)
    elif value_name == "int64(5)":
        assert call(value) == call(5)
    else:
        call(value)


def test_a_refusal_names_an_int_too_long_to_print():
    # str() of an int stops at 4300 digits, by default, with a ValueError
    # of its own.
    message = "Catalan index cannot be an int of 16610 bits: must be an integer from 0 to "
    with pytest.raises(ValueError, match=f"^{message}100000000$"):
        ln_exact(10**5000)


def test_accepted_tolerances_flag_what_they_cannot_meet():
    # The least positive tolerance is accepted and reported unconverged;
    # an absurd one is met by whatever the first pass gives.
    assert not stewart_sum_plain(5e-324).converged
    assert not _quad(QuadConfig(abs_tol=5e-324, rel_tol=0)).converged
    assert _quad(QuadConfig(abs_tol=_TOP)).converged
    # The largest K puts the map's folded mass, K/c 2^-424, over the target.
    assert not _half_line(TailBound(_TOP, 1.0)).converged


def test_an_index_of_another_integer_type_is_a_plain_int():
    config = QuadConfig(max_subdivisions=np.int64(5))
    assert type(config.max_subdivisions) is int
    assert config == QuadConfig(max_subdivisions=5)
    for route in ROUTES:
        assert type(route(np.int64(5)).n) is int
    assert [type(row.n) for row in compare_representations(np.int64(2), config)] == [int] * 15


@pytest.mark.parametrize("n", [*range(0, 400, 7), 201, 399, 10**6, 10**8])
def test_ln_exact_of_a_numpy_integer(n):
    # Computed with the raw numpy value, ln_exact raised at every n in
    # 2..200 and at some n above, where the fixed-point pass runs.
    assert ln_exact(np.int64(n)) == ln_exact(n)


def test_routes_and_catalan_exact_of_a_numpy_integer():
    assert catalan_exact(np.int64(100)) == catalan_exact(100)
    for n in (0, 5, 36, 200, 259, 10**6):
        for route in ROUTES:
            assert route(np.int64(n)) == route(n), (route, n)


class _Stop(BaseException):
    """Ends a command still printing after ``_Head.LINES`` lines; main
    catches every Exception, so this is not one."""


class _Head(io.StringIO):
    LINES = 1000

    lines = 0

    def write(self, text):
        if self.lines >= self.LINES:
            raise _Stop
        self.lines += text.count("\n")
        return super().write(text)


def _run(argv, monkeypatch):
    """(exit code, stdout) of ``main(argv)``, stopped after 1,000 lines."""
    out = _Head()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    try:
        main(argv)
        code = 0
    except SystemExit as exc:
        code = exc.code
    except _Stop:
        code = None
    return code, out.getvalue()


_CLI_NUMBER = {"'3'", "int64(5)"}  # on the command line, both are text for a number

# Command-line sites: (name, the argument list around the value, the
# names of the values it accepts).  None is the option with no value.
CLI = [
    ("exact N", ["exact", "{}"], _CLI_NUMBER),
    ("rep N", ["rep", "gamma", "{}"], _CLI_NUMBER),
    ("verify --n-max", ["verify", "--n-max", "{}"], _CLI_NUMBER),
    ("dump-kernel N", ["dump-kernel", "binet", "{}", "--points", "3"], _CLI_NUMBER),
    ("rep --tol", ["rep", "gamma", "5", "--tol", "{}"], _NON_NEGATIVE | _CLI_NUMBER),
    ("verify --tol", ["verify", "--n-max", "2", "--tol", "{}"], _NON_NEGATIVE | _CLI_NUMBER),
    ("sumrule --tol", ["sumrule", "plain", "--tol", "{}"], _POSITIVE | _CLI_NUMBER),
    *[
        (f"{command[0]} {option}", [*command, option, "{}"], accepted | _CLI_NUMBER)
        for command in (["rep", "malmsten", "5"], ["verify", "--n-max", "2"], ["glaisher"])
        for option, accepted in (
            ("--abs-tol", _NON_NEGATIVE),
            ("--rel-tol", _NON_NEGATIVE),
            ("--max-subdivisions", {"10**400"}),
        )
    ],
    # t_min < t_max with a finite ratio refuses the accepted extremes.
    ("dump-kernel --t-min", ["dump-kernel", "binet", "1", "--points", "3", "--t-min", "{}"],
     _CLI_NUMBER),
    ("dump-kernel --t-max", ["dump-kernel", "binet", "1", "--points", "3", "--t-max", "{}"],
     _CLI_NUMBER),
    # No upper limit: 10**400 points stream until the test stops them.
    ("dump-kernel --points", ["dump-kernel", "binet", "1", "--points", "{}"],
     {"10**400"} | _CLI_NUMBER),
]


@pytest.mark.parametrize("value_name", VALUES)
@pytest.mark.parametrize("site, template, accepted", CLI, ids=[s[0] for s in CLI])
def test_cli_boundaries(site, template, accepted, value_name, monkeypatch):
    value = VALUES[value_name]
    argv = [str(value) if arg == "{}" else arg for arg in template if arg != "{}" or value is not None]
    code, stdout = _run(argv, monkeypatch)
    if value_name not in accepted:
        assert (code, stdout) == (2, "")
    elif value_name == "10**400" and site == "dump-kernel --points":
        assert code is None and stdout.count("\n") == _Head.LINES
    else:
        assert code in (0, 1)
