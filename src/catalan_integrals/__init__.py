"""Exact Catalan numbers, their integral representations, and verified
quadrature cross-checks.

The package is organized bottom-up:

* ``exact``           -- arbitrary-precision integer routes and ln C_n
* ``quadrature``      -- adaptive Gauss-Kronrod with a half-line reduction
* ``kernels``         -- cancellation-free log-Gamma integrands and their tails
* ``representations`` -- five ln C_n routes cross-checked against exact
* ``series``          -- certified sum rules and the Glaisher-Kinkelin constant
* ``report``          -- deterministic text/CSV/JSON verification reports
* ``cli``             -- the ``catalan-integrals`` command
"""

from .exact import CatalanTable, catalan_exact, catalan_numbers, ln_exact
from .kernels import (
    KernelSpec,
    binet_catalan_kernel,
    log_gamma_reference,
    malmsten_catalan_kernel,
)
from .quadrature import (
    IntegrandEvaluationError,
    QuadConfig,
    QuadResult,
    TailBound,
    integrate_finite,
    integrate_half_line,
)
from .representations import (
    Method,
    RepresentationResult,
    catalan_binet,
    catalan_gamma_closed_form,
    catalan_malmsten,
    catalan_penson_mellin,
    catalan_penson_moment,
    compare_representations,
)
from .series import (
    GlaisherResult,
    SeriesResult,
    glaisher_from_integral,
    series_tail_bound,
    stewart_sum_odd_weight,
    stewart_sum_plain,
)

__version__ = "0.1.0"

__all__ = [
    "CatalanTable",
    "GlaisherResult",
    "IntegrandEvaluationError",
    "KernelSpec",
    "Method",
    "QuadConfig",
    "QuadResult",
    "RepresentationResult",
    "SeriesResult",
    "TailBound",
    "binet_catalan_kernel",
    "catalan_binet",
    "catalan_exact",
    "catalan_gamma_closed_form",
    "catalan_malmsten",
    "catalan_numbers",
    "catalan_penson_mellin",
    "catalan_penson_moment",
    "compare_representations",
    "glaisher_from_integral",
    "integrate_finite",
    "integrate_half_line",
    "ln_exact",
    "log_gamma_reference",
    "malmsten_catalan_kernel",
    "series_tail_bound",
    "stewart_sum_odd_weight",
    "stewart_sum_plain",
]
