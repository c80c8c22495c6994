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

The package exports the joined ``__all__`` of its five library modules,
so each public name is declared once, in its own module.  ``report`` and
``cli`` are reached as modules.
"""

from . import exact, kernels, quadrature, representations, series
from .exact import *
from .kernels import *
from .quadrature import *
from .representations import *
from .series import *

__version__ = "0.1.0"

__all__ = [
    *exact.__all__,
    *kernels.__all__,
    *quadrature.__all__,
    *representations.__all__,
    *series.__all__,
]
