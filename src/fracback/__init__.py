"""Spectral solver and regularized backward reconstruction for
time-fractional diffusion on a box, with the special functions,
quadrature, and experiment drivers that support it.

Each submodule's ``__all__`` is the one list of its public names; the
package re-exports them all.  The CLI front end stays in ``fracback.cli``.
"""

from . import errors, experiments, quadrature, solver, special, spectral
from .errors import *
from .experiments import *
from .quadrature import *
from .solver import *
from .special import *
from .spectral import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *experiments.__all__,
    *quadrature.__all__,
    *solver.__all__,
    *special.__all__,
    *spectral.__all__,
    "__version__",
]
