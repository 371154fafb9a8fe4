"""Toolkit for high-order interdependence analysis via entropic conjugation.

The package has five layers:

* :mod:`entroconj.algebra` — exact symbolic algebra over linear combinations
  of subset entropies, the conjugation involution, the u_k basis, and
  symmetry classification.
* :mod:`entroconj.metrics` — the classical interdependence metrics (total
  correlation, dual total correlation, TSE complexity, interaction
  information, O-information, S-information) in both forms.
* :mod:`entroconj.distributions` — exact finite joint distributions with
  plug-in evaluation of entropies, u_k profiles, and arbitrary expressions.
* :mod:`entroconj.pid` — source-target decomposition atoms as monotone
  Boolean functions, the redundancy/synergy duality, and a reference
  decomposition for numeric checks.
* :mod:`entroconj.spins` — the Boltzmann spin-ensemble experiment with its
  PCA summary and CSV/JSON data products.
"""

__version__ = "0.1.0"  # set before the imports: spins reads it

import sys as _sys
from types import ModuleType as _ModuleType


class _NumpyOnFirstUse(_ModuleType):
    """What the modules bind as ``np`` until numpy is first read.

    ``basis``, ``classify`` and ``conjugate`` never read it, so they run
    without importing numpy.  The first attribute read imports numpy (a
    thread that reads meanwhile waits on the import system's module lock,
    then sees the whole module) and rebinds every name in the package that
    holds this object, so from then on ``np is numpy``.
    """

    def __getattr__(self, name):
        import numpy

        for key, module in list(_sys.modules.items()):
            if key.split(".")[0] == __name__:
                scope = vars(module)
                scope.update({attr: numpy for attr, value in list(scope.items()) if value is self})
        return getattr(numpy, name)


# set before the imports, which bind it as np
_numpy = _NumpyOnFirstUse("numpy")

from . import algebra, distributions, metrics, pid, spins
from .algebra import *
from .distributions import *
from .metrics import *
from .pid import *
from .spins import *

# each module's own __all__ decides what it makes public
__all__ = [
    "__version__",
    *algebra.__all__,
    *distributions.__all__,
    *metrics.__all__,
    *pid.__all__,
    *spins.__all__,
]
