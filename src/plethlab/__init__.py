"""Exact symmetric-function combinatorics: Littlewood-Richardson
coefficients, Schur plethysm, and growth sequences of plethysm coefficients
with empirical stability detection, all in exact integers (Fraction only at
the public power-sum functions); nothing here uses floating point.

Each module's ``__all__`` is its public API, and ``plethlab`` re-exports the
``__all__`` of ``partitions``, ``lr``, ``powersum``, ``plethysm`` and
``stability``.
"""

__version__ = "0.1.0"

from . import lr, partitions, plethysm, powersum, stability
from .partitions import *
from .lr import *
from .powersum import *
from .plethysm import *
from .stability import *

__all__ = ["__version__"]
__all__ += partitions.__all__
__all__ += lr.__all__
__all__ += powersum.__all__
__all__ += plethysm.__all__
__all__ += stability.__all__
