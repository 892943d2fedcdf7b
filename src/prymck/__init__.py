"""Exact classes and Euler characteristics of pointed Brill-Noether loci
on Prym varieties, with two mutually cross-validating computation routes.

The package exports each module's __all__, which is the one list of that
module's public names.
"""

from . import exact_arith, operator_engine, pfaffian, prym_bn, series_ring
from .exact_arith import *
from .operator_engine import *
from .pfaffian import *
from .prym_bn import *
from .series_ring import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *exact_arith.__all__,
    *operator_engine.__all__,
    *pfaffian.__all__,
    *prym_bn.__all__,
    *series_ring.__all__,
]
