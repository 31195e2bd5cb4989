"""Contraction fixed points on Gaussian quantum states, with a fuzzy-metric baseline."""

from . import compare, fuzzy, gaussian, reports, solver
from .gaussian import *
from .solver import *
from .fuzzy import *
from .compare import *
from .reports import *

__version__ = "0.1.0"

__all__ = [name for module in (gaussian, solver, fuzzy, compare, reports)
           for name in module.__all__]
