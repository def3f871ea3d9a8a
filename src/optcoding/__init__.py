"""Optimal coding under given magnitudes, non-singular code construction,
maximum-entropy rank distributions, random typing, and corpus analysis."""

# Each library module's `__all__` is the one list of its public names.
from .assign import *
from .codebook import *
from .corpus import *
from .maxent import *
from .randtype import *

__version__ = "0.1.0"
