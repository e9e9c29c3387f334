"""Benford's law and its power-law generalizations.

Digit laws (Benford, two-sided power Benford, Pareto Benford), exact
first-digit extraction, integer sequence generators, minimum chi-square
fitting, and Monte Carlo verification of the laws against their
generating samplers.
"""
from . import digits, distributions, fitting, reference, sampling, sequences
from .digits import *
from .distributions import *
from .fitting import *
from .reference import *
from .sampling import *
from .sequences import *

__version__ = "0.1.0"

# a public name is exported by listing it in its module's __all__
__all__ = [name for module in (digits, distributions, fitting, reference,
                               sampling, sequences)
           for name in module.__all__] + ["__version__"]
