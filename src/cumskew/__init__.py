"""Outlier-robust skewness from Lorenz-curve gaps.

The package provides the cumulative skew statistic (a bounded, affine-
invariant asymmetry measure), the classical moment skewness b1, a Gini
coefficient on the same grid, seedable samplers for the distributions
used in the simulation studies, and a deterministic Monte Carlo harness.
"""

__version__ = "0.1.0"

from . import core, distributions, errors, experiments
from .core import *  # noqa: F403
from .distributions import *  # noqa: F403
from .errors import *  # noqa: F403
from .experiments import *  # noqa: F403
from .io import parse_csv

__all__ = [
    "__version__",
    *core.__all__,
    *distributions.__all__,
    *experiments.__all__,
    "parse_csv",
    *errors.__all__,
]
