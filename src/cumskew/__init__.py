"""Outlier-robust skewness from Lorenz-curve gaps.

The package provides the cumulative skew statistic (a bounded, affine-
invariant asymmetry measure), the classical moment skewness b1, a Gini
coefficient on the same grid, seedable samplers for the distributions
used in the simulation studies, and a deterministic Monte Carlo harness.

The samplers and the harness (`distributions`, `experiments`) are imported
on first use (PEP 562), so a program that only scores samples does not
load them, nor the `multiprocessing` machinery behind the harness.
"""

__version__ = "0.1.0"

import importlib

from . import core, errors
from .core import *  # noqa: F403
from .errors import *  # noqa: F403
from .io import parse_csv

_LAZY = ("distributions", "experiments")


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        distributions, experiments = map(__getattr__, _LAZY)
        names = ["__version__", *core.__all__, *distributions.__all__,
                 *experiments.__all__, "parse_csv", *errors.__all__]
        globals()["__all__"] = names
        return names
    if not name.startswith("_"):  # private and dunder probes import nothing
        for module in map(__getattr__, _LAZY):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *__getattr__("__all__")})
