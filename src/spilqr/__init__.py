"""Discrete-time LQR via scaling policy iteration.

Solves the infinite-horizon linear quadratic regulator problem for
``x_{k+1} = A x_k + B u_k`` starting from an arbitrary, possibly
destabilizing, feedback gain.  Two solver families are provided:

* :func:`spilqr.model_based.spi_model_based` uses the plant matrices;
* :func:`spilqr.model_free.spi_model_free` uses only one recorded
  trajectory of states and inputs.

Supporting modules: :mod:`spilqr.matkit` (matrix kernels),
:mod:`spilqr.lti` (plants, discretization, simulation),
:mod:`spilqr.riccati` (policy/value iteration ground truth and the
verified DARE reference),
:mod:`spilqr.benchmarks` (test plants), :mod:`spilqr.cli`
(experiment runner).
"""

import importlib

from . import benchmarks, lti, matkit, model_based, model_free, riccati
from .exceptions import (
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    EigenvalueConvergenceError,
    IllConditionedError,
    InsufficientSamplesError,
    InvalidProblemError,
    InvariantViolatedError,
    MaxIterationsError,
    NotStabilizingError,
    ProbesExhaustedError,
    RankDeficientError,
    SingularMatrixError,
    SpilqrError,
    UnstableMatrixError,
    UnstableScaledSystemError,
)
from .lti import CostWeights, LinearSystem, Trajectory
from .model_based import SpiReport, SpiState, spi_model_based
from .model_free import (
    RegressionData,
    RegressionSolution,
    build_regression_data,
    spi_model_free,
)
from .riccati import AreSolution, hewer_pi, value_iteration

__version__ = "0.1.0"


def __getattr__(name):
    # The CLI (argparse, jsonschema) loads on first use, so that a plain
    # ``import spilqr`` stays light and ``python -m spilqr.cli`` does not
    # find the module already imported.
    if name == "cli":
        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "LinearSystem", "CostWeights", "Trajectory",
    "AreSolution", "SpiReport", "SpiState",
    "RegressionData", "RegressionSolution",
    "spi_model_based", "spi_model_free", "hewer_pi", "value_iteration",
    "build_regression_data",
    "matkit", "lti", "riccati", "model_based", "model_free",
    "benchmarks", "cli",
    "SpilqrError", "ConfigError", "DimensionMismatchError",
    "DivergenceError", "EigenvalueConvergenceError", "IllConditionedError",
    "InsufficientSamplesError", "InvalidProblemError",
    "InvariantViolatedError", "MaxIterationsError", "NotStabilizingError",
    "ProbesExhaustedError", "RankDeficientError", "SingularMatrixError",
    "UnstableMatrixError", "UnstableScaledSystemError",
]
