"""Gaussian-process regression substrate (paper §II-B).

Public surface:

* :class:`GaussianProcess` — exact GP with a zero prior mean on standardized
  targets, the Eq. 2 posterior, and the pending-point hallucination used by
  EasyBO's penalization scheme.
* :class:`SquaredExponential` — the paper's SE-ARD kernel.
* :func:`fit_hyperparameters` — ML-II fitting with analytic gradients.
* :class:`BoxTransform` / :class:`OutputStandardizer` — scaling helpers.
"""

from repro.gp.gp import GaussianProcess
from repro.gp.hyperopt import HyperparameterBounds, fit_hyperparameters
from repro.gp.kernels import SquaredExponential
from repro.gp.standardize import BoxTransform, OutputStandardizer

__all__ = [
    "GaussianProcess",
    "HyperparameterBounds",
    "fit_hyperparameters",
    "SquaredExponential",
    "BoxTransform",
    "OutputStandardizer",
]
