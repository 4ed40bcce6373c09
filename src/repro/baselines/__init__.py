"""The non-BO baseline of the paper's tables: differential evolution.

Random search is a campaign (the ``Random-<workers>`` label of
:func:`repro.core.easybo.make_algorithm`), not a baseline loop of its own.
"""

from repro.baselines.de import DifferentialEvolution

__all__ = ["DifferentialEvolution"]
