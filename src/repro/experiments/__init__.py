"""Experiment harness: one module per paper table/figure.

Every experiment module exposes ``run(scale: Scale) -> ExperimentResult``
and can be executed standalone (``python -m repro.experiments.fig06_dap_speedup``)
or through :mod:`repro.experiments.runner`. The :class:`~repro.experiments.scale.Scale`
controls trace lengths and capacity scaling — never model fidelity — so
the same code produces CI-speed smoke results and paper-scale sweeps.
"""

from repro.experiments.scale import (
    Scale,
    SMOKE,
    SMALL,
    PAPER,
    get_scale,
    ExperimentResult,
)

__all__ = ["Scale", "SMOKE", "SMALL", "PAPER", "get_scale", "ExperimentResult"]
