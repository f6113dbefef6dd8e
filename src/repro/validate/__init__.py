"""Executable paper-shape validation.

EXPERIMENTS.md records, for every figure and table, whether the
*shape* of the paper's claim (an ordering, a direction, a crossover)
survives the reproduction. This package turns those prose verdicts
into machine-checkable assertions: each experiment registers its paper
claims as typed predicates over its rendered result table, the
evaluator produces a ``validation.json`` document plus a markdown
verdict table, and the differ turns a verdict flip (✔ → ✗) into a
non-zero exit for CI.

- :mod:`repro.validate.predicates` — the shape-predicate library
  (``ordering``, ``monotone_rising``, ``peak_then_fall``,
  ``crossover``, ``within_rel``, ``sign``) and the claim container;
- :mod:`repro.validate.evaluate` — claims × results → validation doc;
- :mod:`repro.validate.report` — JSON round-trip and markdown tables;
- :mod:`repro.validate.diff` — baseline/candidate verdict comparison;
- :mod:`repro.validate.cli` — the ``repro validate`` command.
"""

from repro.validate.predicates import (
    Claim,
    ClaimDataError,
    Col,
    Cells,
    crossover,
    monotone_falling,
    monotone_rising,
    ordering,
    peak_then_fall,
    sign,
    within_rel,
)
from repro.validate.evaluate import (
    build_validation,
    evaluate_claims,
    evaluate_result,
)
from repro.validate.report import (
    load_validation,
    render_markdown,
    render_verdict_table,
    write_validation,
)
from repro.validate.diff import VerdictDiff, diff_validations

__all__ = [
    "Claim",
    "ClaimDataError",
    "Col",
    "Cells",
    "VerdictDiff",
    "build_validation",
    "crossover",
    "diff_validations",
    "evaluate_claims",
    "evaluate_result",
    "load_validation",
    "monotone_falling",
    "monotone_rising",
    "ordering",
    "peak_then_fall",
    "render_markdown",
    "render_verdict_table",
    "sign",
    "within_rel",
    "write_validation",
]
