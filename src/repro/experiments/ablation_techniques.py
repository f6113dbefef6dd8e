"""Ablation: stacking DAP's techniques one at a time.

Not a paper artifact, but the design-choice ablation DESIGN.md calls
out: how much of DAP's gain does each technique contribute? Runs the
bandwidth-sensitive mixes with FWB only, FWB+WB, FWB+WB+IFRM, and full
DAP (adds SFRM), all normalized to the optimized baseline.

Expected shape: monotone non-decreasing as techniques stack (each only
fires when the solver judges it profitable), with the per-workload
distribution mirroring Fig. 7 — write-heavy workloads saturate at
FWB+WB, tag-thrashing ones only take off once SFRM joins.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.experiments.exec import (
    CellResults,
    ExperimentSpec,
    MixCell,
    run_spec,
)
from repro.experiments.scale import ExperimentResult, Scale, scaled_config
from repro.metrics.speedup import geomean, normalized_weighted_speedup
from repro.workloads.mixes import rate_mix
from repro.workloads.profiles import BANDWIDTH_SENSITIVE

VARIANTS = (
    ("fwb", "dap-fwb"),
    ("fwb+wb", "dap-fwb-wb"),
    ("fwb+wb+ifrm", "dap-no-sfrm"),
    ("full_dap", "dap"),
)


def cells(scale: Scale, workloads: Sequence[str]) -> Iterator[MixCell]:
    for name in workloads:
        mix = rate_mix(name)
        yield MixCell(f"{name}/baseline", mix,
                      scaled_config(scale, policy="baseline"), scale)
        for label, policy in VARIANTS:
            yield MixCell(f"{name}/{label}", mix,
                          scaled_config(scale, policy=policy), scale)


def render(ctx: CellResults) -> ExperimentResult:
    result = ctx.new_result()
    columns: dict[str, list[float]] = {label: [] for label, _ in VARIANTS}
    for name in ctx.workloads:
        base = ctx[f"{name}/baseline"]
        row = [name]
        for label, _ in VARIANTS:
            ws = normalized_weighted_speedup(ctx[f"{name}/{label}"].ipc,
                                             base.ipc)
            row.append(ws)
            columns[label].append(ws)
        result.add(*row)
    result.add("GMEAN", *[geomean(columns[label]) for label, _ in VARIANTS])
    return result


def claims():
    """The ablation's registered shapes (see repro.validate)."""
    from repro.validate import Cells, Claim, monotone_rising, ordering
    return (
        Claim(
            id="ablation.techniques_stack",
            claim="geomean speedup is monotone non-decreasing as "
                  "techniques stack (each only fires when the solver "
                  "judges it profitable)",
            paper="§IV (design), Fig. 7",
            predicate=monotone_rising(
                Cells((("GMEAN", "fwb"), ("GMEAN", "fwb+wb"),
                       ("GMEAN", "fwb+wb+ifrm"), ("GMEAN", "full_dap"))),
                tol=0.005),
        ),
        Claim(
            id="ablation.full_dap_best",
            claim="full DAP clearly beats the FWB-only variant",
            paper="§IV (design)",
            predicate=ordering(("GMEAN", "full_dap"), ("GMEAN", "fwb"),
                               margin=0.01),
        ),
    )


SPEC = ExperimentSpec(
    name="ablation",
    title="Ablation — stacking DAP techniques",
    headers=("workload",) + tuple(label for label, _ in VARIANTS),
    cells=cells,
    render=render,
    workload_aware=True,
    default_workloads=tuple(BANDWIDTH_SENSITIVE),
    notes="normalized weighted speedup over the optimized baseline",
    claims=claims,
)


def run(scale: Optional[Scale] = None,
        workloads: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Compatibility shim (serial, uncached); prefer the registered SPEC."""
    return run_spec(SPEC, scale=scale, workloads=workloads)


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
