"""Fig. 14: DAP on the Alloy cache, against BEAR.

Top panel: weighted speedup of Alloy+BEAR and Alloy+DAP over the Alloy
baseline (which already includes the L3 presence bit and the hit/miss
predictor). Bottom panel: main-memory CAS fraction.

Expected shape: BEAR improves the baseline; DAP improves it more
(paper: 22% vs 29%), and DAP's MM CAS fraction moves toward the Alloy
optimum of ~36% (the TAD transfer uses only 2 of its 3 cycles for data,
so B_MS$ = 2/3 x 102.4 GB/s).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.core.bandwidth_model import optimal_mm_cas_fraction
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


def alloy_config(scale: Scale, policy: str):
    return scaled_config(scale, policy=policy, msc_kind="alloy")


def cells(scale: Scale, workloads: Sequence[str]) -> Iterator[MixCell]:
    for name in workloads:
        mix = rate_mix(name)
        for policy in ("baseline", "bear", "dap"):
            yield MixCell(f"{name}/{policy}", mix,
                          alloy_config(scale, policy), scale)


def render(ctx: CellResults) -> ExperimentResult:
    optimal = optimal_mm_cas_fraction(102.4 * 2 / 3, 38.4)
    result = ctx.new_result(
        notes=f"optimal Alloy MM CAS fraction = {optimal:.3f}")
    bear_ws, dap_ws = [], []
    for name in ctx.workloads:
        base = ctx[f"{name}/baseline"]
        bear = ctx[f"{name}/bear"]
        dap = ctx[f"{name}/dap"]
        ws_b = normalized_weighted_speedup(bear.ipc, base.ipc)
        ws_d = normalized_weighted_speedup(dap.ipc, base.ipc)
        result.add(name, ws_b, ws_d, base.mm_cas_fraction,
                   bear.mm_cas_fraction, dap.mm_cas_fraction)
        bear_ws.append(ws_b)
        dap_ws.append(ws_d)
    result.add("GMEAN", geomean(bear_ws), geomean(dap_ws), "", "", "")
    return result


def claims():
    """Fig. 14's registered paper shapes (see repro.validate)."""
    from repro.validate import Cells, Claim, Col, ordering, sign, within_rel
    return (
        Claim(
            id="fig14.both_beat_alloy_baseline",
            claim="both BEAR and DAP improve on the Alloy baseline",
            paper="Fig. 14",
            predicate=sign(Cells((("GMEAN", "ws_bear"),
                                  ("GMEAN", "ws_dap"))),
                           above=1.0),
            deviation="BEAR edges out DAP-on-Alloy at smoke scale; "
                      "the paper's 22% vs 29% ordering needs "
                      "paper-scale bandwidth pressure",
        ),
        Claim(
            id="fig14.dap_raises_mm_fraction",
            claim="DAP moves mcf's main-memory CAS fraction up from "
                  "the Alloy baseline toward the ~0.36 Alloy optimum",
            paper="Fig. 14 / Eq. 4",
            predicate=ordering(("mcf", "mm_frac_dap"),
                               ("mcf", "mm_frac_base")),
        ),
        Claim(
            id="fig14.dap_near_alloy_optimum",
            claim="every workload's DAP main-memory CAS fraction lands "
                  "within 10% of the Alloy optimum (2/3 x 102.4 vs "
                  "38.4 GB/s gives 0.360)",
            paper="Fig. 14 / Eq. 4",
            predicate=within_rel(Col("mm_frac_dap"), 0.10, target=0.360),
        ),
    )


SPEC = ExperimentSpec(
    name="fig14",
    title="Fig. 14 — Alloy cache: BEAR vs DAP",
    headers=("workload", "ws_bear", "ws_dap",
             "mm_frac_base", "mm_frac_bear", "mm_frac_dap"),
    cells=cells,
    render=render,
    workload_aware=True,
    default_workloads=tuple(BANDWIDTH_SENSITIVE),
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
