"""Fig. 8: how close DAP gets to the optimal access partition.

Top panel: main-memory CAS operations as a fraction of all CAS
operations, baseline vs DAP. The optimum (Eq. 4) is
``B_MM / (B_MM + B_MS$)`` ≈ 0.27 for 38.4 + 102.4 GB/s.
Bottom panel: memory-side cache hit rate for the baseline, for DAP
restricted to FWB+WB, and for full DAP.

Expected shape: baseline MM fraction well below optimal (paper: 9%
average), DAP close to it (paper: 25%); hit rates fall as techniques are
added (paper: 89% -> 80% -> 73%) — deliberately sacrificed for
bandwidth.
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
from repro.workloads.mixes import rate_mix
from repro.workloads.profiles import BANDWIDTH_SENSITIVE

_POLICIES = ("baseline", "dap-fwb-wb", "dap")


def cells(scale: Scale, workloads: Sequence[str]) -> Iterator[MixCell]:
    for name in workloads:
        mix = rate_mix(name)
        for policy in _POLICIES:
            yield MixCell(f"{name}/{policy}", mix,
                          scaled_config(scale, policy=policy), scale)


def render(ctx: CellResults) -> ExperimentResult:
    optimal = optimal_mm_cas_fraction(102.4, 38.4)
    result = ctx.new_result(
        notes=f"optimal MM CAS fraction = {optimal:.3f}")
    sums = [0.0] * 5
    for name in ctx.workloads:
        base = ctx[f"{name}/baseline"]
        fwbwb = ctx[f"{name}/dap-fwb-wb"]
        dap = ctx[f"{name}/dap"]
        row = [base.mm_cas_fraction, dap.mm_cas_fraction,
               base.served_hit_rate, fwbwb.served_hit_rate,
               dap.served_hit_rate]
        result.add(name, *row)
        sums = [s + v for s, v in zip(sums, row)]
    n = len(ctx.workloads)
    result.add("MEAN", *[s / n for s in sums])
    return result


def claims():
    """Fig. 8's registered paper shapes (see repro.validate)."""
    from repro.validate import Cells, Claim, ordering, within_rel
    return (
        Claim(
            id="fig08.dap_closes_gap",
            claim="DAP raises the average main-memory CAS fraction "
                  "above the baseline's, moving toward the Eq. 4 "
                  "optimum",
            paper="Fig. 8 / Eq. 4",
            predicate=ordering(("MEAN", "mm_frac_dap"),
                               ("MEAN", "mm_frac_base"),
                               margin=0.02),
        ),
        Claim(
            id="fig08.dap_near_optimal",
            claim="DAP's average main-memory CAS fraction lands within "
                  "15% of the analytic optimum 0.273",
            paper="Fig. 8 / Eq. 4",
            predicate=within_rel(Cells((("MEAN", "mm_frac_dap"),)),
                                 0.15, target=0.273),
        ),
        Claim(
            id="fig08.hit_rate_sacrificed",
            claim="hit rate falls as techniques are added (baseline > "
                  "FWB+WB > full DAP) — deliberately traded for "
                  "bandwidth",
            paper="Fig. 8",
            predicate=ordering(("MEAN", "hit_base"),
                               ("MEAN", "hit_fwb_wb"),
                               ("MEAN", "hit_dap")),
        ),
    )


SPEC = ExperimentSpec(
    name="fig08",
    title="Fig. 8 — main-memory CAS fraction and hit rates",
    headers=("workload", "mm_frac_base", "mm_frac_dap",
             "hit_base", "hit_fwb_wb", "hit_dap"),
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
