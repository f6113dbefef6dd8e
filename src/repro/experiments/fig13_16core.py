"""Fig. 13: DAP on a 16-core system.

The scaled-up platform of Section VI-A5: 16 cores, 16 MB L3, an 8 GB /
204.8 GB/s sectored DRAM cache, and dual-channel DDR4-3200 (51.2 GB/s).
Workloads run in rate-16 mode.

Expected shape: DAP's benefit persists at scale (paper: 14.6% average).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator, Optional, Sequence

from repro.experiments.exec import (
    CellResults,
    ExperimentSpec,
    MixCell,
    run_spec,
)
from repro.experiments.scale import ExperimentResult, Scale, scaled_config
from repro.hierarchy.config import GiB
from repro.mem.configs import ddr4_3200, hbm_204
from repro.metrics.speedup import geomean, normalized_weighted_speedup
from repro.workloads.mixes import rate_mix
from repro.workloads.profiles import BANDWIDTH_SENSITIVE


def sixteen_core_config(scale: Scale, policy: str):
    config = scaled_config(
        scale, policy=policy, paper_capacity=8 * GiB,
        msc_dram=hbm_204(), mm_dram=ddr4_3200(), num_cores=16,
    )
    # 16 MB L3 at paper scale, shrunk by the same divisor.
    sram = replace(config.sram,
                   l3_bytes=max(64 * 1024,
                                16 * (1 << 20) // scale.capacity_divisor))
    return replace(config, sram=sram)


def cells(scale: Scale, workloads: Sequence[str]) -> Iterator[MixCell]:
    for name in workloads:
        mix = rate_mix(name, ways=16)
        for policy in ("baseline", "dap"):
            yield MixCell(f"{name}/{policy}", mix,
                          sixteen_core_config(scale, policy), scale)


def render(ctx: CellResults) -> ExperimentResult:
    result = ctx.new_result()
    speedups = []
    for name in ctx.workloads:
        base = ctx[f"{name}/baseline"]
        dap = ctx[f"{name}/dap"]
        ws = normalized_weighted_speedup(dap.ipc, base.ipc)
        result.add(name, ws)
        speedups.append(ws)
    result.add("GMEAN", geomean(speedups))
    return result


def claims():
    """Fig. 13's registered paper shapes (see repro.validate)."""
    from repro.validate import Claim, sign
    return (
        Claim(
            id="fig13.gain_persists_at_scale",
            claim="DAP's geomean benefit persists on the 16-core "
                  "system (paper: 14.6% average)",
            paper="Fig. 13",
            predicate=sign(("GMEAN", "norm_ws_dap"), above=1.0),
        ),
    )


SPEC = ExperimentSpec(
    name="fig13",
    title="Fig. 13 — DAP on a 16-core system",
    headers=("workload", "norm_ws_dap"),
    cells=cells,
    render=render,
    workload_aware=True,
    default_workloads=tuple(BANDWIDTH_SENSITIVE),
    notes="rate-16, 8 GB / 204.8 GB/s DRAM cache, DDR4-3200",
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
