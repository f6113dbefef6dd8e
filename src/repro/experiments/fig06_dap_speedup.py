"""Fig. 6: DAP on the sectored DRAM cache.

Top panel: weighted speedup of DAP over the optimized baseline for the
twelve bandwidth-sensitive rate-8 mixes. Bottom panel: average L3 read
miss latency of DAP normalized to the baseline.

Expected shape: broad gains (paper: average 15.2%, omnetpp the largest,
parboil-lbm ~neutral because its baseline already runs near the optimal
main-memory CAS fraction); the speedups correlate with the read-latency
savings.
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


def cells(scale: Scale, workloads: Sequence[str]) -> Iterator[MixCell]:
    for name in workloads:
        mix = rate_mix(name)
        yield MixCell(f"{name}/baseline", mix,
                      scaled_config(scale, policy="baseline"), scale)
        yield MixCell(f"{name}/dap", mix,
                      scaled_config(scale, policy="dap"), scale)


def render(ctx: CellResults) -> ExperimentResult:
    result = ctx.new_result()
    speedups = []
    for name in ctx.workloads:
        base = ctx[f"{name}/baseline"]
        dap = ctx[f"{name}/dap"]
        ws = normalized_weighted_speedup(dap.ipc, base.ipc)
        lat = (dap.avg_read_latency / base.avg_read_latency
               if base.avg_read_latency else 1.0)
        result.add(name, ws, lat)
        speedups.append(ws)
    result.add("GMEAN", geomean(speedups), "")
    return result


def claims():
    """Fig. 6's registered paper shapes (see repro.validate)."""
    from repro.validate import Cells, Claim, sign
    return (
        Claim(
            id="fig06.dap_gains",
            claim="DAP improves geomean weighted speedup over the "
                  "optimized baseline on the bandwidth-sensitive mixes",
            paper="Fig. 6",
            predicate=sign(("GMEAN", "norm_ws_dap"), above=1.0),
        ),
        Claim(
            id="fig06.latency_drops_for_winners",
            claim="DAP's speedups come with lower normalized L3 read "
                  "miss latency for the big winners (astar.BigLakes, "
                  "omnetpp)",
            paper="Fig. 6",
            predicate=sign(Cells((("astar.BigLakes", "norm_read_latency"),
                                  ("omnetpp", "norm_read_latency"))),
                           below=1.0),
        ),
    )


SPEC = ExperimentSpec(
    name="fig06",
    title="Fig. 6 — DAP speedup and read-miss latency",
    headers=("workload", "norm_ws_dap", "norm_read_latency"),
    cells=cells,
    render=render,
    workload_aware=True,
    default_workloads=tuple(BANDWIDTH_SENSITIVE),
    notes="rate-8 mixes, 4 GB / 102.4 GB/s sectored DRAM cache, W=64 E=0.75",
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
