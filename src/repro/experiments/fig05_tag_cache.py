"""Fig. 5: the optimized baseline's SRAM tag cache.

Top panel: weighted speedup from adding the 32K-entry 4-way tag cache
to the sectored DRAM cache baseline. Bottom panel: tag-cache miss rate.

Expected shape: most workloads gain substantially (paper average 16%);
astar.BigLakes and omnetpp show the *highest* tag-cache miss rates
(poor sector utilization) yet still benefit.
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
        yield MixCell(f"{name}/no-tc", mix,
                      scaled_config(scale, use_tag_cache=False), scale)
        yield MixCell(f"{name}/tc", mix,
                      scaled_config(scale, use_tag_cache=True), scale)


def render(ctx: CellResults) -> ExperimentResult:
    result = ctx.new_result()
    speedups = []
    for name in ctx.workloads:
        without = ctx[f"{name}/no-tc"]
        with_tc = ctx[f"{name}/tc"]
        ws = normalized_weighted_speedup(with_tc.ipc, without.ipc)
        result.add(name, ws, with_tc.tag_cache_miss_rate or 0.0)
        speedups.append(ws)
    result.add("GMEAN", geomean(speedups), "")
    return result


def claims():
    """Fig. 5's registered paper shapes (see repro.validate)."""
    from repro.validate import Cells, Claim, sign
    return (
        Claim(
            id="fig05.tag_cache_pays",
            claim="the 32K-entry SRAM tag cache improves geomean "
                  "weighted speedup over the no-tag-cache baseline",
            paper="Fig. 5",
            predicate=sign(("GMEAN", "ws_tagcache/none"), above=1.0),
        ),
        Claim(
            id="fig05.thrashers_highest_miss",
            claim="omnetpp and astar.BigLakes — the poor-sector-"
                  "utilization workloads — show the highest tag-cache "
                  "miss rates yet still benefit",
            paper="Fig. 5",
            predicate=sign(Cells((("omnetpp", "tag_miss_rate"),
                                  ("astar.BigLakes", "tag_miss_rate"))),
                           above=0.2),
        ),
        Claim(
            id="fig05.streamers_lowest_miss",
            claim="streaming workloads barely miss the tag cache "
                  "(libquantum's sectors stay resident)",
            paper="Fig. 5",
            predicate=sign(("libquantum", "tag_miss_rate"), below=0.1),
        ),
    )


SPEC = ExperimentSpec(
    name="fig05",
    title="Fig. 5 — effect of the SRAM tag cache",
    headers=("workload", "ws_tagcache/none", "tag_miss_rate"),
    cells=cells,
    render=render,
    workload_aware=True,
    default_workloads=tuple(BANDWIDTH_SENSITIVE),
    notes="rate-8 mixes, sectored DRAM cache 4 GB / 102.4 GB/s",
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
