"""Fig. 15: DAP on the sectored eDRAM cache (three bandwidth sources).

Three systems normalized to the 256 MB eDRAM baseline: DAP on 256 MB,
the 512 MB baseline, and DAP on 512 MB. The second column reports the
change in memory-side cache hit rate vs the 256 MB baseline.

Expected shape: DAP trades hit rate for performance at both capacities
(paper: -9.5pp hit rate yet +7% at 256 MB; at 512 MB the baseline gains
hit rate but only +2% performance while DAP gets +11%).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.experiments.exec import (
    CellResults,
    ExperimentSpec,
    MixCell,
    run_spec,
)
from repro.experiments.fig02_edram_capacity import edram_config
from repro.experiments.scale import ExperimentResult, Scale
from repro.metrics.speedup import geomean, normalized_weighted_speedup
from repro.workloads.mixes import rate_mix
from repro.workloads.profiles import BANDWIDTH_SENSITIVE

SYSTEMS = (
    ("256MB_dap", 256, "dap"),
    ("512MB_base", 512, "baseline"),
    ("512MB_dap", 512, "dap"),
)
_WS_HEADERS = tuple(f"ws_{name}" for name, _, _ in SYSTEMS)
_HIT_HEADERS = tuple(f"dhit_{name}" for name, _, _ in SYSTEMS)


def cells(scale: Scale, workloads: Sequence[str]) -> Iterator[MixCell]:
    for name in workloads:
        mix = rate_mix(name)
        yield MixCell(f"{name}/256MB_base", mix,
                      edram_config(scale, 256, "baseline"), scale)
        for label, capacity, policy in SYSTEMS:
            yield MixCell(f"{name}/{label}", mix,
                          edram_config(scale, capacity, policy), scale)


def render(ctx: CellResults) -> ExperimentResult:
    result = ctx.new_result()
    columns: dict[str, list[float]] = {h: [] for h in _WS_HEADERS}
    for name in ctx.workloads:
        ref = ctx[f"{name}/256MB_base"]
        row = [name]
        hits = []
        for label, _, _ in SYSTEMS:
            res = ctx[f"{name}/{label}"]
            ws = normalized_weighted_speedup(res.ipc, ref.ipc)
            row.append(ws)
            columns[f"ws_{label}"].append(ws)
            hits.append((res.served_hit_rate - ref.served_hit_rate) * 100)
        result.add(*(row + hits))
    result.add("GMEAN", *[geomean(columns[h]) for h in _WS_HEADERS],
               "", "", "")
    return result


def claims():
    """Fig. 15's registered paper shapes (see repro.validate)."""
    from repro.validate import Cells, Claim, Col, ordering, sign, within_rel
    return (
        Claim(
            id="fig15.hit_rate_traded",
            claim="every workload's hit rate drops under DAP at "
                  "256 MB — partitioning knowingly spends hits",
            paper="Fig. 15",
            predicate=sign(Col("dhit_256MB_dap"), below=0.0),
        ),
        Claim(
            id="fig15.dap_holds_at_256mb",
            claim="DAP holds performance on the 256 MB eDRAM cache "
                  "(within 2% of the baseline) despite the hit-rate "
                  "sacrifice",
            paper="Fig. 15",
            predicate=within_rel(Cells((("GMEAN", "ws_256MB_dap"),)),
                                 0.02, target=1.0),
            deviation="the paper's +7% gain does not materialize at "
                      "smoke scale — divisor-64 footprints leave the "
                      "eDRAM read channels unsaturated, so there is "
                      "little bandwidth to reclaim",
        ),
        Claim(
            id="fig15.dap_stacks_on_capacity",
            claim="DAP on the 512 MB cache clearly beats DAP on "
                  "256 MB — the techniques compose with capacity",
            paper="Fig. 15",
            predicate=ordering(("GMEAN", "ws_512MB_dap"),
                               ("GMEAN", "ws_256MB_dap"),
                               margin=0.10),
            deviation="DAP-on-512MB trails the 512 MB *baseline* "
                      "slightly at smoke scale (1.188 vs 1.200; paper: "
                      "+11% vs +2%) — same unsaturated-channel effect",
        ),
    )


SPEC = ExperimentSpec(
    name="fig15",
    title="Fig. 15 — DAP on the eDRAM cache",
    headers=("workload",) + _WS_HEADERS + _HIT_HEADERS,
    cells=cells,
    render=render,
    workload_aware=True,
    default_workloads=tuple(BANDWIDTH_SENSITIVE),
    notes="normalized to the 256 MB baseline; dhit in percentage points",
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
