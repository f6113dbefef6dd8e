"""Fig. 9: DAP sensitivity to main-memory latency and bandwidth.

Four main memories: default DDR4-2400 (with I/O delay), DDR4-2400
without the I/O delay, higher-latency LPDDR4-2400 (same 38.4 GB/s), and
higher-bandwidth DDR4-3200 (51.2 GB/s). Each bar is DAP normalized to
the *same-technology* baseline.

Expected shape: removing I/O latency slightly raises DAP's benefit;
slow LPDDR4 lowers it (steered accesses pay more); faster DDR4-3200
raises it (the optimal partition sends more to main memory).
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
from repro.mem.configs import ddr4_2400, ddr4_2400_no_io, ddr4_3200, lpddr4_2400
from repro.metrics.speedup import geomean, normalized_weighted_speedup
from repro.workloads.mixes import rate_mix
from repro.workloads.profiles import BANDWIDTH_SENSITIVE

MEMORIES = (
    ("DDR4-2400", ddr4_2400),
    ("DDR4-2400-noIO", ddr4_2400_no_io),
    ("LPDDR4-2400", lpddr4_2400),
    ("DDR4-3200", ddr4_3200),
)


def cells(scale: Scale, workloads: Sequence[str]) -> Iterator[MixCell]:
    for name in workloads:
        mix = rate_mix(name)
        for mem_name, factory in MEMORIES:
            for policy in ("baseline", "dap"):
                yield MixCell(
                    f"{name}/{mem_name}/{policy}", mix,
                    scaled_config(scale, policy=policy, mm_dram=factory()),
                    scale,
                )


def render(ctx: CellResults) -> ExperimentResult:
    result = ctx.new_result()
    per_memory: dict[str, list[float]] = {name: [] for name, _ in MEMORIES}
    for name in ctx.workloads:
        row = [name]
        for mem_name, _ in MEMORIES:
            base = ctx[f"{name}/{mem_name}/baseline"]
            dap = ctx[f"{name}/{mem_name}/dap"]
            ws = normalized_weighted_speedup(dap.ipc, base.ipc)
            row.append(ws)
            per_memory[mem_name].append(ws)
        result.add(*row)
    result.add("GMEAN", *[geomean(per_memory[m]) for m, _ in MEMORIES])
    return result


def claims():
    """Fig. 9's registered paper shapes (see repro.validate)."""
    from repro.validate import Cells, Claim, ordering, sign
    return (
        Claim(
            id="fig09.gains_on_every_memory",
            claim="DAP beats the same-technology baseline on all four "
                  "main memories",
            paper="Fig. 9",
            predicate=sign(Cells(tuple(("GMEAN", m) for m, _ in MEMORIES)),
                           above=1.0),
        ),
        Claim(
            id="fig09.slow_memory_hurts",
            claim="high-latency LPDDR4 lowers DAP's benefit below the "
                  "default DDR4-2400 (steered accesses pay more)",
            paper="Fig. 9",
            predicate=ordering(("GMEAN", "DDR4-2400"),
                               ("GMEAN", "LPDDR4-2400")),
        ),
        Claim(
            id="fig09.fast_memory_helps",
            claim="higher-bandwidth DDR4-3200 raises DAP's benefit — "
                  "the optimal partition sends more to main memory",
            paper="Fig. 9",
            predicate=ordering(("GMEAN", "DDR4-3200"),
                               ("GMEAN", "DDR4-2400")),
        ),
    )


SPEC = ExperimentSpec(
    name="fig09",
    title="Fig. 9 — sensitivity to main-memory technology",
    headers=("workload",) + tuple(name for name, _ in MEMORIES),
    cells=cells,
    render=render,
    workload_aware=True,
    default_workloads=tuple(BANDWIDTH_SENSITIVE),
    notes="DAP normalized to the same-technology baseline",
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
