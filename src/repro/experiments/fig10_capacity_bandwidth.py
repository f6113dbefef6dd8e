"""Fig. 10: DAP sensitivity to DRAM cache capacity and bandwidth.

Top panel: capacity in {2, 4, 8} GB at 102.4 GB/s. Bottom panel:
bandwidth in {102.4, 128, 204.8} GB/s at 4 GB. Each value is DAP
normalized to the matching baseline.

Expected shape: DAP's gain grows with capacity (a bigger cache absorbs
more accesses, pulling the baseline further from the optimal partition)
and shrinks with cache bandwidth (the optimum then keeps most accesses
in the cache anyway).
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
from repro.hierarchy.config import GiB
from repro.mem.configs import hbm_102, hbm_128, hbm_204
from repro.metrics.speedup import geomean, normalized_weighted_speedup
from repro.workloads.mixes import rate_mix
from repro.workloads.profiles import BANDWIDTH_SENSITIVE

CAPACITIES_GB = (2, 4, 8)
BANDWIDTHS = (("102.4", hbm_102), ("128", hbm_128), ("204.8", hbm_204))
_CAP_HEADERS = tuple(f"cap_{c}GB" for c in CAPACITIES_GB)
_BW_HEADERS = tuple(f"bw_{b}" for b, _ in BANDWIDTHS)


def cells(scale: Scale, workloads: Sequence[str]) -> Iterator[MixCell]:
    for name in workloads:
        mix = rate_mix(name)
        for policy in ("baseline", "dap"):
            for cap in CAPACITIES_GB:
                yield MixCell(
                    f"{name}/cap{cap}GB/{policy}", mix,
                    scaled_config(scale, policy=policy,
                                  paper_capacity=cap * GiB),
                    scale,
                )
            for label, factory in BANDWIDTHS:
                yield MixCell(
                    f"{name}/bw{label}/{policy}", mix,
                    scaled_config(scale, policy=policy, msc_dram=factory()),
                    scale,
                )


def render(ctx: CellResults) -> ExperimentResult:
    result = ctx.new_result()
    columns: dict[str, list[float]] = {
        h: [] for h in _CAP_HEADERS + _BW_HEADERS}
    for name in ctx.workloads:
        row = [name]
        for cap, header in zip(CAPACITIES_GB, _CAP_HEADERS):
            base = ctx[f"{name}/cap{cap}GB/baseline"]
            dap = ctx[f"{name}/cap{cap}GB/dap"]
            ws = normalized_weighted_speedup(dap.ipc, base.ipc)
            row.append(ws)
            columns[header].append(ws)
        for (label, _), header in zip(BANDWIDTHS, _BW_HEADERS):
            base = ctx[f"{name}/bw{label}/baseline"]
            dap = ctx[f"{name}/bw{label}/dap"]
            ws = normalized_weighted_speedup(dap.ipc, base.ipc)
            row.append(ws)
            columns[header].append(ws)
        result.add(*row)
    result.add("GMEAN",
               *[geomean(columns[h]) for h in _CAP_HEADERS + _BW_HEADERS])
    return result


def claims():
    """Fig. 10's registered paper shapes (see repro.validate)."""
    from repro.validate import Cells, Claim, monotone_falling, monotone_rising
    return (
        Claim(
            id="fig10.gain_grows_with_capacity",
            claim="DAP's gain grows with cache capacity — a bigger "
                  "cache absorbs more accesses, pulling the baseline "
                  "further from the optimal partition",
            paper="Fig. 10",
            predicate=monotone_rising(
                Cells((("GMEAN", "cap_2GB"), ("GMEAN", "cap_4GB"),
                       ("GMEAN", "cap_8GB")))),
            deviation="the growth saturates between 4 and 8 GB at "
                      "smoke scale (footprints shrink with the scale "
                      "divisor)",
        ),
        Claim(
            id="fig10.gain_shrinks_with_bandwidth",
            claim="DAP's gain shrinks as cache bandwidth grows — the "
                  "optimal partition then keeps most accesses in the "
                  "cache anyway",
            paper="Fig. 10",
            predicate=monotone_falling(
                Cells((("GMEAN", "bw_102.4"), ("GMEAN", "bw_128"),
                       ("GMEAN", "bw_204.8")))),
        ),
    )


SPEC = ExperimentSpec(
    name="fig10",
    title="Fig. 10 — DRAM cache capacity and bandwidth sweeps",
    headers=("workload",) + _CAP_HEADERS + _BW_HEADERS,
    cells=cells,
    render=render,
    workload_aware=True,
    default_workloads=tuple(BANDWIDTH_SENSITIVE),
    notes="DAP normalized to the matching baseline",
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
