"""Fig. 4: workload characterization — DRAM cache bandwidth sensitivity.

Top panel: weighted speedup when the 4 GB sectored DRAM cache's
bandwidth doubles from 102.4 GB/s to 204.8 GB/s, for all seventeen
rate-8 mixes. Bottom panel: L3 MPKI.

Expected shape: the twelve bandwidth-sensitive snippets gain
substantially from the doubling; the five insensitive ones sit near
1.0x. Sensitive workloads average the higher L3 MPKI (paper: 20.4 vs
11.6).
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
from repro.mem.configs import hbm_102, hbm_204
from repro.metrics.speedup import geomean, normalized_weighted_speedup
from repro.workloads.mixes import rate_mix
from repro.workloads.profiles import BANDWIDTH_INSENSITIVE, BANDWIDTH_SENSITIVE


def cells(scale: Scale, workloads: Sequence[str]) -> Iterator[MixCell]:
    for name in workloads:
        mix = rate_mix(name)
        yield MixCell(f"{name}/102.4", mix,
                      scaled_config(scale, msc_dram=hbm_102()), scale)
        yield MixCell(f"{name}/204.8", mix,
                      scaled_config(scale, msc_dram=hbm_204()), scale)


def render(ctx: CellResults) -> ExperimentResult:
    result = ctx.new_result()
    sensitive_ws, insensitive_ws = [], []
    for name in ctx.workloads:
        mix = rate_mix(name)
        base = ctx[f"{name}/102.4"]
        fast = ctx[f"{name}/204.8"]
        ws = normalized_weighted_speedup(fast.ipc, base.ipc)
        cls = mix.category.replace("bandwidth-", "")
        result.add(name, cls, ws, base.mean_mpki)
        (sensitive_ws if cls == "sensitive" else insensitive_ws).append(ws)
    if sensitive_ws:
        result.add("GMEAN-sensitive", "", geomean(sensitive_ws), "")
    if insensitive_ws:
        result.add("GMEAN-insensitive", "", geomean(insensitive_ws), "")
    return result


def claims():
    """Fig. 4's registered paper shapes (see repro.validate)."""
    from repro.validate import Claim, ordering, sign
    return (
        Claim(
            id="fig04.classification_reproduces",
            claim="bandwidth-sensitive workloads gain clearly more from "
                  "doubling the cache bandwidth than insensitive ones",
            paper="Fig. 4",
            predicate=ordering(("GMEAN-sensitive", "ws_204.8/102.4"),
                               ("GMEAN-insensitive", "ws_204.8/102.4"),
                               margin=0.02),
        ),
        Claim(
            id="fig04.sensitive_gain",
            claim="the sensitive set gains substantially (geomean "
                  "clearly above 1.0) when bandwidth doubles",
            paper="Fig. 4",
            predicate=sign(("GMEAN-sensitive", "ws_204.8/102.4"),
                           above=1.05),
        ),
        Claim(
            id="fig04.mpki_separates_classes",
            claim="sensitive workloads carry the higher L3 MPKI "
                  "(mcf, a sensitive thrasher, well above milc, an "
                  "insensitive streamer)",
            paper="Fig. 4",
            predicate=ordering(("mcf", "l3_mpki"), ("milc", "l3_mpki"),
                               margin=2.0),
        ),
    )


SPEC = ExperimentSpec(
    name="fig04",
    title="Fig. 4 — speedup from doubling DRAM cache bandwidth",
    headers=("workload", "class", "ws_204.8/102.4", "l3_mpki"),
    cells=cells,
    render=render,
    workload_aware=True,
    default_workloads=tuple(BANDWIDTH_SENSITIVE) + tuple(BANDWIDTH_INSENSITIVE),
    notes="rate-8 mixes, 4 GB sectored DRAM cache",
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
