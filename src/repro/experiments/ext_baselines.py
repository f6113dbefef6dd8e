"""Extension: DAP against the post-2017 related-work policy frontier.

Banshee-style frequency-threshold fill admission (Yu et al., MICRO
2017), TUNTU-style selective replacement update (Young & Qureshi) and a
CBP-style bandwidth-pressure prefetch throttle all attack the same
DRAM-cache fill-bandwidth bloat DAP partitions around — but none of
them *partitions*: they cut specific traffic components and leave the
access split wherever it lands. This experiment runs all three against
DAP on the paper's bandwidth-sensitive rate-8 mixes and reports, per
workload:

- normalized weighted speedup over the optimized baseline (as Fig. 11);
- demand fill-write bandwidth (GB/s) under always-fill
  (``banshee-always``), Banshee's threshold, and TUNTU's selective
  update — the bandwidth each admission filter saves;
- Banshee's tag-update bandwidth (the cost of keeping frequency
  counters with the in-DRAM tags);
- the partition gap ``|measured MM CAS fraction - optimal|`` (Eq. 4),
  quantifying that bypass heuristics do not *steer toward* the optimal
  partition while DAP does.

Expected shape: DAP wins the speedup geomean; Banshee's threshold cuts
fill bandwidth relative to always-fill while TUNTU's first-touch filter
is far milder (it re-admits any page with proven reuse, and its higher
IPC shortens runtime, so its fill GB/s can even exceed always-fill);
every bypass baseline sits farther from the optimal partition than DAP.
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

POLICIES = ("banshee", "tuntu", "cbp", "dap")
#: The always-fill traffic reference: Banshee with its threshold at
#: zero, so the fill-bandwidth comparison isolates the admission filter.
REFERENCE = "banshee-always"

CPU_GHZ = 4.0


def _counter_gbps(count: float, cycles: int) -> float:
    """Bandwidth of ``count`` 64-byte transfers spread over ``cycles``."""
    if cycles <= 0:
        return 0.0
    seconds = cycles / (CPU_GHZ * 1e9)
    return count * 64 / seconds / 1e9


def cells(scale: Scale, workloads: Sequence[str]) -> Iterator[MixCell]:
    for name in workloads:
        mix = rate_mix(name)
        for policy in ("baseline", REFERENCE) + POLICIES:
            yield MixCell(f"{name}/{policy}", mix,
                          scaled_config(scale, policy=policy), scale)


def render(ctx: CellResults) -> ExperimentResult:
    optimal = optimal_mm_cas_fraction(102.4, 38.4)
    result = ctx.new_result(
        notes=f"normalized WS over baseline; optimal MM CAS fraction = "
              f"{optimal:.3f}")
    for name in ctx.workloads:
        base = ctx[f"{name}/baseline"]
        always = ctx[f"{name}/{REFERENCE}"]
        banshee = ctx[f"{name}/banshee"]
        tuntu = ctx[f"{name}/tuntu"]
        dap = ctx[f"{name}/dap"]
        row = [name]
        for policy in POLICIES:
            row.append(normalized_weighted_speedup(
                ctx[f"{name}/{policy}"].ipc, base.ipc))
        row.extend([
            _counter_gbps(always.extras["fills_performed"], always.cycles),
            _counter_gbps(banshee.extras["fills_performed"], banshee.cycles),
            _counter_gbps(tuntu.extras["fills_performed"], tuntu.cycles),
            _counter_gbps(banshee.extras["tag_updates"], banshee.cycles),
            abs(banshee.mm_cas_fraction - optimal),
            abs(tuntu.mm_cas_fraction - optimal),
            abs(dap.mm_cas_fraction - optimal),
        ])
        result.add(*row)
    ws_cols = range(1, 1 + len(POLICIES))
    result.summary_row("GMEAN", geomean, ws_cols)
    result.summary_row(
        "MEAN", lambda xs: sum(xs) / len(xs),
        range(1 + len(POLICIES), len(result.headers)))
    return result


def claims():
    """Registered frontier shapes (see repro.validate)."""
    from repro.validate import Claim, ordering, sign
    return (
        Claim(
            id="baselines.dap_beats_banshee",
            claim="DAP's weighted-speedup geomean beats Banshee-style "
                  "frequency-threshold fill admission",
            paper="Sec. VII (related work); Banshee MICRO'17",
            predicate=ordering(("GMEAN", "dap"), ("GMEAN", "banshee"),
                               margin=0.02),
        ),
        Claim(
            id="baselines.dap_beats_tuntu",
            claim="DAP's weighted-speedup geomean beats TUNTU-style "
                  "selective replacement update",
            paper="Sec. VII (related work); Young & Qureshi",
            predicate=ordering(("GMEAN", "dap"), ("GMEAN", "tuntu"),
                               margin=0.02),
        ),
        Claim(
            id="baselines.dap_beats_cbp",
            claim="DAP's weighted-speedup geomean beats CBP-style "
                  "prefetch throttling",
            paper="Sec. VII (related work)",
            predicate=ordering(("GMEAN", "dap"), ("GMEAN", "cbp"),
                               margin=0.02),
        ),
        Claim(
            id="baselines.banshee_cuts_fill_traffic",
            claim="Banshee's frequency threshold lowers demand fill "
                  "bandwidth versus always-fill",
            paper="Banshee MICRO'17, Fig. 1",
            predicate=ordering(("MEAN", "fill_always"),
                               ("MEAN", "fill_banshee")),
        ),
        Claim(
            id="baselines.tuntu_milder_than_banshee",
            claim="TUNTU's first-touch filter admits more fill traffic "
                  "than Banshee's frequency threshold",
            paper="Young & Qureshi vs Banshee MICRO'17",
            predicate=ordering(("MEAN", "fill_tuntu"),
                               ("MEAN", "fill_banshee")),
        ),
        Claim(
            id="baselines.banshee_pays_tag_traffic",
            claim="Banshee's in-DRAM frequency counters cost real "
                  "cache-DRAM tag-update bandwidth",
            paper="Banshee MICRO'17, Sec. 4.3",
            predicate=sign(("MEAN", "tag_gbps"), above=0.0),
        ),
        Claim(
            id="baselines.dap_gap_below_banshee",
            claim="DAP lands nearer the optimal access partition than "
                  "Banshee's bypass heuristic",
            paper="Eq. 4 / Fig. 8",
            predicate=ordering(("MEAN", "gap_banshee"), ("MEAN", "gap_dap")),
        ),
        Claim(
            id="baselines.dap_gap_below_tuntu",
            claim="DAP lands nearer the optimal access partition than "
                  "TUNTU's selective update",
            paper="Eq. 4 / Fig. 8",
            predicate=ordering(("MEAN", "gap_tuntu"), ("MEAN", "gap_dap")),
        ),
    )


SPEC = ExperimentSpec(
    name="baselines",
    title="Ext. — DAP vs Banshee / TUNTU / CBP baselines",
    headers=("workload", "banshee", "tuntu", "cbp", "dap",
             "fill_always", "fill_banshee", "fill_tuntu", "tag_gbps",
             "gap_banshee", "gap_tuntu", "gap_dap"),
    cells=cells,
    render=render,
    workload_aware=True,
    default_workloads=tuple(BANDWIDTH_SENSITIVE),
    notes="post-2017 related-work frontier on the sectored cache",
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
