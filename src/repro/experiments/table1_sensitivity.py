"""Table I: DAP sensitivity to the window size W and efficiency E.

Geometric-mean normalized weighted speedup over the bandwidth-sensitive
mixes for W in {32, 64, 128} at E = 0.75, and E in {0.5, 0.75, 1.0} at
W = 64.

Expected shape: a shallow optimum at (W=64, E=0.75); E=1.0 the worst of
the three efficiencies, because assuming full efficiency overestimates
what the cache can serve and under-partitions.
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

W_VALUES = (32, 64, 128)
E_VALUES = (0.50, 0.75, 1.00)


def _combos() -> list[tuple[int, float]]:
    combos = [(window, 0.75) for window in W_VALUES]
    combos += [(64, efficiency) for efficiency in E_VALUES
               if (64, efficiency) not in combos]
    return combos


def cells(scale: Scale, workloads: Sequence[str]) -> Iterator[MixCell]:
    for name in workloads:
        mix = rate_mix(name)
        yield MixCell(f"{name}/baseline", mix,
                      scaled_config(scale, policy="baseline"), scale)
        for window, efficiency in _combos():
            yield MixCell(
                f"{name}/dap-W{window}-E{efficiency:.2f}", mix,
                scaled_config(scale, policy="dap", dap_window=window,
                              dap_efficiency=efficiency),
                scale,
            )


def render(ctx: CellResults) -> ExperimentResult:
    result = ctx.new_result()

    def gmean_for(window: int, efficiency: float) -> float:
        speedups = []
        for name in ctx.workloads:
            base = ctx[f"{name}/baseline"]
            dap = ctx[f"{name}/dap-W{window}-E{efficiency:.2f}"]
            speedups.append(normalized_weighted_speedup(dap.ipc, base.ipc))
        return geomean(speedups)

    for window in W_VALUES:
        result.add(f"W={window}", window, gmean_for(window, 0.75))
    for efficiency in E_VALUES:
        result.add(f"E={efficiency:.2f}", efficiency,
                   gmean_for(64, efficiency))
    return result


def claims():
    """Table I's registered paper shapes (see repro.validate)."""
    from repro.validate import Claim, ordering
    return (
        Claim(
            id="table1.w64_optimum",
            claim="W=64 is the best of the three window sizes at "
                  "E=0.75 (shallow optimum)",
            paper="Table I",
            predicate=ordering(("W=64", "gmean_norm_ws"),
                               ("W=128", "gmean_norm_ws")),
        ),
        Claim(
            id="table1.e1_worst",
            claim="E=1.0 is the worst of the three efficiencies — "
                  "assuming full efficiency overestimates the cache "
                  "and under-partitions",
            paper="Table I",
            predicate=ordering(("E=0.75", "gmean_norm_ws"),
                               ("E=1.00", "gmean_norm_ws")),
            deviation="E=0.50 edges out E=0.75 at smoke scale; the "
                      "paper's optimum at 0.75 needs paper-scale "
                      "contention to show",
        ),
    )


SPEC = ExperimentSpec(
    name="table1",
    title="Table I — sensitivity to W (at E=0.75) and E (at W=64)",
    headers=("parameter", "value", "gmean_norm_ws"),
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
