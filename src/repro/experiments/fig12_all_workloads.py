"""Fig. 12: DAP over the full 44-mix evaluation set.

Twelve bandwidth-sensitive rate-8 mixes, five bandwidth-insensitive
rate-8 mixes, and 27 heterogeneous mixes. Heterogeneous mixes use
alone-run IPCs as the weighted-speedup reference — each reference is
its own simulation cell, shared across mixes (and worker processes)
through the cell cache.

Expected shape: no bandwidth-insensitive mix loses (DAP seldom invokes
partitioning for them); heterogeneous mixes gain broadly; overall
geometric mean around the paper's 13%.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.experiments.exec import (
    AloneIpcCell,
    CellResults,
    ExperimentSpec,
    MixCell,
    run_spec,
)
from repro.experiments.scale import ExperimentResult, Scale, scaled_config
from repro.metrics.speedup import geomean, normalized_weighted_speedup
from repro.workloads.mixes import Mix, all_mixes


def _selected_mixes(max_mixes_per_category: Optional[int]) -> list[Mix]:
    if max_mixes_per_category is None:
        return all_mixes()
    counts: dict[str, int] = {}
    selected = []
    for mix in all_mixes():
        if counts.get(mix.category, 0) >= max_mixes_per_category:
            continue
        counts[mix.category] = counts.get(mix.category, 0) + 1
        selected.append(mix)
    return selected


def cells(scale: Scale, workloads=None,
          max_mixes_per_category: Optional[int] = None) -> Iterator:
    base_cfg = scaled_config(scale, policy="baseline")
    dap_cfg = scaled_config(scale, policy="dap")
    alone_seen = set()
    for mix in _selected_mixes(max_mixes_per_category):
        yield MixCell(f"{mix.name}/baseline", mix, base_cfg, scale)
        yield MixCell(f"{mix.name}/dap", mix, dap_cfg, scale)
        if mix.category == "heterogeneous":
            for member in mix.members:
                if member not in alone_seen:
                    alone_seen.add(member)
                    yield AloneIpcCell(f"alone/{member}", member, base_cfg,
                                       scale)


def render(ctx: CellResults) -> ExperimentResult:
    result = ctx.new_result()
    per_category: dict[str, list[float]] = {}
    for mix in _selected_mixes(ctx.options.get("max_mixes_per_category")):
        alone = ([ctx[f"alone/{member}"] for member in mix.members]
                 if mix.category == "heterogeneous" else None)
        base = ctx[f"{mix.name}/baseline"]
        dap = ctx[f"{mix.name}/dap"]
        ws = normalized_weighted_speedup(dap.ipc, base.ipc, alone)
        result.add(mix.name, mix.category, ws)
        per_category.setdefault(mix.category, []).append(ws)
    for category, values in per_category.items():
        result.add(f"GMEAN-{category}", "", geomean(values))
    result.add("GMEAN-all", "",
               geomean([v for vs in per_category.values() for v in vs]))
    return result


def claims():
    """Fig. 12's registered paper shapes (see repro.validate)."""
    from repro.validate import Claim, ordering, sign
    return (
        Claim(
            id="fig12.overall_gain",
            claim="DAP gains over the full evaluation set (geomean "
                  "across all mixes above 1.0)",
            paper="Fig. 12",
            predicate=sign(("GMEAN-all", "norm_ws_dap"), above=1.0),
        ),
        Claim(
            id="fig12.insensitive_unharmed",
            claim="bandwidth-insensitive mixes are essentially "
                  "unharmed — DAP seldom invokes partitioning for them",
            paper="Fig. 12",
            predicate=sign(("GMEAN-bandwidth-insensitive", "norm_ws_dap"),
                           above=0.97),
        ),
        Claim(
            id="fig12.sensitive_gain_larger",
            claim="bandwidth-sensitive mixes gain far more than "
                  "insensitive ones",
            paper="Fig. 12",
            predicate=ordering(
                ("GMEAN-bandwidth-sensitive", "norm_ws_dap"),
                ("GMEAN-bandwidth-insensitive", "norm_ws_dap"),
                margin=0.05),
        ),
    )


SPEC = ExperimentSpec(
    name="fig12",
    title="Fig. 12 — DAP across all 44 mixes",
    headers=("mix", "category", "norm_ws_dap"),
    cells=cells,
    render=render,
    workload_aware=False,
    claims=claims,
)


def run(scale: Optional[Scale] = None,
        max_mixes_per_category: Optional[int] = None) -> ExperimentResult:
    """Compatibility shim (serial, uncached); prefer the registered SPEC."""
    return run_spec(SPEC, scale=scale,
                    options={"max_mixes_per_category": max_mixes_per_category})


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
