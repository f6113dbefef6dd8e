"""Extension: the bandwidth equation in OS-visible (flat) mode.

Not a paper artifact — the paper's Section II notes its algorithms
"can easily be extended to OS-visible implementations"; this experiment
demonstrates that claim. A synthetic uniform page workload is driven
against an HBM fast tier + DDR4 slow tier under three placements:

- first-touch (hit-rate maximizing — the traditional wisdom),
- bandwidth-ratio interleave (Equation 3's static optimum),
- adaptive migration (window-learned, the flat-mode DAP analogue).

Expected shape: when the working set fits the fast tier, first-touch
pins *all* traffic there and delivers only the fast tier's bandwidth,
while the interleaved and adaptive placements recruit the slow tier and
deliver more — the Fig. 1 lesson, replayed at page granularity.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from repro.experiments.exec import (
    CellResults,
    ExperimentSpec,
    TaskCell,
    run_spec,
)
from repro.experiments.scale import ExperimentResult, Scale
from repro.mem.configs import ddr4_2400, hbm_102

POLICIES = ("first-touch", "bandwidth-interleave", "adaptive")


def run_placement(policy_name: str, total_reads: int, outstanding: int = 192,
                  working_pages: int = 512, seed: int = 7) -> dict[str, float]:
    """Worker entry: measure one placement policy (a TaskCell body).

    Imports the simulator itself, so keying and rendering load none of it.
    """
    from repro.engine.event_queue import Simulator
    from repro.flat.controller import FlatMemoryController
    from repro.flat.placement import PAGE_LINES, make_placement
    from repro.mem.device import MemoryDevice

    sim = Simulator()
    fast = MemoryDevice(sim, hbm_102())
    slow = MemoryDevice(sim, ddr4_2400())
    placement = make_placement(
        policy_name, fast_capacity_pages=working_pages * 2,
        b_fast=fast.peak_gbps, b_slow=slow.peak_gbps, epoch_cycles=4_000,
    )
    ctrl = FlatMemoryController(sim, fast, slow, placement)

    rng = random.Random(seed)
    state = {"issued": 0, "done": 0, "finish": 0, "half_cycle": 0}

    def issue() -> None:
        if state["issued"] >= total_reads:
            return
        state["issued"] += 1
        page = rng.randrange(working_pages)
        line = page * PAGE_LINES + rng.randrange(PAGE_LINES)
        ctrl.read(line, core_id=0, callback=done)

    def done(finish: int) -> None:
        state["done"] += 1
        state["finish"] = max(state["finish"], finish)
        if state["done"] == total_reads // 2:
            state["half_cycle"] = finish
        issue()

    for _ in range(outstanding):
        issue()
    sim.run()
    cycles = max(1, state["finish"])
    gbps = state["done"] * 64 / (cycles / 4e9) / 1e9
    # Steady state: bandwidth over the second half of the run, after any
    # adaptive policy has converged and amortized its migrations.
    late_cycles = max(1, state["finish"] - state["half_cycle"])
    late_gbps = (total_reads - total_reads // 2) * 64 / (late_cycles / 4e9) / 1e9
    return {
        "gbps": gbps,
        "late_gbps": late_gbps,
        "fast_fraction": ctrl.fast_traffic_fraction(),
        "migrations": float(placement.migrations),
    }


def cells(scale: Scale, workloads=None) -> Iterator[TaskCell]:
    for policy in POLICIES:
        yield TaskCell(
            policy, run_placement,
            kwargs=(("policy_name", policy),
                    ("total_reads", scale.kernel_reads * 4)),
        )


def render(ctx: CellResults) -> ExperimentResult:
    optimal = 102.4 / (102.4 + 38.4)
    result = ctx.new_result(
        notes=f"uniform pages fitting the fast tier; optimal fast fraction "
              f"= {optimal:.3f}",
    )
    for policy in POLICIES:
        metrics = ctx[policy]
        result.add(policy, metrics["gbps"], metrics["late_gbps"],
                   metrics["fast_fraction"], metrics["migrations"])
    return result


def claims():
    """The flat-mode extension's registered shapes (see repro.validate)."""
    from repro.validate import Cells, Claim, ordering, within_rel
    return (
        Claim(
            id="flat.interleave_beats_first_touch",
            claim="Eq. 3's bandwidth-ratio interleave out-delivers "
                  "hit-rate-maximizing first-touch when the working "
                  "set fits the fast tier",
            paper="§II (extension)",
            predicate=ordering(("bandwidth-interleave", "delivered_gbps"),
                               ("first-touch", "delivered_gbps"),
                               margin=5.0),
        ),
        Claim(
            id="flat.interleave_hits_optimal_split",
            claim="the interleaved placement's fast-tier traffic "
                  "fraction lands on the Eq. 3 optimum "
                  "102.4/(102.4+38.4) = 0.727",
            paper="§II / Eq. 3",
            predicate=within_rel(
                Cells((("bandwidth-interleave", "fast_traffic_frac"),)),
                0.05, target=0.727),
        ),
        Claim(
            id="flat.adaptive_converges",
            claim="the adaptive migrating placement converges: its "
                  "steady-state bandwidth beats first-touch's delivered "
                  "bandwidth",
            paper="§II (extension)",
            predicate=ordering(("adaptive", "steady_state_gbps"),
                               ("first-touch", "delivered_gbps"),
                               margin=5.0),
        ),
    )


SPEC = ExperimentSpec(
    name="flat",
    title="Extension — OS-visible flat memory (Eq. 3 at page level)",
    headers=("placement", "delivered_gbps", "steady_state_gbps",
             "fast_traffic_frac", "migrations"),
    cells=cells,
    render=render,
    workload_aware=False,
    claims=claims,
)


def run(scale: Optional[Scale] = None) -> ExperimentResult:
    """Compatibility shim (serial, uncached); prefer the registered SPEC."""
    return run_spec(SPEC, scale=scale)


def main() -> None:
    run().print()


if __name__ == "__main__":
    main()
