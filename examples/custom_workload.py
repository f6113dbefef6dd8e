"""Define and run a custom synthetic workload.

Shows the workload-authoring API: build a :class:`WorkloadProfile` with
your own access mixture, generate per-core traces, assemble a system
around them, and inspect the run. Useful for studying how DAP responds
to a traffic pattern the paper didn't evaluate.
"""

from repro import SystemConfig, build_system, collect_result
from repro.hierarchy.cache_hierarchy import SramLevels
from repro.workloads.synthetic import (
    AccessMix,
    WorkloadProfile,
    core_base_line,
    generate_trace,
    warm_lines,
)

# A deliberately nasty pattern: heavy streaming writes over a modest
# warm set — lots of fill and write pressure on the cache channels.
STREAM_WRITER = WorkloadProfile(
    name="stream-writer",
    mem_per_kilo=420,
    write_fraction=0.55,
    stream_mb=192,
    hot_mb=64,
    mix=AccessMix(local=0.87, stream=0.09, hot=0.02, fresh=0.02, sparse=0.0),
    local_kb=16,
)

SCALE = 1 / 64       # shrink footprints with the cache capacities
REFS_PER_CORE = 20_000
NUM_CORES = 8


def build(policy: str):
    config = SystemConfig(
        policy=policy,
        num_cores=NUM_CORES,
        msc_capacity_bytes=(4 << 30) // 64,
        tag_cache_entries=512,
        footprint_entries=1024,
        sram=SramLevels(l1_bytes=16 * 1024, l2_bytes=64 * 1024,
                        l3_bytes=256 * 1024),
    )
    traces = [
        generate_trace(STREAM_WRITER, num_refs=REFS_PER_CORE,
                       base_line=core_base_line(core), scale=SCALE, seed=core)
        for core in range(NUM_CORES)
    ]
    system = build_system(config, traces)
    system.msc.warm_many(
        warm_lines(STREAM_WRITER, core_base_line(core), scale=SCALE, seed=core)
        for core in range(NUM_CORES))
    return system


def main() -> None:
    print(f"custom workload: {STREAM_WRITER.name} "
          f"(write fraction {STREAM_WRITER.write_fraction:.0%})")
    for policy in ("baseline", "dap"):
        system = build(policy)
        system.run()
        result = collect_result(system)
        print(f"  {policy:9s} ipc={result.mean_ipc:.3f} "
              f"hit={result.served_hit_rate:.2f} "
              f"mm_frac={result.mm_cas_fraction:.2f} "
              f"decisions={result.dap_decisions}")
    print()
    print("A write-heavy stream should push DAP toward WB/FWB decisions "
          "(compare the decision counts above).")


if __name__ == "__main__":
    main()
