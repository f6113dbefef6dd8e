"""Core engine microbenchmarks: event queue, DRAM dispatch, end-to-end.

The bench_fig* suites time whole paper artifacts; these instead isolate
the three layers the simulator spends its life in, so a hot-path change
shows up as a throughput delta in the layer that owns it:

* ``drain_event_queue`` — the :class:`Simulator` heap alone, dispatching
  self-rescheduling callbacks with no model work attached.
* ``drive_channel`` — one DDR4-like :class:`DramChannel` chewing a
  read/write mix of row-hit streams and scattered row misses.
* ``run_smoke_cell`` — one full smoke-scale mix (cores, SRAM hierarchy,
  memory-side cache, both DRAM devices), the number the BENCH_*.json
  trajectory gates on.

Two entry points:

* pytest-benchmark::

      PYTHONPATH=src python -m pytest benchmarks/bench_core.py --benchmark-only

* script mode, emitting a BENCH-schema record for ``repro analyze bench``::

      PYTHONPATH=src python benchmarks/bench_core.py --bench /tmp/core.json
      PYTHONPATH=src repro analyze bench /tmp/core.json --against <prior.json>

  The record carries one experiment entry per microbenchmark, so a
  regression report names the layer that slowed down rather than just
  the aggregate.
"""

from __future__ import annotations

import time

from repro.engine.clock import ClockDomain
from repro.engine.event_queue import Simulator
from repro.experiments.cellcache import CellProfile, ExecStats
from repro.experiments.common import SMOKE, run_mix, scaled_config
from repro.mem.channel import DramChannel
from repro.mem.request import AccessKind, Request
from repro.mem.timing import DramTiming
from repro.workloads.mixes import rate_mix

EVENT_QUEUE_EVENTS = 200_000
CHANNEL_REQUESTS = 30_000


# ----------------------------------------------------------------------
# The three workloads
# ----------------------------------------------------------------------

def drain_event_queue(num_events: int = EVENT_QUEUE_EVENTS,
                      chains: int = 8) -> int:
    """Dispatch ``num_events`` callbacks through a bare Simulator.

    ``chains`` interleaved self-rescheduling callbacks with co-prime-ish
    periods keep the heap populated (so each dispatch pays a real
    sift-down) without any model work; returns the dispatched count.
    """
    sim = Simulator()
    schedule = sim.schedule
    per_chain = num_events // chains

    def make_chain(period: int):
        remaining = per_chain

        def tick() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining:
                schedule(period, tick)

        return tick

    for chain in range(chains):
        schedule(chain + 1, make_chain(chain + 1))
    return sim.run()


def drive_channel(num_requests: int = CHANNEL_REQUESTS) -> int:
    """Push a read/write mix through one DDR4-like channel.

    Four-fifths of the traffic streams within a handful of rows (row
    hits), the rest strides across the row space (row misses), and every
    seventh request is a write so the write-batching state machine runs.
    Returns the simulator's dispatched-event count.
    """
    sim = Simulator()
    channel = DramChannel(
        sim,
        ClockDomain(device_ghz=1.2),
        DramTiming(t_cas=15, t_rcd=15, t_rp=15, t_ras=39, burst=4),
        num_banks=16,
        row_bytes=8 * 1024,
        name="bench",
    )
    row_lines = channel.row_lines
    for i in range(num_requests):
        if i % 5:
            line = i % (row_lines * 4)              # row-hit streams
        else:
            line = (i * 977) % (row_lines * 1024)   # scattered row misses
        kind = AccessKind.WRITEBACK if i % 7 == 0 else AccessKind.DEMAND_READ
        channel.enqueue(Request(line=line, kind=kind))
    return sim.run()


def run_smoke_cell(policy: str = "dap") -> tuple[int, float]:
    """Run one smoke-scale mcf rate mix end to end.

    Returns ``(events_dispatched, wall_seconds)`` — the same shape the
    smoke script's BENCH records aggregate per cell.
    """
    systems: list = []
    start = time.perf_counter()
    run_mix(rate_mix("mcf"), scaled_config(SMOKE, policy=policy), SMOKE,
            system_out=systems)
    wall = time.perf_counter() - start
    return systems[0].sim.events_dispatched, wall


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------

def test_event_queue_throughput(benchmark):
    events = benchmark.pedantic(drain_event_queue, rounds=3, iterations=1)
    assert events == EVENT_QUEUE_EVENTS


def test_channel_dispatch_throughput(benchmark):
    events = benchmark.pedantic(drive_channel, rounds=3, iterations=1)
    # Every request dispatches at least one completion event.
    assert events >= CHANNEL_REQUESTS


def test_end_to_end_smoke_cell(benchmark):
    events, _ = benchmark.pedantic(run_smoke_cell, rounds=1, iterations=1)
    assert events > 0


# ----------------------------------------------------------------------
# Script mode: emit a BENCH-schema record for `repro analyze bench`
# ----------------------------------------------------------------------

def _stats_for(label: str, events: int, wall: float) -> ExecStats:
    """One executed cell with one profile entry — the shape
    build_bench_record aggregates."""
    return ExecStats(total=1, executed=1,
                     profile=[CellProfile(label, wall, events=events)],
                     elapsed=wall)


def main(argv=None) -> int:
    import argparse

    from repro.obs.bench import build_bench_record, write_bench

    parser = argparse.ArgumentParser(
        description="Core engine microbenchmarks (BENCH-record emitter).")
    parser.add_argument("--bench", metavar="FILE", default=None,
                        help="write a BENCH-schema record here")
    parser.add_argument("--repeat", type=int, default=1,
                        help="measurements per benchmark; best is kept")
    args = parser.parse_args(argv)

    def best_of(fn):
        best = None
        for _ in range(max(1, args.repeat)):
            start = time.perf_counter()
            events = fn()
            wall = time.perf_counter() - start
            if best is None or wall < best[1]:
                best = (events, wall)
        return best

    per_experiment = {}
    for name, fn in (
        ("core.event_queue", drain_event_queue),
        ("core.channel_dispatch", drive_channel),
    ):
        events, wall = best_of(fn)
        per_experiment[name] = _stats_for(name, events, wall)
        print(f"{name:24s} {events:10,d} events  {wall:7.3f}s  "
              f"{events / wall:12,.0f} ev/s")

    best = None
    for _ in range(max(1, args.repeat)):
        sample = run_smoke_cell()
        if best is None or sample[1] < best[1]:
            best = sample
    events, wall = best
    per_experiment["core.end_to_end"] = _stats_for("core.end_to_end",
                                                   events, wall)
    print(f"{'core.end_to_end':24s} {events:10,d} events  {wall:7.3f}s  "
          f"{events / wall:12,.0f} ev/s")

    if args.bench:
        record = build_bench_record(run_id="bench-core",
                                    per_experiment=per_experiment,
                                    scale=SMOKE.name)
        write_bench(args.bench, record)
        print(f"wrote {args.bench} "
              f"({record['events_per_sec']:,.0f} ev/s aggregate)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
