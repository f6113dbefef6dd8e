"""Layer drivers for the event queue and one DRAM channel.

These isolate two layers the simulator spends its life in, so a
hot-path change shows up as a throughput delta in the layer that owns
it. ``perfbench/micro.py`` times them as the ``engine`` and ``dram``
microbenchmarks (``engine.micro_ns_per_event``,
``dram.micro_ns_per_req``):

* ``drain_event_queue`` — the :class:`Simulator` heap alone, dispatching
  self-rescheduling callbacks with no model work attached.
* ``drive_channel`` — one DDR4-like :class:`DramChannel` chewing a
  read/write mix of row-hit streams and scattered row misses.
"""

from __future__ import annotations

from repro.engine.clock import ClockDomain
from repro.engine.event_queue import Simulator
from repro.mem.channel import DramChannel
from repro.mem.request import AccessKind, Request
from repro.mem.timing import DramTiming

EVENT_QUEUE_EVENTS = 200_000
CHANNEL_REQUESTS = 30_000

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
