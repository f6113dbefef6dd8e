"""Layer microbenchmarks: one layer driven alone, in host ns per unit.

The event-queue and DRAM-channel drivers are ``benchmarks/bench_core.py``'s
own (imported, not copied; CI runs that file too). The SRAM driver is
new: it feeds ``CacheHierarchy.load``/``store`` a fixed mix of L1, L2 and
L3 hits and misses, with a stub controller that completes each read a
fixed delay after it arrives.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

from repro.engine.event_queue import Simulator
from repro.experiments.common import SMOKE
from repro.hierarchy.cache_hierarchy import CacheHierarchy
from repro.mem.request import AccessKind
from repro.policies.base import SteeringPolicy

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from bench_core import (  # noqa: E402
    CHANNEL_REQUESTS,
    EVENT_QUEUE_EVENTS,
    drain_event_queue,
    drive_channel,
)

SRAM_ACCESSES = 200_000
STUB_READ_DELAY = 200   # cycles from a read's arrival to its data
DRAIN_EVERY = 64        # accesses issued between event-queue drains

# (share, distinct lines) per address class, sized against the smoke
# SRAM levels (L1 256, L2 1024, L3 4096 lines): mostly L1 hits, then L2
# and L3 hits, then lines never seen before (misses to the controller).
SRAM_CLASSES = ((0.60, 128), (0.20, 768), (0.10, 3072), (0.10, None))
STORE_SHARE = 0.25


class StubMsc:
    """Completes each read ``delay`` cycles after it arrives; drops writes."""

    def __init__(self, sim: Simulator, delay: int = STUB_READ_DELAY) -> None:
        self.sim = sim
        self.delay = delay
        self.policy = SteeringPolicy()
        self.reads = 0
        self.writes = 0

    def read(self, line: int, core_id: int, callback,
             kind: AccessKind = AccessKind.DEMAND_READ) -> None:
        self.reads += 1
        finish = self.sim.now + self.delay
        self.sim.schedule(self.delay, lambda: callback(finish))

    def write(self, line: int, core_id: int) -> None:
        self.writes += 1


def sram_accesses(count: int = SRAM_ACCESSES, seed: int = 0) -> list:
    """The fixed ``(is_store, line)`` stream the SRAM driver replays."""
    rng = random.Random(seed)
    stream = []
    fresh = 1 << 24
    bases = [i << 20 for i in range(len(SRAM_CLASSES))]
    for _ in range(count):
        pick = rng.random()
        for base, (share, lines) in zip(bases, SRAM_CLASSES):
            if pick < share or lines is None:
                break
            pick -= share
        if lines is None:
            fresh += 1
            line = fresh
        else:
            line = base + rng.randrange(lines)
        stream.append((rng.random() < STORE_SHARE, line))
    return stream


def drive_sram(stream: list) -> CacheHierarchy:
    """Replay ``stream`` through a one-core hierarchy over a stub MSC."""
    sim = Simulator()
    hierarchy = CacheHierarchy(sim, 1, StubMsc(sim),
                               levels=SMOKE.sram_levels())
    load, store = hierarchy.load, hierarchy.store
    for index, (is_store, line) in enumerate(stream):
        (store if is_store else load)(0, line)
        if index % DRAIN_EVERY == DRAIN_EVERY - 1:
            sim.run()
    sim.run()
    return hierarchy


def _ns_per(fn, units: int) -> float:
    start = time.perf_counter_ns()
    fn()
    return (time.perf_counter_ns() - start) / units


def micro_metrics() -> dict[str, float]:
    stream = sram_accesses()
    return {
        "engine.micro_ns_per_event": _ns_per(drain_event_queue,
                                             EVENT_QUEUE_EVENTS),
        "dram.micro_ns_per_req": _ns_per(drive_channel, CHANNEL_REQUESTS),
        "sram.micro_ns_per_access": _ns_per(lambda: drive_sram(stream),
                                            len(stream)),
    }
