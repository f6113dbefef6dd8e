"""Tests for the multi-channel memory device."""

import pytest

from repro.engine import Simulator
from repro.mem.configs import ddr4_2400, hbm_102
from repro.mem.device import MemoryDevice
from repro.mem.request import AccessKind, Request


def test_line_interleaving_across_channels():
    sim = Simulator()
    dev = MemoryDevice(sim, hbm_102())
    assert dev.channel_of(0) is dev.channels[0]
    assert dev.channel_of(1) is dev.channels[1]
    assert dev.channel_of(4) is dev.channels[0]


def test_enqueue_preserves_request_line():
    sim = Simulator()
    dev = MemoryDevice(sim, hbm_102())
    results = []
    req = Request(line=1234567, kind=AccessKind.DEMAND_READ,
                  on_complete=lambda r, t: results.append(r.line))
    dev.enqueue(req)
    sim.run()
    assert results == [1234567]


def test_streaming_uses_all_channels():
    sim = Simulator()
    dev = MemoryDevice(sim, hbm_102())
    for line in range(256):
        dev.enqueue(Request(line=line, kind=AccessKind.DEMAND_READ))
    sim.run()
    per_channel = [ch.stats.total_cas for ch in dev.channels]
    assert per_channel == [64, 64, 64, 64]


def test_streaming_delivered_bandwidth_close_to_peak():
    sim = Simulator()
    dev = MemoryDevice(sim, hbm_102())
    for line in range(4096):
        dev.enqueue(Request(line=line, kind=AccessKind.DEMAND_READ))
    sim.run()
    # Streaming reads should deliver most of the 102.4 GB/s peak.
    assert dev.delivered_gbps() > 0.8 * dev.peak_gbps


def test_ddr4_delivered_bandwidth_close_to_peak():
    sim = Simulator()
    dev = MemoryDevice(sim, ddr4_2400())
    for line in range(4096):
        dev.enqueue(Request(line=line, kind=AccessKind.DEMAND_READ))
    sim.run()
    assert dev.delivered_gbps() > 0.75 * 38.4


def test_random_traffic_efficiency_below_streaming():
    import random

    rng = random.Random(3)
    sim = Simulator()
    dev = MemoryDevice(sim, ddr4_2400())
    for _ in range(2048):
        dev.enqueue(Request(line=rng.randrange(1 << 26), kind=AccessKind.DEMAND_READ))
    sim.run()
    random_bw = dev.delivered_gbps()

    sim2 = Simulator()
    dev2 = MemoryDevice(sim2, ddr4_2400())
    for line in range(2048):
        dev2.enqueue(Request(line=line, kind=AccessKind.DEMAND_READ))
    sim2.run()
    assert random_bw < dev2.delivered_gbps()


def test_peak_accesses_per_cycle():
    sim = Simulator()
    cache = MemoryDevice(sim, hbm_102())
    mm = MemoryDevice(sim, ddr4_2400())
    assert cache.peak_accesses_per_cycle() == pytest.approx(0.4)
    assert mm.peak_accesses_per_cycle() == pytest.approx(0.15)


def test_cas_by_kind_merges_channels():
    sim = Simulator()
    dev = MemoryDevice(sim, hbm_102())
    for line in range(8):
        dev.enqueue(Request(line=line, kind=AccessKind.DEMAND_READ))
    for line in range(8):
        dev.enqueue(Request(line=line + 100, kind=AccessKind.FILL_WRITE))
    sim.run()
    by_kind = dev.cas_by_kind()
    assert by_kind[AccessKind.DEMAND_READ] == 8
    assert by_kind[AccessKind.FILL_WRITE] == 8
    assert dev.total_cas() == 16
