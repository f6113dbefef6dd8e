"""Integration tests for the sectored eDRAM controller."""

from repro.cache.sectored import SectoredCacheArray, SectorProbe
from repro.engine import Simulator
from repro.hierarchy.msc_edram import EdramMscController
from repro.mem.configs import ddr4_2400, edram_channels
from repro.mem.device import MemoryDevice
from repro.mem.request import AccessKind
from repro.policies.dap import DapEdramPolicy


def make_controller(policy=None, capacity=4 << 20):
    sim = Simulator()
    read_dev = MemoryDevice(sim, edram_channels("read"))
    write_dev = MemoryDevice(sim, edram_channels("write"))
    mm_dev = MemoryDevice(sim, ddr4_2400())
    array = SectoredCacheArray("edram", capacity, assoc=16, sector_bytes=1024)
    ctrl = EdramMscController(sim, read_dev, write_dev, mm_dev, array,
                              policy=policy)
    return sim, ctrl


def run_read(ctrl, sim, line):
    done = []
    ctrl.read(line, core_id=0, callback=lambda t: done.append(t))
    sim.run()
    assert done
    return done[0]


def test_read_hit_uses_read_channels():
    sim, ctrl = make_controller()
    ctrl.warm_line(3)
    run_read(ctrl, sim, 3)
    assert ctrl.cache_read_dev.cas_by_kind().get(AccessKind.DEMAND_READ) == 1
    assert ctrl.cache_write_dev.total_cas() == 0
    assert ctrl.served_hits == 1


def test_read_miss_fills_on_write_channels():
    sim, ctrl = make_controller()
    run_read(ctrl, sim, 3)
    assert ctrl.mm_dev.cas_by_kind().get(AccessKind.DEMAND_READ) == 1
    assert ctrl.cache_write_dev.cas_by_kind().get(AccessKind.FILL_WRITE) == 1
    assert ctrl.cache_read_dev.total_cas() == 0  # fills never touch reads
    assert ctrl.array.probe(3) is SectorProbe.HIT


def test_no_metadata_traffic():
    sim, ctrl = make_controller()
    ctrl.warm_line(3)
    run_read(ctrl, sim, 3)
    assert ctrl.stats.meta_reads == 0
    assert ctrl.stats.meta_writes == 0


def test_tag_latency_delays_service():
    sim, ctrl = make_controller()
    ctrl.warm_line(3)
    finish = run_read(ctrl, sim, 3)
    assert finish >= ctrl.tag_latency


def test_write_lands_on_write_channels():
    sim, ctrl = make_controller()
    ctrl.write(5, core_id=0)
    sim.run()
    assert ctrl.cache_write_dev.cas_by_kind().get(AccessKind.L4_WRITE) == 1
    assert ctrl.array.is_block_dirty(5)


def test_victim_reads_use_read_channels():
    # 1 KB sectors, 16 ways; use a tiny cache to force eviction.
    sim, ctrl = make_controller(capacity=16 * 1024)  # 1 set x 16 ways
    for s in range(16):
        ctrl.write(s * 16, core_id=0)  # 16 lines per 1 KB sector
    sim.run()
    ctrl.write(16 * 16, core_id=0)  # 17th sector evicts a dirty victim
    sim.run()
    assert ctrl.cache_read_dev.cas_by_kind().get(AccessKind.EVICT_READ, 0) >= 1
    assert ctrl.mm_dev.cas_by_kind().get(AccessKind.WRITEBACK, 0) >= 1


def test_dap_fwb_drops_fill():
    policy = DapEdramPolicy(b_ms=0.2, b_mm=0.15, window=10**9)
    sim, ctrl = make_controller(policy=policy)
    policy._fwb.load(3)
    run_read(ctrl, sim, 3)
    assert ctrl.stats.fwb_applied == 1
    assert ctrl.array.probe(3) is SectorProbe.SECTOR_MISS
    assert ctrl.cache_write_dev.total_cas() == 0


def test_dap_wb_steers_write_to_mm():
    policy = DapEdramPolicy(b_ms=0.2, b_mm=0.15, window=10**9)
    sim, ctrl = make_controller(policy=policy)
    policy._wb.load(3)
    ctrl.write(5, core_id=0)
    sim.run()
    assert ctrl.stats.wb_applied == 1
    assert ctrl.mm_dev.cas_by_kind().get(AccessKind.WRITEBACK) == 1
    assert ctrl.cache_write_dev.total_cas() == 0


def test_dap_ifrm_on_clean_hit():
    policy = DapEdramPolicy(b_ms=0.2, b_mm=0.15, window=10**9)
    sim, ctrl = make_controller(policy=policy)
    ctrl.warm_line(3)
    policy._ifrm.load(3)
    run_read(ctrl, sim, 3)
    assert ctrl.stats.ifrm_applied == 1
    assert ctrl.mm_dev.cas_by_kind().get(AccessKind.DEMAND_READ) == 1
    assert ctrl.cache_read_dev.total_cas() == 0
    assert ctrl.served_hit_rate() == 0.0  # forced miss counts as miss


def test_dirty_hit_never_forced():
    policy = DapEdramPolicy(b_ms=0.2, b_mm=0.15, window=10**9)
    sim, ctrl = make_controller(policy=policy)
    ctrl.warm_line(3, dirty=True)
    policy._ifrm.load(3)
    run_read(ctrl, sim, 3)
    assert ctrl.stats.ifrm_applied == 0
    assert ctrl.cache_read_dev.cas_by_kind().get(AccessKind.DEMAND_READ) == 1


def test_mm_cas_fraction_counts_both_cache_directions():
    sim, ctrl = make_controller()
    run_read(ctrl, sim, 3)     # MM read + fill write
    ctrl.warm_line(100)
    run_read(ctrl, sim, 100)   # read-channel hit
    frac = ctrl.mm_cas_fraction()
    assert 0 < frac < 1
