"""Integration tests for the sectored DRAM cache controller."""

from repro.cache.footprint import FootprintPredictor
from repro.cache.sectored import SectoredCacheArray, SectorProbe
from repro.cache.tag_cache import TagCache
from repro.engine import Simulator
from repro.hierarchy.msc_sectored import SectoredMscController
from repro.mem.configs import ddr4_2400, hbm_102
from repro.mem.device import MemoryDevice
from repro.mem.request import AccessKind
from repro.policies.dap import DapSectoredPolicy


def make_controller(policy=None, tag_cache=True, footprint=False,
                    capacity=16 << 20):
    sim = Simulator()
    cache_dev = MemoryDevice(sim, hbm_102())
    mm_dev = MemoryDevice(sim, ddr4_2400())
    array = SectoredCacheArray("l4", capacity, assoc=4, sector_bytes=4096)
    ctrl = SectoredMscController(
        sim, cache_dev, mm_dev, array,
        policy=policy,
        tag_cache=TagCache(entries=1024) if tag_cache else None,
        footprint=FootprintPredictor() if footprint else None,
    )
    return sim, ctrl


def run_read(ctrl, sim, line):
    done = []
    ctrl.read(line, core_id=0, callback=lambda t: done.append(t))
    sim.run()
    assert done, "read never completed"
    return done[0]


def test_read_miss_goes_to_main_memory_and_fills():
    sim, ctrl = make_controller()
    run_read(ctrl, sim, 100)
    assert ctrl.mm_dev.cas_by_kind()[AccessKind.DEMAND_READ] == 1
    assert ctrl.array.probe(100) is SectorProbe.HIT  # fill installed
    kinds = ctrl.cache_dev.cas_by_kind()
    assert kinds.get(AccessKind.FILL_WRITE) == 1
    assert ctrl.served_misses == 1


def test_read_hit_served_by_cache():
    sim, ctrl = make_controller()
    ctrl.warm_line(100)
    run_read(ctrl, sim, 100)
    assert ctrl.cache_dev.cas_by_kind().get(AccessKind.DEMAND_READ) == 1
    assert AccessKind.DEMAND_READ not in ctrl.mm_dev.cas_by_kind()
    assert ctrl.served_hits == 1


def test_tag_cache_miss_costs_metadata_read():
    sim, ctrl = make_controller()
    ctrl.warm_line(100)
    run_read(ctrl, sim, 100)  # first access: tag-cache miss
    assert ctrl.stats.meta_reads == 1
    run_read(ctrl, sim, 101)  # same sector: tag-cache hit now
    assert ctrl.stats.meta_reads == 1


def test_no_tag_cache_every_access_reads_metadata():
    sim, ctrl = make_controller(tag_cache=False)
    ctrl.warm_line(100)
    run_read(ctrl, sim, 100)
    run_read(ctrl, sim, 101)
    assert ctrl.stats.meta_reads == 2


def test_write_installs_dirty_block():
    sim, ctrl = make_controller()
    ctrl.write(200, core_id=0)
    sim.run()
    assert ctrl.array.is_block_dirty(200)
    assert ctrl.cache_dev.cas_by_kind().get(AccessKind.L4_WRITE) == 1


def test_sector_eviction_writes_dirty_victims_to_mm():
    sim, ctrl = make_controller(capacity=2 * 4 * 4096)  # 2 sets x 4 ways
    # Fill all 4 ways of set 0 with dirty blocks.
    sectors_in_set0 = [0, 2, 4, 6]
    for s in sectors_in_set0:
        ctrl.write(s * 64, core_id=0)
    sim.run()
    # A 5th sector in set 0 evicts a victim with one dirty block.
    ctrl.write(8 * 64, core_id=0)
    sim.run()
    assert ctrl.mm_dev.cas_by_kind().get(AccessKind.WRITEBACK, 0) >= 1
    assert ctrl.cache_dev.cas_by_kind().get(AccessKind.EVICT_READ, 0) >= 1
    assert ctrl.stats.victim_dirty_lines >= 1


def test_footprint_prefetch_on_reallocation():
    sim, ctrl = make_controller(capacity=2 * 4 * 4096, footprint=True)
    # Touch several blocks of sector 0, then evict it, then bring it back.
    for block in (0, 1, 2, 3):
        run_read(ctrl, sim, block)
    for s in (2, 4, 6, 8):  # fill set 0 and force eviction of sector 0
        ctrl.write(s * 64, core_id=0)
    sim.run()
    assert not ctrl.array.sector_present(0)
    run_read(ctrl, sim, 0)  # reallocation triggers footprint prefetch
    assert ctrl.stats.footprint_prefetches >= 3
    assert ctrl.mm_dev.cas_by_kind().get(AccessKind.FOOTPRINT_READ, 0) >= 3


def dap_policy_with_targets(**targets):
    """A DAP policy with one giant window and pre-loaded credits, so the
    controller-plumbing tests are independent of window timing (the
    window logic itself is covered in test_dap_solvers)."""
    from repro.core.dap import SectoredTargets

    policy = DapSectoredPolicy(b_ms=0.4, b_mm=0.15, window=10**9)
    policy.load_targets(
        SectoredTargets(
            n_fwb=targets.get("fwb", 0),
            n_wb=targets.get("wb", 0),
            n_ifrm=targets.get("ifrm", 0),
            n_sfrm=targets.get("sfrm", 0),
        )
    )
    return policy


def test_dap_fill_bypass_drops_fill():
    policy = dap_policy_with_targets(fwb=5)
    sim, ctrl = make_controller(policy=policy)
    run_read(ctrl, sim, 100)
    assert ctrl.stats.fwb_applied == 1
    assert ctrl.array.probe(100) is SectorProbe.SECTOR_MISS  # fill dropped


def test_dap_write_bypass_steers_to_mm():
    policy = dap_policy_with_targets(wb=5)
    sim, ctrl = make_controller(policy=policy)
    ctrl.write(300, core_id=0)
    sim.run()
    assert ctrl.stats.wb_applied == 1
    assert ctrl.mm_dev.cas_by_kind().get(AccessKind.WRITEBACK) == 1
    assert ctrl.array.probe(300) is SectorProbe.SECTOR_MISS


def test_ifrm_serves_clean_hit_from_mm():
    policy = dap_policy_with_targets(ifrm=5)
    sim, ctrl = make_controller(policy=policy)
    ctrl.warm_line(100)              # clean resident block
    ctrl.warm_line(101)
    # Prime the tag cache so the read takes the fast resolved path.
    run_read(ctrl, sim, 101)
    before = ctrl.mm_dev.cas_by_kind().get(AccessKind.DEMAND_READ, 0)
    run_read(ctrl, sim, 100)
    after = ctrl.mm_dev.cas_by_kind().get(AccessKind.DEMAND_READ, 0)
    assert ctrl.stats.ifrm_applied >= 1
    assert after == before + 1
    assert ctrl.array.probe(100) is SectorProbe.HIT  # block stays resident


def test_sfrm_races_metadata_fetch():
    policy = DapSectoredPolicy(b_ms=0.4, b_mm=0.15)
    sim, ctrl = make_controller(policy=policy)
    ctrl.warm_line(100)
    policy.note_ms_access(5)
    policy.note_mm_access(1)
    sim.run(until=70)  # SFRM credits from spare MM bandwidth
    finish = run_read(ctrl, sim, 100)  # tag-cache miss -> SFRM race
    assert ctrl.stats.sfrm_issued == 1
    assert ctrl.mm_dev.cas_by_kind().get(AccessKind.SPEC_READ) == 1
    assert finish > 0


def test_sfrm_wasted_on_dirty_hit():
    policy = DapSectoredPolicy(b_ms=0.4, b_mm=0.15)
    sim, ctrl = make_controller(policy=policy)
    ctrl.warm_line(100, dirty=True)
    policy.note_ms_access(5)
    policy.note_mm_access(1)
    sim.run(until=70)
    run_read(ctrl, sim, 100)
    assert ctrl.stats.sfrm_issued == 1
    assert ctrl.stats.sfrm_wasted == 1
    # Data served by the cache despite the speculative MM read.
    assert ctrl.cache_dev.cas_by_kind().get(AccessKind.DEMAND_READ) == 1


def test_read_latency_accounting():
    sim, ctrl = make_controller()
    ctrl.warm_line(100)
    run_read(ctrl, sim, 100)
    assert ctrl.stats.reads_done == 1
    assert ctrl.stats.avg_read_latency() > 0


def test_mm_cas_fraction():
    sim, ctrl = make_controller()
    run_read(ctrl, sim, 100)       # miss: MM read + fill + meta
    ctrl.warm_line(200)
    run_read(ctrl, sim, 200)       # hit
    frac = ctrl.mm_cas_fraction()
    assert 0 < frac < 1
