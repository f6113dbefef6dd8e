"""Integration tests for the Alloy cache controller."""

from repro.cache.alloy import AlloyCacheArray
from repro.cache.dbc import DirtyBitCache
from repro.engine import Simulator
from repro.hierarchy.msc_alloy import AlloyHitPredictor, AlloyMscController
from repro.mem.configs import ddr4_2400, hbm_102
from repro.mem.device import MemoryDevice
from repro.mem.request import AccessKind
from repro.policies.bear import BearFillPolicy
from repro.policies.dap import DapAlloyPolicy


def make_controller(policy=None, capacity=1 << 20, dbc=True):
    sim = Simulator()
    cache_dev = MemoryDevice(sim, hbm_102())
    mm_dev = MemoryDevice(sim, ddr4_2400())
    array = AlloyCacheArray("alloy", capacity)
    ctrl = AlloyMscController(
        sim, cache_dev, mm_dev, array, policy=policy,
        dbc=DirtyBitCache(entries=1024) if dbc else None,
    )
    return sim, ctrl


def run_read(ctrl, sim, line):
    done = []
    ctrl.read(line, core_id=0, callback=lambda t: done.append(t))
    sim.run()
    assert done
    return done[0]


def test_read_hit_fetches_tad():
    sim, ctrl = make_controller()
    ctrl.warm_line(5)
    run_read(ctrl, sim, 5)
    assert ctrl.cache_dev.cas_by_kind().get(AccessKind.TAD_READ) == 1
    assert ctrl.served_hits == 1


def test_read_miss_fills_with_tad_write():
    sim, ctrl = make_controller()
    run_read(ctrl, sim, 7)
    kinds = ctrl.cache_dev.cas_by_kind()
    assert kinds.get(AccessKind.TAD_READ) == 1     # probe discovered miss
    assert kinds.get(AccessKind.TAD_WRITE) == 1    # fill
    assert ctrl.mm_dev.cas_by_kind().get(AccessKind.DEMAND_READ) == 1
    assert ctrl.array.probe(7)


def test_predicted_miss_overlaps_mm_read():
    sim, ctrl = make_controller()
    predictor = ctrl.predictor
    # Train the predictor to predict misses for this region.
    for _ in range(4):
        predictor.update(0, 7, was_hit=False)
    assert not predictor.predict_hit(0, 7)
    finish_parallel = run_read(ctrl, sim, 7)

    sim2, ctrl2 = make_controller()
    for _ in range(4):
        ctrl2.predictor.update(0, 7, was_hit=True)  # mispredict: hit
    finish_serial = run_read(ctrl2, sim2, 7)
    assert finish_parallel < finish_serial  # early miss handling pays off


def test_write_hit_skips_tad_fetch():
    sim, ctrl = make_controller()
    ctrl.warm_line(9)
    ctrl.write(9, core_id=0)
    sim.run()
    kinds = ctrl.cache_dev.cas_by_kind()
    assert kinds.get(AccessKind.TAD_WRITE) == 1
    assert AccessKind.TAD_READ not in kinds  # presence bit avoided it
    assert ctrl.array.is_dirty(9)


def test_write_miss_allocates_and_evicts_dirty_victim():
    sim, ctrl = make_controller(capacity=4 * 64)  # 4 sets
    ctrl.warm_line(0, dirty=True)
    ctrl.write(4, core_id=0)  # conflicts with line 0
    sim.run()
    assert ctrl.mm_dev.cas_by_kind().get(AccessKind.WRITEBACK, 0) >= 1
    assert ctrl.array.probe(4)
    assert not ctrl.array.probe(0)


def test_dap_ifrm_uses_dbc_clean_state():
    policy = DapAlloyPolicy(b_ms=0.4, b_mm=0.15, window=10**9)
    sim, ctrl = make_controller(policy=policy)
    ctrl.warm_line(11)  # clean
    run_read(ctrl, sim, 11)  # first touch installs the DBC group
    tads_before = ctrl.cache_dev.cas_by_kind().get(AccessKind.TAD_READ, 0)
    policy._ifrm.load(5)
    run_read(ctrl, sim, 11)  # DBC hit + clean -> IFRM
    assert ctrl.stats.ifrm_applied == 1
    # Served by MM, no additional TAD fetch.
    assert ctrl.cache_dev.cas_by_kind().get(AccessKind.TAD_READ, 0) == tads_before
    assert ctrl.mm_dev.cas_by_kind().get(AccessKind.DEMAND_READ) == 1


def test_dap_ifrm_on_absent_line_doubles_as_fill_bypass():
    policy = DapAlloyPolicy(b_ms=0.4, b_mm=0.15, window=10**9)
    sim, ctrl = make_controller(policy=policy)
    # Warm the DBC group by reading a line in the same group first.
    run_read(ctrl, sim, 14)
    policy._ifrm.load(5)
    fwb_before = ctrl.stats.fwb_applied
    run_read(ctrl, sim, 13)  # absent and set clean -> IFRM + fill bypass
    assert ctrl.stats.ifrm_applied == 1
    assert ctrl.stats.fwb_applied == fwb_before + 1
    assert not ctrl.array.probe(13)


def test_dap_write_through_cleans_block():
    policy = DapAlloyPolicy(b_ms=0.4, b_mm=0.15, window=10**9)
    sim, ctrl = make_controller(policy=policy)
    ctrl.warm_line(15)
    policy._wt.load(5)
    ctrl.write(15, core_id=0)
    sim.run()
    assert ctrl.stats.write_throughs == 1
    assert not ctrl.array.is_dirty(15)
    assert ctrl.mm_dev.cas_by_kind().get(AccessKind.WT_WRITE) == 1


def test_bear_fill_bypass_leaders():
    policy = BearFillPolicy(leader_modulus=4)
    sim, ctrl = make_controller(policy=policy, capacity=(1 << 20))
    # Line in bypass-leader group (set % 4 == 1) gets its fill dropped.
    run_read(ctrl, sim, 1)
    assert not ctrl.array.probe(1)
    # Line in fill-leader group (set % 4 == 0) keeps its fill.
    run_read(ctrl, sim, 4)
    assert ctrl.array.probe(4)


def test_predictor_learns():
    predictor = AlloyHitPredictor(entries=64)
    for _ in range(4):
        predictor.update(0, 100, was_hit=False)
    assert not predictor.predict_hit(0, 100)
    for _ in range(4):
        predictor.update(0, 100, was_hit=True)
    assert predictor.predict_hit(0, 100)
    assert predictor.correct + predictor.wrong == 8


def test_served_hit_rate_counts_ifrm_as_miss():
    policy = DapAlloyPolicy(b_ms=0.4, b_mm=0.15, window=10**9)
    sim, ctrl = make_controller(policy=policy)
    ctrl.warm_line(11)
    run_read(ctrl, sim, 11)  # warms the DBC group; a served hit
    policy._ifrm.load(5)
    run_read(ctrl, sim, 11)   # IFRM -> counted as served miss
    assert ctrl.served_hits == 1
    assert ctrl.served_misses == 1
