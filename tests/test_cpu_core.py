"""Tests for the trace-driven core model."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Simulator
from repro.hierarchy.cache_hierarchy import CacheHierarchy, SramLevels
from repro.hierarchy.cpu_core import TraceCore
from repro.mem.request import AccessKind
from repro.policies.base import SteeringPolicy
from repro.workloads import columns
from repro.workloads.columns import PackedTrace


class FakeMsc:
    def __init__(self, sim, latency=200):
        self.sim = sim
        self.latency = latency
        self.reads = 0
        self.policy = SteeringPolicy()

    def read(self, line, core_id, callback, kind=AccessKind.DEMAND_READ):
        self.reads += 1
        self.sim.schedule(self.latency, lambda: callback(self.sim.now))

    def write(self, line, core_id):
        pass


def build(trace, latency=200, **core_kwargs):
    sim = Simulator()
    msc = FakeMsc(sim, latency=latency)
    levels = SramLevels(l1_bytes=64 * 64, l1_assoc=2, l2_bytes=256 * 64,
                        l2_assoc=4, l3_bytes=1024 * 64, l3_assoc=4)
    hierarchy = CacheHierarchy(sim, 1, msc, levels=levels, enable_prefetch=False)
    core = TraceCore(sim, 0, trace, hierarchy, **core_kwargs)
    return sim, core, msc


def test_compute_bound_ipc_approaches_width():
    # 100 memory ops, 39 compute instructions between each, all L1 hits
    # after first touch to one line.
    trace = [(39, False, 0)] * 100
    sim, core, msc = build(trace)
    core.start()
    sim.run()
    assert core.done
    # 4000 instructions at width 4 -> >= 1000 cycles; near-ideal IPC.
    assert core.ipc == pytest.approx(4.0, rel=0.2)


def test_all_instructions_counted():
    trace = [(9, False, i) for i in range(50)]
    sim, core, msc = build(trace)
    core.start()
    sim.run()
    assert core.instr_count == 50 * 10
    assert core.loads == 50


def test_miss_latency_bounds_ipc():
    # Dependent-ish serial misses: distinct lines, no compute gap, tiny ROB.
    trace = [(0, False, i * 4096) for i in range(50)]
    sim, core, msc = build(trace, latency=500, rob_entries=1, mshrs=1)
    core.start()
    sim.run()
    # Each miss serializes: runtime >= 50 * 500 cycles (minus slack).
    assert core.finish_cycle >= 50 * 500 * 0.8


def test_mlp_overlaps_misses():
    trace = [(0, False, i * 4096) for i in range(50)]
    sim_serial, core_serial, _ = build(trace, latency=500, rob_entries=1, mshrs=1)
    core_serial.start()
    sim_serial.run()
    sim_par, core_par, _ = build(trace, latency=500, rob_entries=224, mshrs=16)
    core_par.start()
    sim_par.run()
    # 16 MSHRs overlap misses: much faster than the serial core.
    assert core_par.finish_cycle < core_serial.finish_cycle / 4


def test_mshr_limit_enforced():
    trace = [(0, False, i * 4096) for i in range(40)]
    sim, core, msc = build(trace, latency=10_000, mshrs=4)
    core.start()
    # Run a little: only 4 misses may be outstanding.
    sim.run(until=5_000)
    assert msc.reads <= 4


def test_rob_window_blocks_runahead():
    # A miss at the head with rob=8 allows at most ~8 further instructions.
    trace = [(0, False, 0)] + [(0, False, 1 << 20)] + \
            [(3, False, 2)] * 30  # the 1<<20 load misses
    sim, core, msc = build(trace, latency=100_000, rob_entries=8, mshrs=8)
    core.start()
    sim.run(until=50_000)
    # Core cannot have dispatched past the window while the miss is live.
    assert core.instr_count <= 2 + 8 + 4


def test_stores_do_not_block_retirement():
    trace = [(0, True, i * 4096) for i in range(20)] + [(0, False, 0)] * 10
    sim, core, msc = build(trace, latency=300)
    core.start()
    sim.run()
    assert core.done
    assert core.stores == 20


def test_ipc_zero_before_finish():
    trace = [(0, False, 0)]
    sim, core, msc = build(trace)
    assert core.ipc == 0.0
    core.start()
    sim.run()
    assert core.ipc > 0


def test_deterministic_across_runs():
    trace = [(2, bool(i % 3 == 0), (i * 37) % 5000) for i in range(300)]
    finishes = []
    for _ in range(2):
        sim, core, msc = build(list(trace))
        core.start()
        sim.run()
        finishes.append(core.finish_cycle)
    assert finishes[0] == finishes[1]


# ----------------------------------------------------------------------
# The column cursor and its chunks
# ----------------------------------------------------------------------

def _outcome(trace, **core_kwargs):
    sim, core, msc = build(trace, latency=150, **core_kwargs)
    core.start()
    sim.run()
    assert core.done
    return (core.instr_count, core.finish_cycle, core.loads, core.stores,
            core.l3_miss_loads, msc.reads, sim.events_dispatched)


def _generator(refs):
    yield from refs


_REF = st.tuples(
    st.integers(min_value=0, max_value=12),
    st.booleans(),
    # Mostly L1-resident lines, plus far lines that miss the tiny L3.
    st.one_of(st.integers(min_value=0, max_value=15),
              st.integers(min_value=0, max_value=400).map(
                  lambda i: (1 << 20) + 64 * i)),
)


@given(refs=st.lists(_REF, min_size=1, max_size=60),
       rob_entries=st.integers(min_value=1, max_value=8),
       mshrs=st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_every_trace_form_runs_identically(refs, rob_entries, mshrs):
    kwargs = dict(rob_entries=rob_entries, mshrs=mshrs)
    expected = _outcome(PackedTrace(refs), **kwargs)
    assert expected[0] == sum(gap + 1 for gap, _, _ in refs)
    assert expected[2:4] == (sum(not w for _, w, _ in refs),
                             sum(w for _, w, _ in refs))
    assert _outcome(list(refs), **kwargs) == expected
    for chunk in (1, 2, 7):
        with mock.patch.object(columns, "CHUNK_REFS", chunk):
            assert _outcome(_generator(refs), **kwargs) == expected


def test_sram_hits_never_register_a_miss():
    # Two first touches, then (past the 200-cycle fills) 61 SRAM hits.
    trace = [(1, False, 5), (0, True, 6), (2_000, False, 5)] + [
        (2, i % 3 == 0, 5 + i % 2) for i in range(60)]
    sim, core, msc = build(trace)
    requested = []
    request_line = core.hierarchy._request_line
    core.hierarchy._request_line = (
        lambda *args: requested.append(args[1]) or request_line(*args))
    core.start()
    sim.run()
    assert core.done
    assert requested == [5, 6]
    assert msc.reads == 2
    assert core.l3_miss_loads == 1


def test_trace_end_waits_for_an_inflight_load_miss():
    sim, core, msc = build([(0, False, 1 << 20)], latency=1_000)
    core.start()
    sim.run(until=500)
    assert not core.done  # the trace is consumed, the miss is not
    sim.run()
    assert core.done
    assert core.finish_cycle >= 1_000


def test_trace_end_waits_for_an_inflight_store_miss():
    sim, core, msc = build([(0, True, 1 << 20)], latency=1_000)
    core.start()
    sim.run(until=500)
    assert not core.done
    sim.run()
    assert core.done and core.stores == 1
