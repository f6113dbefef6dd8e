"""Equivalence tests for the compact memory-side state.

- The flat-array Alloy sets against a dict-based reference model.
- Batched ``warm_many`` against per-line warmup for every controller.
- Packed trace columns against the generator they were packed from.
"""

import struct
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends.base import PackedTrace, SimBackend, TraceStore
from repro.cache.alloy import AlloyCacheArray
from repro.experiments.common import SMOKE, scaled_config
from repro.hierarchy.system import MiB, build_system
from repro.workloads.mixes import Mix
from repro.workloads.profiles import PROFILES
from repro.workloads.synthetic import (
    core_base_line,
    generate_trace,
    trace_chunks,
)


# ----------------------------------------------------------------------
# (a) Alloy array vs a dict-based reference model
# ----------------------------------------------------------------------

class _AlloyModel:
    """The Alloy array's contract, as one dict of set -> (line, dirty)."""

    def __init__(self, num_sets):
        self.num_sets = num_sets
        self.sets = {}
        self.read_hits = self.read_misses = 0
        self.write_hits = self.write_misses = 0
        self.evictions = 0

    def _resident(self, line):
        entry = self.sets.get(line % self.num_sets)
        return entry if entry is not None and entry[0] == line else None

    def probe(self, line):
        return self._resident(line) is not None

    def is_dirty(self, line):
        entry = self._resident(line)
        return entry is not None and entry[1]

    def set_is_dirty(self, set_index):
        entry = self.sets.get(set_index)
        return entry is not None and entry[1]

    def read(self, line):
        hit = self.probe(line)
        if hit:
            self.read_hits += 1
        else:
            self.read_misses += 1
        return hit

    def write(self, line):
        if self.probe(line):
            self.sets[line % self.num_sets] = (line, True)
            self.write_hits += 1
            return True
        self.write_misses += 1
        return False

    def fill(self, line, dirty=False):
        idx = line % self.num_sets
        old = self.sets.get(idx)
        if old is not None and old[0] == line:
            self.sets[idx] = (line, dirty or old[1])
            return None
        self.sets[idx] = (line, dirty)
        if old is None:
            return None
        self.evictions += 1
        return old

    def invalidate(self, line):
        entry = self._resident(line)
        if entry is None:
            return False
        del self.sets[line % self.num_sets]
        return entry[1]

    def clean(self, line):
        if self.probe(line):
            self.sets[line % self.num_sets] = (line, False)


_SETS = 4
_COUNTERS = ("read_hits", "read_misses", "write_hits", "write_misses",
             "evictions")
_OPS = ("fill", "write", "read", "invalidate", "clean", "probe", "is_dirty",
        "set_is_dirty")


def _apply(target, op, arg, dirty):
    if op == "fill":
        ev = target.fill(arg, dirty=dirty)
        if ev is None or isinstance(ev, tuple):
            return ev
        return (ev.line, ev.dirty)
    return getattr(target, op)(arg)


# Lines 0..23 over 4 sets: every set sees six colliding lines.
_op = st.tuples(st.sampled_from(_OPS), st.integers(0, 23), st.booleans())


@given(st.lists(_op, max_size=80))
# A dirty refill of a clean resident, a clean refill of a dirty one, and
# a dirty victim displaced by a colliding line (1 and 5 share set 1).
@example([("fill", 5, False), ("fill", 5, True), ("is_dirty", 5, False)])
@example([("fill", 5, True), ("fill", 5, False), ("is_dirty", 5, False)])
@example([("fill", 1, True), ("fill", 5, False), ("set_is_dirty", 1, False)])
@settings(max_examples=300, deadline=None)
def test_alloy_array_matches_dict_model(ops):
    arr = AlloyCacheArray("alloy", capacity_bytes=_SETS * 64)
    model = _AlloyModel(_SETS)
    for op, arg, dirty in ops:
        if op == "set_is_dirty":
            arg %= _SETS + 2  # two indices past the last set
        got = _apply(arr, op, arg, dirty)
        want = _apply(model, op, arg, dirty)
        assert got == want and type(got) is type(want), (op, arg, dirty)
    for line in range(24):
        assert arr.probe(line) == model.probe(line)
        assert arr.is_dirty(line) == model.is_dirty(line)
    for name in _COUNTERS:
        assert getattr(arr, name) == getattr(model, name), name


@given(st.lists(st.tuples(st.integers(0, 23), st.booleans()), max_size=80))
@settings(max_examples=200, deadline=None)
def test_alloy_warm_many_matches_fill(pairs):
    batched = AlloyCacheArray("alloy", capacity_bytes=_SETS * 64)
    per_line = AlloyCacheArray("alloy", capacity_bytes=_SETS * 64)
    assert batched.warm_many(iter(pairs)) == len(pairs)
    for line, dirty in pairs:
        per_line.fill(line, dirty=dirty)
    assert batched._sets == per_line._sets
    assert batched.evictions == per_line.evictions


# ----------------------------------------------------------------------
# (b) Batched warmup vs per-line warmup on a real mix's warm set
# ----------------------------------------------------------------------

# The write-heavy workload's members: 107,008 warm lines, 42% of them
# dirty, over a 1 MiB cache so every controller evicts.
_MIX = Mix("compact", ("gcc.expr", "parboil-lbm"), "heterogeneous")
_GEOMETRY = {
    "sectored": {},
    "alloy": {},
    "edram": {"msc_assoc": 16, "sector_bytes": 1024},
}


def _controller(kind):
    config = scaled_config(SMOKE, policy="dap", msc_kind=kind,
                           paper_capacity=64 * MiB,
                           num_cores=_MIX.num_cores, **_GEOMETRY[kind])
    return build_system(config, [()] * _MIX.num_cores).msc


def _install_per_line(array, line, dirty):
    """Reference sectored install from the array's primitives."""
    if not array.sector_present(line):
        array.allocate_sector(line)
    if array.sector_present(line):
        array.fill_block(line, dirty=dirty)


def _state(array):
    if isinstance(array, AlloyCacheArray):
        return array._sets.tobytes(), array.evictions
    sets = {
        idx: [(sid, s.valid, s.dirty, s.touched, s.stamp)
              for sid, s in ways.items()]
        for idx, ways in array._sets.items()
    }
    return (sets, array.sector_allocations, array.sector_evictions,
            array.reads, array.writes)


@pytest.mark.parametrize("kind", sorted(_GEOMETRY))
def test_warm_many_matches_per_line_warmup(kind):
    pairs = list(_MIX.warm_sets(SMOKE.footprint_scale))
    batched = _controller(kind)
    assert batched.warm_many(_MIX.warm_sets(SMOKE.footprint_scale)) == len(pairs)

    per_line = _controller(kind)
    for line, dirty in pairs:
        per_line.warm_line(line, dirty)
    assert _state(batched.array) == _state(per_line.array)

    if kind != "alloy":
        reference = _controller(kind).array
        for line, dirty in pairs:
            _install_per_line(reference, line, dirty)
        assert _state(batched.array) == _state(reference)
        assert batched.array.sector_evictions > 0
    else:
        assert batched.array.evictions > 0


# ----------------------------------------------------------------------
# (c) Packed trace columns
# ----------------------------------------------------------------------

_REFS = 2_000


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_packed_trace_replays_the_generator(name):
    profile = PROFILES[name]
    kwargs = dict(base_line=core_base_line(3), scale=SMOKE.footprint_scale,
                  seed=3)
    entry = SimBackend().trace(profile, _REFS, **kwargs)
    assert len(entry) == _REFS
    assert list(iter(entry)) == list(generate_trace(profile, _REFS, **kwargs))


@pytest.mark.parametrize("chunk_refs", [1, 7, 500, _REFS])
def test_trace_chunks_split_the_same_columns(chunk_refs):
    profile = PROFILES["parboil-lbm"]
    whole = SimBackend().trace(profile, _REFS, seed=2)
    chunks = list(trace_chunks(profile, _REFS, seed=2,
                               chunk_refs=chunk_refs))
    assert len(chunks) == -(-_REFS // chunk_refs)
    assert b"".join(c.gaps.tobytes() for c in chunks) == whole.gaps.tobytes()
    assert b"".join(c.writes for c in chunks) == whole.writes
    assert b"".join(c.lines.tobytes() for c in chunks) == \
        whole.lines.tobytes()


def test_packed_trace_costs_about_eleven_bytes_a_reference():
    # 2 + 1 + 8 bytes, plus object headers and array over-allocation;
    # a list of tuples costs about 100.
    entry = SimBackend().trace(PROFILES["mcf"], _REFS)
    columns = (entry.gaps, entry.writes, entry.lines)
    assert sum(sys.getsizeof(c) for c in columns) < 12 * _REFS


def test_trace_store_cost_is_references():
    backend = SimBackend()
    backend.store = TraceStore(max_refs=_REFS)
    profile = PROFILES["mcf"]
    backend.trace(profile, _REFS, seed=0)
    backend.trace(profile, _REFS, seed=1)  # evicts seed 0
    backend.trace(profile, _REFS, seed=0)
    assert (backend.store.generated, backend.store.reused) == (3, 0)
    backend.trace(profile, _REFS, seed=0)
    assert backend.store.reused == 1


@pytest.mark.parametrize("ref", [(1 << 16, False, 1), (-1, False, 1),
                                 (0, False, 1 << 63)])
def test_packed_trace_rejects_values_outside_a_column(ref):
    with pytest.raises(struct.error):
        PackedTrace([(0, True, 5), ref])
