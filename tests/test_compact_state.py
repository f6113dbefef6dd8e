"""Equivalence tests for the compact memory-side state.

- The flat-array Alloy sets against a dict-based reference model.
- Batched ``warm_many`` against per-line warmup for every controller.
- Columnar warm sets: their install against a per-pair reference, and
  their flag draws against the per-line generator they replaced.
- Packed trace columns against the generator they were packed from.
"""

import random
import struct
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends.base import PackedTrace, SimBackend, TraceStore
from repro.cache.alloy import AlloyCacheArray
from repro.cache.sectored import SectoredCacheArray
from repro.experiments.common import SMALL, SMOKE, scaled_config
from repro.hierarchy.system import MiB, build_system
from repro.workloads.columns import WarmSet
from repro.workloads.mixes import Mix
from repro.workloads.profiles import PROFILES
from repro.workloads.synthetic import (
    SECTOR_LINES,
    _layout,
    _seed_for,
    core_base_line,
    generate_trace,
    trace_chunks,
    warm_lines,
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


# Lines 0..23 over 4 sets: every set sees six colliding lines. The
# far lines sit at tag boundaries (multiples of the set count, with tags
# far past 2**32 / 4) and around the last core's base line of an 8-core
# mix, so a victim's line is rebuilt from a large tag.
_FAR_LINES = ([k * _SETS for k in (1 << 20, (1 << 40) + 1)]
              + [core_base_line(7) + offset for offset in range(-3, 5)])
_line = st.one_of(st.integers(0, 23), st.sampled_from(_FAR_LINES))
_op = st.tuples(st.sampled_from(_OPS), _line, st.booleans())


@given(st.lists(_op, max_size=80))
# A dirty refill of a clean resident, a clean refill of a dirty one, and
# a dirty victim displaced by a colliding line (1 and 5 share set 1).
@example([("fill", 5, False), ("fill", 5, True), ("is_dirty", 5, False)])
@example([("fill", 5, True), ("fill", 5, False), ("is_dirty", 5, False)])
@example([("fill", 1, True), ("fill", 5, False), ("set_is_dirty", 1, False)])
# Line 0 and the first line of tag 1 share set 0; a far dirty victim
# whose tag is 2**20, displaced by line 4 and then by line 0.
@example([("fill", 0, True), ("fill", _SETS, False), ("probe", 0, False)])
@example([("fill", _FAR_LINES[0], True), ("fill", 4, False),
          ("fill", 0, True), ("is_dirty", 0, False)])
# The last core's lines against their neighbours across a tag boundary.
@example([("fill", core_base_line(7) + 1, True),
          ("fill", core_base_line(7) + 1 + _SETS, False),
          ("invalidate", core_base_line(7) + 1 + _SETS, False),
          ("fill", core_base_line(7) + 1, False)])
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
    for line in [*range(24), *_FAR_LINES]:
        assert arr.probe(line) == model.probe(line)
        assert arr.is_dirty(line) == model.is_dirty(line)
    for name in _COUNTERS:
        assert getattr(arr, name) == getattr(model, name), name


@given(st.lists(st.tuples(st.integers(0, 23), st.booleans()), max_size=80))
@settings(max_examples=200, deadline=None)
def test_alloy_warm_many_matches_fill(pairs):
    batched = AlloyCacheArray("alloy", capacity_bytes=_SETS * 64)
    per_line = AlloyCacheArray("alloy", capacity_bytes=_SETS * 64)
    warm_set = WarmSet(tuple(range(line, line + 1) for line, _ in pairs),
                       bytes(dirty for _, dirty in pairs))
    assert batched.warm_many(iter([warm_set])) == len(pairs)
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
    warm_sets = SimBackend().warm_sets(_MIX, SMOKE.footprint_scale)
    pairs = [pair for warm_set in warm_sets for pair in warm_set]
    batched = _controller(kind)
    assert batched.warm_many(warm_sets) == len(pairs)

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
# (c) Columnar warm sets
# ----------------------------------------------------------------------

def _reference_install(array, warm_sets):
    """Install the ``(line, dirty)`` pairs one at a time: the sectored
    primitives, or the Alloy fill path."""
    for warm_set in warm_sets:
        for line, dirty in warm_set:
            if isinstance(array, AlloyCacheArray):
                array.fill(line, dirty=dirty)
            else:
                _install_per_line(array, line, dirty)


def _full_state(array):
    """Everything a warm install may change, in insertion order."""
    if isinstance(array, AlloyCacheArray):
        return _state(array)
    return ([(idx, [(sid, s.valid, s.dirty, s.touched, s.stamp)
                    for sid, s in ways.items()])
             for idx, ways in array._sets.items()],
            sorted(array._disabled), array.sector_allocations,
            array.sector_evictions, array.reads, array.writes)


# One run: (start, step, length). Steps cover a sector at a time (1),
# strides within a sector (2, 16), one line per 4 KB region (64), odd
# strides that straddle sectors, and a descending run.
_run = st.tuples(st.integers(0, 400),
                 st.sampled_from([1, 1, 2, 3, 5, 16, 63, 64, 65, -1]),
                 st.integers(0, 150))


@st.composite
def _warm_sets(draw):
    warm_sets = []
    for runs in draw(st.lists(st.lists(_run, max_size=4), min_size=1,
                              max_size=3)):
        ranges = tuple(
            range(start + length, start, -1) if step < 0
            else range(start, start + step * length, step)
            for start, step, length in runs)
        flags = draw(st.binary(min_size=sum(map(len, ranges)),
                               max_size=sum(map(len, ranges))))
        warm_sets.append(WarmSet(ranges, bytes(b & 1 for b in flags)))
    return warm_sets


# Pre-population ops applied to both arrays before the warm install.
_prep = st.lists(st.tuples(st.sampled_from(["fill", "dirty", "read",
                                            "write"]),
                           st.integers(0, 1200)), max_size=20)


def _prepare(array, ops, disabled):
    for op, line in ops:
        if isinstance(array, AlloyCacheArray):
            if op in ("fill", "dirty"):
                array.fill(line, dirty=op == "dirty")
            else:
                getattr(array, op)(line)
        elif op in ("fill", "dirty"):
            _install_per_line(array, line, op == "dirty")
        else:
            getattr(array, op)(line)
    for index in disabled:
        if not isinstance(array, AlloyCacheArray):
            array.disable_set(index % array.num_sets)


@given(kind=st.sampled_from(["alloy", 1, 3, 16, 64]),
       sets_and_ways=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       prep=_prep, disabled=st.lists(st.integers(0, 2), max_size=2),
       warm_sets=_warm_sets())
# A dirty run crossing an unaligned 3-block sector boundary, then a
# clean refill of the same lines (the dirty bits must survive).
@example(kind=3, sets_and_ways=(1, 1), prep=[], disabled=[],
         warm_sets=[WarmSet((range(2, 7),), b"\1\0\1\1\1"),
                    WarmSet((range(4, 6),), b"\0\0")])
# Alloy: a step-1 run that wraps around the three sets twice, so it
# evicts its own first lines, over a pre-filled set.
@example(kind="alloy", sets_and_ways=(3, 1), prep=[("dirty", 7)],
         disabled=[], warm_sets=[WarmSet((range(4, 12),),
                                         b"\1\0\0\1\1\0\1\0")])
# Alloy: same-line refills, dirty over clean and clean over dirty, by a
# later run and by a later warm set, inside a wrapping run.
@example(kind="alloy", sets_and_ways=(3, 1), prep=[("fill", 5)],
         disabled=[], warm_sets=[WarmSet((range(3, 6), range(4, 8)),
                                         b"\1\0\1\0\1\0\0"),
                                 WarmSet((range(2, 6),), b"\0\1\0\0")])
@settings(max_examples=300, deadline=None)
def test_warm_set_install_matches_per_pair_install(kind, sets_and_ways, prep,
                                                    disabled, warm_sets):
    num_sets, assoc = sets_and_ways

    def make():
        if kind == "alloy":
            return AlloyCacheArray("alloy", capacity_bytes=num_sets * 64)
        return SectoredCacheArray("warm", num_sets * assoc * kind * 64,
                                  assoc=assoc, sector_bytes=kind * 64)

    columnar, reference = make(), make()
    for array in (columnar, reference):
        _prepare(array, prep, disabled)
    assert columnar.warm_many(iter(warm_sets)) == \
        sum(map(len, warm_sets))
    _reference_install(reference, warm_sets)
    assert _full_state(columnar) == _full_state(reference)


@pytest.mark.parametrize("prefill", ["none", "other-tag", "same-tag"])
def test_alloy_bulk_install_crosses_chunks_and_wraps(prefill):
    # A run over 2.6 times the sets, which are more than three bulk
    # chunks: it crosses chunk boundaries, wraps twice and partly refills
    # lines a prior fill left (a refill takes the per-line path).
    num_sets = 3 * 4096 + 5
    start = core_base_line(7) + 11
    run = range(start, start + int(2.6 * num_sets))
    flags = bytes(random.Random(7).random() < 0.4 for _ in run)
    bulk, per_line = (AlloyCacheArray("alloy", capacity_bytes=num_sets * 64)
                      for _ in range(2))
    for array in (bulk, per_line):
        for line in range(start + 4000, start + 4300):
            if prefill == "other-tag":
                array.fill(line + num_sets * 5, dirty=line % 3 == 0)
            elif prefill == "same-tag":
                array.fill(line, dirty=line % 3 == 0)
    assert bulk.warm_many([WarmSet((run,), flags)]) == len(run)
    for line, dirty in zip(run, flags):
        per_line.fill(line, dirty=bool(dirty))
    assert bulk._sets == per_line._sets
    assert bulk.evictions == per_line.evictions > 0


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmRSS from /proc/self/status")
def test_a_paper_scale_alloy_array_costs_only_the_pages_it_touches():
    def vm_rss_kib():
        with open("/proc/self/status") as status:
            for row in status:
                if row.startswith("VmRSS:"):
                    return int(row.split()[1])

    before = vm_rss_kib()
    array = AlloyCacheArray("alloy", capacity_bytes=4 << 30)  # 64 Mi sets
    array.fill(core_base_line(7), dirty=True)
    array.warm_many([WarmSet((range(0, 4096),), bytes(4096))])
    assert array.num_sets == 64 << 20
    assert array.probe(core_base_line(7)) and array.probe(4095)
    assert vm_rss_kib() - before < 8 * 1024


def _per_line_warm_lines(profile, base_line=0, scale=1.0, seed=0):
    """The per-line warm-set generator ``warm_lines`` replaced, kept as
    the reference for its draws."""
    rng = random.Random(_seed_for(profile, seed) ^ 0x5A5A5A5A)
    regions = _layout(profile, scale)
    wf = profile.write_fraction
    rand = rng.random
    if profile.mix.stream > 0:
        for line in range(base_line, base_line + regions.stream_lines):
            yield line, rand() < wf
    if profile.mix.hot > 0:
        for line in range(base_line + regions.hot_base,
                          base_line + regions.hot_base + regions.hot_lines):
            yield line, rand() < wf
    sparse_start = base_line + regions.sparse_base
    for region in range(regions.sparse_regions):
        yield sparse_start + region * SECTOR_LINES, rand() < wf


@pytest.mark.parametrize("scale", [SMOKE, SMALL], ids=lambda s: s.name)
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_warm_lines_draws_match_the_per_line_generator(name, seed, scale):
    kwargs = dict(base_line=core_base_line(seed),
                  scale=scale.footprint_scale, seed=seed)
    warm_set = warm_lines(PROFILES[name], **kwargs)
    expected = list(_per_line_warm_lines(PROFILES[name], **kwargs))
    assert len(warm_set) == len(expected)
    assert list(warm_set) == expected
    assert all(type(dirty) is bool for _, dirty in warm_set)


def test_warm_set_rejects_a_flag_column_of_the_wrong_length():
    with pytest.raises(ValueError):
        WarmSet((range(0, 4), range(64, 128, 64)), b"\0" * 4)


# ----------------------------------------------------------------------
# (d) Packed trace columns
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
