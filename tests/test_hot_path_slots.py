"""Lint: hot-path classes must stay slotted.

Per-event and per-line objects are allocated millions of times per run;
``__slots__`` removes the per-instance ``__dict__`` (smaller objects,
faster attribute access) and is part of the simulator's performance
contract (see PERFORMANCE.md). This test pins the contract so a
refactor can't silently reintroduce dict-backed instances — adding an
attribute to one of these classes means adding it to ``__slots__``.
"""

import pytest

from repro.backends.base import SimBackend, TraceStore
from repro.cache.replacement import LRUPolicy, NRUPolicy
from repro.cache.sectored import SectoredCacheArray, _Sector
from repro.cache.sram_cache import Eviction, SRAMCache, _Line
from repro.engine.event_queue import Simulator
from repro.hierarchy.cpu_core import TraceCore
from repro.mem.channel import ChannelStats, DramChannel, _Bank
from repro.mem.request import Request
from repro.workloads.columns import PackedTrace, WarmSet

HOT_PATH_CLASSES = [
    Simulator,
    Request,
    _Bank,
    ChannelStats,
    DramChannel,
    TraceCore,
    SRAMCache,
    _Line,
    Eviction,
    SectoredCacheArray,
    _Sector,
    LRUPolicy,
    NRUPolicy,
    # Trace materialization: one store per invocation, one front.
    TraceStore,
    SimBackend,
    PackedTrace,
    # Warmup: one warm set per core per cell.
    WarmSet,
]


@pytest.mark.parametrize("cls", HOT_PATH_CLASSES,
                         ids=lambda c: f"{c.__module__}.{c.__name__}")
def test_declares_slots_and_has_no_instance_dict(cls):
    # The class itself must declare __slots__ (not merely inherit it) …
    assert "__slots__" in vars(cls), f"{cls.__name__} must declare __slots__"
    # … and the whole MRO must be slotted, otherwise instances silently
    # grow a __dict__ anyway and the declaration is decorative.
    for base in cls.__mro__[:-1]:  # skip object
        assert "__dict__" not in (base.__dict__.get("__slots__") or ()), (
            f"{cls.__name__}: base {base.__name__} slots include __dict__")
        assert "__slots__" in vars(base), (
            f"{cls.__name__}: unslotted base {base.__name__} "
            f"reintroduces a per-instance __dict__")
    assert not hasattr(cls, "__dictoffset__") or cls.__dictoffset__ == 0, (
        f"{cls.__name__} instances carry a __dict__")


def test_trace_core_reads_columns_by_cursor():
    # The core reads the current chunk's columns by an int cursor and
    # binds its wake-up callback once; it keeps no trace iterator, no
    # pending tuple and no per-reference load/store counters.
    slots = set(TraceCore.__slots__)
    assert {"_chunks", "_gaps", "_writes", "_lines", "_pos",
            "_wake"} <= slots
    assert not slots & {"_trace", "_pending", "_exhausted", "loads",
                        "stores"}
