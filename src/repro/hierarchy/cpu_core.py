"""Trace-driven core with ROB-window and MSHR-limited memory parallelism.

The core consumes a trace of ``(gap, is_write, line)`` references —
``gap`` non-memory instructions followed by one memory instruction to
64-byte line ``line``. Dispatch is in order at ``width``
instructions/cycle; memory-level parallelism is bounded by two
structural limits, which are what matter for a bandwidth study:

- **ROB window**: instruction ``i`` cannot dispatch until the load at
  ``i - rob_entries`` has completed (a stalled load at the ROB head
  eventually blocks the front end);
- **MSHRs**: at most ``mshrs`` L3 misses (loads or store RFOs) may be
  outstanding.

Loads that hit in SRAM complete at a known small latency; L3 misses
complete when the memory-side subsystem delivers the line. The paper's
methodology scales core buffers so streaming kernels can demand the
combined cache+memory bandwidth; tests assert our model does the same.

``_run`` executes once per wake-up across every core, making it the
single hottest Python frame in a simulation, and most wake-ups dispatch
about one reference before the width limit puts the core back to
sleep. So it allocates nothing per reference and little per wake-up:

- the trace is read as packed columns (:mod:`repro.workloads.columns`)
  by an integer cursor; a tuple iterable is packed a chunk at a time as
  the cursor reaches the end of the previous chunk;
- only an L3 miss builds a fill record and callback; an SRAM hit
  queues a plain ``(instr_idx, done_cycle)`` pair;
- the wake-up callback is bound once, and the width-limited self-wake
  is pushed inline, where the core is known to be running and no other
  wake to be queued; the woken core dispatches the reference it slept
  on without re-checking the ROB window and MSHRs it already passed.

The hierarchy never invokes fill callbacks synchronously from
``_access``/``_request_line`` (misses complete via later simulator
events), so the cached locals cannot go stale within one activation.
Every wake-up is a real event: a wake's sequence number comes from the
core's previous wake, and same-cycle order among the cores' wakes
decides the shared L3's and the memory side's interleaving.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappush as _heappush
from typing import Iterable, Optional

from repro.engine.event_queue import Simulator
from repro.hierarchy.cache_hierarchy import CacheHierarchy
from repro.workloads.columns import column_chunks

TraceEntry = tuple[int, bool, int]  # (gap instructions, is_write, line)

_ceil = math.ceil


class TraceCore:
    """One simulated core executing a memory-instruction trace."""

    __slots__ = (
        "sim",
        "core_id",
        "hierarchy",
        "rob_entries",
        "width",
        "mshrs",
        "_chunks",
        "_gaps",
        "_writes",
        "_lines",
        "_pos",
        "_refs_before",
        "_stores_before",
        "_wake",
        "_resume",
        "_sram_access",
        "instr_count",
        "_vtime",
        "_inv_width",
        "_outstanding",
        "_misses_inflight",
        "_wake_scheduled",
        "done",
        "finish_cycle",
        "l3_miss_loads",
    )

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        trace: Iterable[TraceEntry],
        hierarchy: CacheHierarchy,
        rob_entries: int = 224,
        width: int = 4,
        mshrs: int = 16,
    ) -> None:
        self.sim = sim
        self.core_id = core_id
        self.hierarchy = hierarchy
        self.rob_entries = rob_entries
        self.width = width
        self.mshrs = mshrs

        # The cursor: position ``_pos`` in the current chunk's columns;
        # the counts of earlier chunks back ``loads``/``stores``.
        self._chunks = column_chunks(trace)
        self._gaps = self._lines = ()
        self._writes = b""
        self._pos = 0
        self._refs_before = self._stores_before = 0
        # Bound once: a wake-up and an SRAM access allocate no method.
        self._wake = self._run
        self._resume = False
        self._sram_access = hierarchy._access

        self.instr_count = 0
        self._vtime = 0.0                 # width-limited dispatch clock
        self._inv_width = 1.0 / width
        # In-flight loads in FIFO order: ``(instr_idx, done_cycle)`` for
        # an SRAM hit, ``[instr_idx, None]`` until an L3 miss fills.
        self._outstanding: deque = deque()
        self._misses_inflight = 0
        self._wake_scheduled = False
        self.done = False
        self.finish_cycle: Optional[int] = None
        self.l3_miss_loads = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._wake_scheduled = True
        self.sim.at(self.sim.now, self._wake)

    @property
    def ipc(self) -> float:
        if not self.finish_cycle:
            return 0.0
        return self.instr_count / self.finish_cycle

    @property
    def stores(self) -> int:
        """Stores dispatched so far."""
        return self._stores_before + self._writes.count(1, 0, self._pos)

    @property
    def loads(self) -> int:
        """Loads dispatched so far."""
        return self._refs_before + self._pos - self.stores

    def _next_chunk(self) -> bool:
        """Move the cursor to the start of the next non-empty chunk;
        False, leaving it at the end of the last one, once the trace is
        exhausted."""
        for chunk in self._chunks:
            if len(chunk):
                self._refs_before += self._pos
                self._stores_before += self._writes.count(1, 0, self._pos)
                self._gaps, self._writes, self._lines = (
                    chunk.gaps, chunk.writes, chunk.lines)
                self._pos = 0
                return True
        return False

    # ------------------------------------------------------------------
    def _run(self) -> None:
        # ``_wake_scheduled`` is True on entry: every activation was
        # queued by start(), a self-wake or _schedule_wake. It stays True
        # through a self-wake exit and is cleared on every stall exit,
        # where only a fill callback can wake the core again.
        if self.done:
            return
        sim = self.sim
        now = sim.now
        # Loop state bound to locals; flushed back on every exit path.
        gaps = self._gaps
        pos = self._pos
        outstanding = self._outstanding
        rob_entries = self.rob_entries
        width = self.width
        # _access is the load/store wrappers' SRAM walk; calling it
        # directly saves one frame per memory instruction.
        h_access = self._sram_access
        instr_count = self.instr_count
        vtime = self._vtime
        # True only in a self-wake: the pending reference already passed
        # the ROB-window and MSHR checks, which nothing can undo before
        # the wake (fills only complete misses), and its cycle has come.
        resume = self._resume
        try:
            while True:
                try:
                    gap = gaps[pos]
                except IndexError:
                    self._pos = pos
                    if not self._next_chunk():
                        self._wake_scheduled = self._resume = False
                        # Flush first: _maybe_finish reads _vtime.
                        self.instr_count = instr_count
                        self._vtime = vtime
                        self._maybe_finish(now)
                        return
                    gaps = self._gaps
                    pos = 0
                    gap = gaps[0]
                idx = instr_count + gap
                t = vtime + gap / width

                if resume:
                    resume = False
                else:
                    # ROB window: retire (or stall on) loads leaving it.
                    window_floor = idx - rob_entries
                    while outstanding:
                        head = outstanding[0]
                        if head[0] > window_floor:
                            break
                        head_done = head[1]
                        if head_done is None:
                            # The miss's fill callback wakes us.
                            self._wake_scheduled = self._resume = False
                            return
                        if head_done > t:
                            t = head_done
                        outstanding.popleft()

                    # MSHR limit: wait for any completion.
                    if self._misses_inflight >= self.mshrs:
                        self._wake_scheduled = self._resume = False
                        return

                    if t > now:
                        # Self-wake at the dispatch cycle: Simulator.at's
                        # push, inlined. The core is not done and no
                        # other wake is queued (fills never run
                        # synchronously).
                        self._resume = True
                        seq = sim._seq
                        sim._seq = seq + 1
                        _heappush(sim._queue, (_ceil(t), seq, self._wake))
                        return

                # Dispatch the memory instruction now.
                instr_count = idx + 1
                vtime = (t if t > vtime else vtime) + self._inv_width
                line = self._lines[pos]
                if self._writes[pos]:
                    pos += 1
                    if h_access(self.core_id, line, True) is None:
                        self.hierarchy._request_line(
                            self.core_id, line, True, self._store_fill)
                        self._misses_inflight += 1
                else:
                    pos += 1
                    lat = h_access(self.core_id, line, False)
                    if lat is None:
                        record = [idx, None]
                        self.hierarchy._request_line(
                            self.core_id, line, False,
                            lambda finish, rec=record, fill=self._load_fill:
                                fill(rec, finish))
                        self.l3_miss_loads += 1
                        self._misses_inflight += 1
                        outstanding.append(record)
                    else:
                        outstanding.append((idx, now + lat))
        finally:
            self._pos = pos
            self.instr_count = instr_count
            self._vtime = vtime

    # ------------------------------------------------------------------
    def _load_fill(self, record: list, finish: int) -> None:
        record[1] = finish
        self._misses_inflight -= 1
        self._schedule_wake(self.sim.now)

    def _store_fill(self, finish: int) -> None:
        self._misses_inflight -= 1
        self._schedule_wake(self.sim.now)

    def _schedule_wake(self, when: int) -> None:
        if self._wake_scheduled or self.done:
            return
        self._wake_scheduled = True
        sim = self.sim
        now = sim.now
        seq = sim._seq
        sim._seq = seq + 1
        _heappush(sim._queue, (when if when > now else now, seq, self._wake))

    # ------------------------------------------------------------------
    def _maybe_finish(self, now: int) -> None:
        if any(rec[1] is None for rec in self._outstanding):
            return  # fills pending; their callbacks wake us
        if self._misses_inflight > 0:
            return  # store RFOs pending
        last_done = max((rec[1] for rec in self._outstanding), default=0)
        self._outstanding.clear()
        self.done = True
        self.finish_cycle = max(now, math.ceil(self._vtime), last_done, 1)
        # No wake-up follows: drop the bound-method self-reference, so a
        # finished system is freed by reference counting, not by the
        # cyclic collector.
        self._wake = None
