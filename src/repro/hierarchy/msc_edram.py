"""Sectored eDRAM cache controller (Sections IV-C, VI-C).

All tags on die (8-cycle SRAM lookup), 1 KB sectors, 16-way, and —
the distinguishing feature — *independent* read and write channel sets,
each 51.2 GB/s. Fills ride the write channels, so read misses do not
steal read bandwidth (the source of Fig. 1's eDRAM curve).

DAP techniques here are FWB, WB and IFRM, dispatched by which channel
set is oversubscribed (Equations 9-12); SFRM is pointless because there
is no in-DRAM metadata to wait for.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.sectored import SectoredCacheArray, SectorProbe
from repro.engine.event_queue import Simulator
from repro.mem.device import MemoryDevice
from repro.mem.request import AccessKind, Request
from repro.hierarchy.msc_base import MscController, ReadCallback
from repro.policies.base import SteeringPolicy
from repro.workloads.columns import WarmSet

EDRAM_TAG_LATENCY = 8  # on-die SRAM metadata lookup, CPU cycles at 4 GHz


class EdramMscController(MscController):
    """Controller for the sectored eDRAM cache (three bandwidth sources)."""

    def __init__(
        self,
        sim: Simulator,
        cache_read_dev: MemoryDevice,
        cache_write_dev: MemoryDevice,
        mm_dev: MemoryDevice,
        array: SectoredCacheArray,
        policy: Optional[SteeringPolicy] = None,
        tag_latency: int = EDRAM_TAG_LATENCY,
    ) -> None:
        # The read channels act as `cache_dev` for base-class services.
        super().__init__(sim, cache_read_dev, mm_dev, policy)
        self.cache_read_dev = cache_read_dev
        self.cache_write_dev = cache_write_dev
        self.array = array
        self.tag_latency = tag_latency
        self.served_hits = 0
        self.served_misses = 0

    # ------------------------------------------------------------------
    def warm_line(self, line: int, dirty: bool = False) -> None:
        """Install a block without generating DRAM traffic (warmup)."""
        self.array.warm_many((WarmSet((range(line, line + 1),),
                                      bytes((dirty,))),))

    def warm_many(self, warm_sets) -> int:
        """Install the warm sets a sector at a time
        (:meth:`SectoredCacheArray.warm_many`)."""
        return self.array.warm_many(warm_sets)

    # ------------------------------------------------------------------
    # Demand read
    # ------------------------------------------------------------------
    def read(self, line: int, core_id: int, callback: ReadCallback,
             kind: AccessKind = AccessKind.DEMAND_READ) -> None:
        now = self.sim.now
        self.policy.tick(now)
        self.policy.on_read(now, line, core_id)
        self.stats.reads += 1
        self.sim.schedule(self.tag_latency,
                          lambda: self._read_resolved(line, core_id, callback, now))

    def _read_resolved(self, line: int, core_id: int, callback: ReadCallback,
                       issue: int) -> None:
        now = self.sim.now
        probe = self.array.read(line)
        if probe is SectorProbe.HIT:
            dirty = self.array.is_block_dirty(line)
            self.policy.note_ms_read()
            if not dirty:
                self.policy.note_clean_hit()
            if not dirty and self.policy.force_read_miss(now, line, core_id):
                self.stats.ifrm_applied += 1
                self.served_misses += 1
                device = self.mm_dev
            else:
                self.served_hits += 1
                device = self.cache_read_dev
            device.enqueue(
                Request(line=line, kind=AccessKind.DEMAND_READ, core_id=core_id,
                        on_complete=lambda r, t: self._finish_read(issue, t, callback))
            )
            return

        # Read miss.
        self.served_misses += 1
        self.policy.note_read_miss()
        self.policy.note_mm_access()
        self.policy.note_ms_write()  # the anticipated fill on write channels
        self.mm_dev.enqueue(
            Request(line=line, kind=AccessKind.DEMAND_READ, core_id=core_id,
                    on_complete=lambda r, t: self._miss_data(line, issue, t, callback))
        )

    def _miss_data(self, line: int, issue: int, finish: int,
                   callback: ReadCallback) -> None:
        self._finish_read(issue, finish, callback)
        now = self.sim.now
        if self.policy.bypass_fill(now, line):
            self.stats.fwb_applied += 1
            return
        self._install_block(line, dirty=False)

    # ------------------------------------------------------------------
    # Demand write (dirty L3 eviction)
    # ------------------------------------------------------------------
    def write(self, line: int, core_id: int) -> None:
        now = self.sim.now
        self.policy.tick(now)
        self.policy.on_write(now, line)
        self.stats.writes += 1
        self.sim.schedule(self.tag_latency, lambda: self._write_resolved(line))

    def _write_resolved(self, line: int) -> None:
        now = self.sim.now
        self.policy.note_write()
        self.policy.note_ms_write()
        if self.policy.bypass_write(now, line):
            self.stats.wb_applied += 1
            self.served_misses += 1
            if self.array.probe(line) is SectorProbe.HIT:
                self.array.invalidate_block(line)
            self.mm_dev.enqueue(Request(line=line, kind=AccessKind.WRITEBACK))
            return
        if self.array.probe(line) is SectorProbe.HIT:
            self.served_hits += 1
        else:
            self.served_misses += 1
        self._install_block(line, dirty=True)

    # ------------------------------------------------------------------
    # Fills / allocation (write channels)
    # ------------------------------------------------------------------
    def _install_block(self, line: int, dirty: bool) -> None:
        if not self.array.sector_present(line):
            eviction = self.array.allocate_sector(line)
            if eviction is not None:
                for _ in eviction.dirty_lines:
                    self.policy.note_ms_read()   # victim data read
                    self.policy.note_mm_access()  # writeback
                self.writeback_lines(eviction.dirty_lines)
        if not self.array.sector_present(line):
            if dirty:
                self.mm_dev.enqueue(Request(line=line, kind=AccessKind.WRITEBACK))
            return
        if dirty:
            self.array.write(line)
            kind = AccessKind.L4_WRITE
        else:
            self.array.fill_block(line)
            kind = AccessKind.FILL_WRITE
        self.cache_write_dev.enqueue(Request(line=line, kind=kind))

    # ------------------------------------------------------------------
    # Overrides: three bandwidth sources
    # ------------------------------------------------------------------
    def mm_cas_fraction(self) -> float:
        mm = self.mm_dev.total_cas()
        cache = self.cache_read_dev.total_cas() + self.cache_write_dev.total_cas()
        total = mm + cache
        return mm / total if total else 0.0

    def served_hit_rate(self) -> float:
        """Hit rate as delivered (forced misses count as misses)."""
        total = self.served_hits + self.served_misses
        return self.served_hits / total if total else 0.0
