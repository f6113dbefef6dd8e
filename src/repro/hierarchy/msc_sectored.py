"""Sectored DRAM cache controller (Sections II, IV-A, VI-A).

Die-stacked HBM cache with 4 KB sectors, 4-way sets, NRU state in SRAM,
sector metadata (valid/dirty masks, tags) in the DRAM array. The
optimized baseline adds a 32K-entry SRAM tag cache so most accesses skip
the in-DRAM metadata read; DAP adds FWB/WB/IFRM/SFRM on top.

Traffic generated per event:

==========================  =========================================
Event                       DRAM accesses
==========================  =========================================
read hit                    1 cache data read (or 1 MM read if IFRM)
read miss                   1 MM read + 1 cache fill write (unless FWB)
tag-cache miss              1 cache metadata read (+1 MM read if SFRM)
dirty tag-cache eviction    1 cache metadata write
L3 dirty eviction           1 cache write (or 1 MM write if WB)
sector eviction             per dirty block: 1 cache read + 1 MM write
footprint prefetch          per block: 1 MM read + 1 cache fill write
==========================  =========================================
"""

from __future__ import annotations

from typing import Optional

from repro.cache.footprint import FootprintPredictor
from repro.cache.sectored import SectoredCacheArray, SectorProbe
from repro.cache.tag_cache import TagCache
from repro.engine.event_queue import Simulator
from repro.mem.device import MemoryDevice
from repro.mem.request import AccessKind, Request
from repro.hierarchy.msc_base import MscController, ReadCallback
from repro.policies.base import SteeringPolicy
from repro.workloads.columns import WarmSet


class _SfrmRace:
    """Tracks an in-flight SFRM: a speculative MM read racing the
    in-DRAM metadata fetch."""

    __slots__ = ("issued", "mm_finish", "resolved", "use_mm", "delivered")

    def __init__(self) -> None:
        self.issued = False
        self.mm_finish: Optional[int] = None
        self.resolved = False
        self.use_mm = False
        self.delivered = False


class SectoredMscController(MscController):
    """Controller for the sectored (sub-blocked) DRAM cache."""

    def __init__(
        self,
        sim: Simulator,
        cache_dev: MemoryDevice,
        mm_dev: MemoryDevice,
        array: SectoredCacheArray,
        policy: Optional[SteeringPolicy] = None,
        tag_cache: Optional[TagCache] = None,
        footprint: Optional[FootprintPredictor] = None,
    ) -> None:
        super().__init__(sim, cache_dev, mm_dev, policy)
        self.array = array
        self.tag_cache = tag_cache
        self.footprint = footprint
        self.served_hits = 0
        self.served_misses = 0
        # In-flight metadata fetches, merged per sector (MSHR-style):
        # sector id -> continuations to run once the metadata arrives.
        self._meta_waiters: dict[int, list] = {}

    # ------------------------------------------------------------------
    def warm_line(self, line: int, dirty: bool = False) -> None:
        """Install a block without generating DRAM traffic (warmup)."""
        self.array.warm_many((WarmSet((range(line, line + 1),),
                                      bytes((dirty,))),))

    def warm_many(self, warm_sets) -> int:
        """Install the warm sets a sector at a time
        (:meth:`SectoredCacheArray.warm_many`)."""
        return self.array.warm_many(warm_sets)

    def _resolve(self, line: int):
        """One-scan (sector, bit, probe, dirty) resolution for ``line``."""
        array = self.array
        sector = array.find_sector(line)
        bit = 1 << (line % array.blocks_per_sector)
        if sector is None:
            return None, bit, SectorProbe.SECTOR_MISS, False
        if sector.valid & bit:
            return sector, bit, SectorProbe.HIT, bool(sector.dirty & bit)
        return sector, bit, SectorProbe.BLOCK_MISS, False

    # ------------------------------------------------------------------
    # Demand read (L3 miss)
    # ------------------------------------------------------------------
    def read(self, line: int, core_id: int, callback: ReadCallback,
             kind: AccessKind = AccessKind.DEMAND_READ) -> None:
        now = self.sim.now
        self.policy.tick(now)
        self.policy.on_read(now, line, core_id)
        self.stats.reads += 1
        sector = self.array.sector_of(line)

        if self.tag_cache is None:
            # No tag cache: every access pays an in-DRAM metadata read.
            self._fetch_metadata_then_read(line, core_id, callback, now)
            return

        if self.tag_cache.lookup(sector):
            delay = self.tag_cache.lookup_cycles
            self.sim.schedule(
                delay, lambda: self._read_resolved(line, core_id, callback, now)
            )
        else:
            self._fetch_metadata_then_read(line, core_id, callback, now)

    def _fetch_metadata_then_read(
        self, line: int, core_id: int, callback: ReadCallback, issue: int
    ) -> None:
        """Tag-cache miss path: metadata read, optionally raced by SFRM.

        Concurrent accesses to a sector whose metadata fetch is already
        in flight merge onto it rather than issuing more reads.
        """
        now = self.sim.now
        sector = self.array.sector_of(line)
        waiters = self._meta_waiters.get(sector)
        if waiters is not None:
            waiters.append(
                lambda: self._read_resolved(line, core_id, callback, issue)
            )
            return
        self._meta_waiters[sector] = []
        race = _SfrmRace()
        if self.policy.speculative_read(now, line):
            race.issued = True
            self.stats.sfrm_issued += 1
            self.mm_dev.enqueue(
                Request(
                    line=line,
                    kind=AccessKind.SPEC_READ,
                    core_id=core_id,
                    on_complete=lambda r, t: self._sfrm_mm_done(
                        race, issue, t, callback
                    ),
                )
            )
        self.stats.meta_reads += 1
        self.policy.note_ms_access()  # metadata fetch is MS$ demand
        self.cache_dev.enqueue(
            Request(
                line=line,
                kind=AccessKind.META_READ,
                core_id=core_id,
                on_complete=lambda r, t: self._metadata_arrived(
                    line, core_id, callback, issue, race
                ),
            )
        )

    def _sfrm_mm_done(
        self, race: _SfrmRace, issue: int, finish: int, callback: ReadCallback
    ) -> None:
        race.mm_finish = finish
        if race.resolved and race.use_mm and not race.delivered:
            race.delivered = True
            self._finish_read(issue, finish, callback)

    def _metadata_arrived(
        self, line: int, core_id: int, callback: ReadCallback, issue: int,
        race: _SfrmRace,
    ) -> None:
        if self.tag_cache is not None:
            evicted_dirty = self.tag_cache.fill(self.array.sector_of(line))
            if evicted_dirty:
                self._write_metadata(line)
        self._release_meta_waiters(line)
        sfrm_active = race.issued
        sector, bit, probe, dirty_hit = self._resolve(line)

        if sfrm_active and not dirty_hit:
            # Clean hit or miss: the speculative MM response is the data.
            race.resolved = True
            race.use_mm = True
            self.served_misses += 1  # served by MM: a forced miss
            self._account_read_demand(sector, bit, probe, dirty_hit)
            if probe is not SectorProbe.HIT:
                self._handle_fill(line, probe)
            if race.mm_finish is not None and not race.delivered:
                race.delivered = True
                self._finish_read(issue, race.mm_finish, callback)
            return
        if sfrm_active and dirty_hit:
            # Speculation wasted: serve from the cache, drop the MM data.
            race.resolved = True
            race.use_mm = False
            self.stats.sfrm_wasted += 1
        self._read_resolved(line, core_id, callback, issue)

    # ------------------------------------------------------------------
    def _account_read_demand(self, sector, bit: int, probe: SectorProbe,
                             dirty: bool) -> None:
        """Record pre-decision demand and update functional state."""
        self.array.read_resolved(sector, bit)
        if probe is SectorProbe.HIT:
            self.policy.note_ms_access()  # the hit's data read
            if not dirty:
                self.policy.note_clean_hit()
        else:
            self.policy.note_read_miss()
            self.policy.note_mm_access()  # the miss read
            self.policy.note_ms_access()  # the anticipated fill write

    def _read_resolved(
        self, line: int, core_id: int, callback: ReadCallback, issue: int
    ) -> None:
        """Tag state is known: serve the read."""
        now = self.sim.now
        sector, bit, probe, dirty = self._resolve(line)
        self._account_read_demand(sector, bit, probe, dirty)

        if probe is SectorProbe.HIT:
            steer = not dirty and (
                self.policy.force_read_miss(now, line, core_id)
                or self.policy.steer_clean_read(now, line)
            )
            if steer:
                self.stats.ifrm_applied += 1
                self.served_misses += 1
                device = self.mm_dev
            else:
                self.served_hits += 1
                device = self.cache_dev
            device.enqueue(
                Request(
                    line=line,
                    kind=AccessKind.DEMAND_READ,
                    core_id=core_id,
                    on_complete=lambda r, t: self._finish_read(issue, t, callback),
                )
            )
            return

        # Read miss: fetch from main memory, then fill (or bypass).
        self.served_misses += 1
        self.mm_dev.enqueue(
            Request(
                line=line,
                kind=AccessKind.DEMAND_READ,
                core_id=core_id,
                on_complete=lambda r, t: self._miss_data_arrived(
                    line, probe, issue, t, callback
                ),
            )
        )

    def _miss_data_arrived(
        self, line: int, probe: SectorProbe, issue: int, finish: int,
        callback: ReadCallback,
    ) -> None:
        self._finish_read(issue, finish, callback)
        self._handle_fill(line, probe)

    def _handle_fill(self, line: int, probe: SectorProbe) -> None:
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
        sector = self.array.sector_of(line)

        if self.tag_cache is not None and not self.tag_cache.lookup(sector):
            waiters = self._meta_waiters.get(sector)
            if waiters is not None:
                waiters.append(lambda: self._write_resolved(line))
                return
            self._meta_waiters[sector] = []
            self.stats.meta_reads += 1
            self.policy.note_ms_access()
            self.cache_dev.enqueue(
                Request(
                    line=line,
                    kind=AccessKind.META_READ,
                    core_id=core_id,
                    on_complete=lambda r, t: self._write_meta_arrived(line),
                )
            )
            return
        self._write_resolved(line)

    def _write_meta_arrived(self, line: int) -> None:
        if self.tag_cache is not None:
            evicted_dirty = self.tag_cache.fill(self.array.sector_of(line))
            if evicted_dirty:
                self._write_metadata(line)
        self._release_meta_waiters(line)
        self._write_resolved(line)

    def _release_meta_waiters(self, line: int) -> None:
        for continuation in self._meta_waiters.pop(self.array.sector_of(line), []):
            continuation()

    def _write_resolved(self, line: int) -> None:
        now = self.sim.now
        if self.tag_cache is not None:
            evicted_dirty = self.tag_cache.fill(self.array.sector_of(line))
            if evicted_dirty:
                self._write_metadata(line)
        self.policy.note_write()
        self.policy.note_ms_access()  # the write demand on the MS$
        sector, bit, probe, _dirty = self._resolve(line)

        if self.policy.bypass_write(now, line):
            self.stats.wb_applied += 1
            self.served_misses += 1
            if probe is SectorProbe.HIT:
                sector.valid &= ~bit
                sector.dirty &= ~bit
                self._mark_meta_dirty(line)
            self.mm_dev.enqueue(Request(line=line, kind=AccessKind.WRITEBACK))
            return

        if probe is SectorProbe.HIT:
            self.served_hits += 1
        else:
            self.served_misses += 1
        self._install_block(line, dirty=True, sector=sector, bit=bit)
        if self.policy.write_through(now, line):
            self.stats.write_throughs += 1
            self.array.clean_block(line)
            self.mm_dev.enqueue(Request(line=line, kind=AccessKind.WT_WRITE))

    # ------------------------------------------------------------------
    # Fills, allocation, eviction maintenance
    # ------------------------------------------------------------------
    def _install_block(self, line: int, dirty: bool,
                       sector=None, bit: Optional[int] = None) -> None:
        """Write a block into the cache, allocating its sector if needed.

        Callers that already resolved the sector (via :meth:`_resolve`)
        pass ``sector``/``bit`` to skip the repeat scan.
        """
        array = self.array
        if bit is None:
            bit = 1 << (line % array.blocks_per_sector)
            sector = array.find_sector(line)
        if sector is None:
            self._allocate_sector(line)
            sector = array.find_sector(line)
            if sector is None:
                # Allocation refused (disabled set, e.g. under BATMAN):
                # dirty data must still reach main memory; clean fills
                # are dropped.
                if dirty:
                    self.mm_dev.enqueue(
                        Request(line=line, kind=AccessKind.WRITEBACK))
                return
        if dirty:
            array.write_resolved(sector, bit)
            kind = AccessKind.L4_WRITE
        else:
            sector.valid |= bit
            kind = AccessKind.FILL_WRITE
        self._mark_meta_dirty(line)
        self.cache_dev.enqueue(Request(line=line, kind=kind))

    def _allocate_sector(self, line: int) -> None:
        eviction = self.array.allocate_sector(line)
        sector = self.array.sector_of(line)
        if eviction is not None:
            if self.footprint is not None:
                self.footprint.record(eviction.sector_id, eviction.touched_mask)
            if self.tag_cache is not None:
                self.tag_cache.invalidate(eviction.sector_id)
            # Victim's dirty blocks: cache reads + MM writebacks.
            for victim_line in eviction.dirty_lines:
                self.policy.note_ms_access()  # evict read demand
                self.policy.note_mm_access()  # writeback demand
            self.writeback_lines(eviction.dirty_lines)
        if self.footprint is not None:
            mask = self.footprint.predict(sector, self.array.block_of(line))
            if mask:
                self._prefetch_footprint(sector, mask)

    def _prefetch_footprint(self, sector: int, mask: int) -> None:
        base = sector * self.array.blocks_per_sector
        for block in range(self.array.blocks_per_sector):
            if not mask & (1 << block):
                continue
            pf_line = base + block
            self.stats.footprint_prefetches += 1
            self.policy.note_mm_access()
            self.policy.note_ms_access()
            self.mm_dev.enqueue(
                Request(
                    line=pf_line,
                    kind=AccessKind.FOOTPRINT_READ,
                    on_complete=lambda r, t: self._footprint_fill(r.line),
                )
            )

    def _footprint_fill(self, line: int) -> None:
        if self.array.fill_block(line):
            self._mark_meta_dirty(line)
            self.cache_dev.enqueue(Request(line=line, kind=AccessKind.FILL_WRITE))

    # ------------------------------------------------------------------
    # Metadata plumbing
    # ------------------------------------------------------------------
    def _mark_meta_dirty(self, line: int) -> None:
        """Sector state changed; with a tag cache the update is deferred
        to tag-cache eviction, otherwise it is written immediately."""
        if self.tag_cache is not None:
            self.tag_cache.mark_dirty(self.array.sector_of(line))
        else:
            self._write_metadata(line)

    def _write_metadata(self, line: int) -> None:
        self.stats.meta_writes += 1
        self.policy.note_ms_access()
        self.cache_dev.enqueue(Request(line=line, kind=AccessKind.META_WRITE))

    # ------------------------------------------------------------------
    def served_hit_rate(self) -> float:
        """Delivered hit rate: reads/writes served by the cache as a
        fraction of all demand; forced misses count as misses (Fig. 8)."""
        total = self.served_hits + self.served_misses
        return self.served_hits / total if total else 0.0
