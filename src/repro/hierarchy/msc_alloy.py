"""Alloy cache controller (Sections IV-B, VI-B).

Direct-mapped DRAM cache whose tag travels with the data (72-byte TAD,
three HBM channel cycles). Baseline features, following the paper's
optimized setup:

- a hit/miss predictor initiates miss handling (the MM read) in parallel
  with the TAD fetch;
- an L3 presence bit lets writes skip the TAD fetch entirely (a BEAR
  optimization the paper adopts);
- a dirty-bit cache (DBC) in one borrowed L3 way provides the
  clean/dirty state of a set without touching DRAM — the enabler for
  DAP's IFRM.

DAP adds IFRM (clean sets only) plus opportunistic write-through to keep
sets clean; BEAR adds dueling-based fill bypass via the policy hook.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.alloy import TAD_BURST_DEVICE_CYCLES, AlloyCacheArray
from repro.cache.dbc import DirtyBitCache
from repro.engine.event_queue import Simulator
from repro.mem.device import MemoryDevice
from repro.mem.request import AccessKind, Request
from repro.hierarchy.msc_base import MscController, ReadCallback
from repro.policies.base import SteeringPolicy


class AlloyHitPredictor:
    """Region-hashed 2-bit hit/miss predictor (stands in for the paper's
    program-counter-indexed predictor, which a trace without PCs cannot
    index)."""

    def __init__(self, entries: int = 4096) -> None:
        self.entries = entries
        self._counters = [2] * entries  # weakly predict hit
        self.correct = 0
        self.wrong = 0

    def _index(self, core_id: int, line: int) -> int:
        region = line >> 6  # 4 KB region
        return (region * 2654435761 + core_id * 97) % self.entries

    def predict_hit(self, core_id: int, line: int) -> bool:
        return self._counters[self._index(core_id, line)] >= 2

    def update(self, core_id: int, line: int, was_hit: bool) -> None:
        idx = self._index(core_id, line)
        predicted = self._counters[idx] >= 2
        if predicted == was_hit:
            self.correct += 1
        else:
            self.wrong += 1
        if was_hit:
            self._counters[idx] = min(3, self._counters[idx] + 1)
        else:
            self._counters[idx] = max(0, self._counters[idx] - 1)


class AlloyMscController(MscController):
    """Controller for the direct-mapped Alloy (TAD) cache."""

    def __init__(
        self,
        sim: Simulator,
        cache_dev: MemoryDevice,
        mm_dev: MemoryDevice,
        array: AlloyCacheArray,
        policy: Optional[SteeringPolicy] = None,
        dbc: Optional[DirtyBitCache] = None,
        predictor: Optional[AlloyHitPredictor] = None,
    ) -> None:
        super().__init__(sim, cache_dev, mm_dev, policy)
        self.array = array
        self.dbc = dbc
        self.predictor = predictor if predictor is not None else AlloyHitPredictor()
        self.served_hits = 0
        self.served_misses = 0

    # ------------------------------------------------------------------
    def _tad_request(self, line: int, kind: AccessKind, on_complete=None) -> Request:
        return Request(line=line, kind=kind, burst_override=TAD_BURST_DEVICE_CYCLES,
                       on_complete=on_complete)

    def _dbc_clean(self, line: int) -> bool:
        """True when the DBC *knows* the accessed set is clean."""
        if self.dbc is None:
            return False
        set_idx = self.array.set_index(line)
        result = self.dbc.lookup(set_idx)
        if result is None:
            # Install the group from array state (functional shortcut for
            # the hardware's gradual population).
            mask = 0
            group = self.dbc.group_of(set_idx)
            base = group * self.dbc.group_sets
            for offset in range(self.dbc.group_sets):
                if self.array.set_is_dirty(base + offset):
                    mask |= 1 << offset
            self.dbc.fill_group(set_idx, mask)
            return False
        return result is False

    # ------------------------------------------------------------------
    def warm_line(self, line: int, dirty: bool = False) -> None:
        """Install a block without generating DRAM traffic (warmup)."""
        self.array.fill(line, dirty=dirty)

    def warm_many(self, warm_sets) -> int:
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

        hit = self.array.read(line)
        # Demand accounting: every read costs a TAD fetch; misses add the
        # MM read and the anticipated fill write.
        self.policy.note_ms_access()
        if hit:
            if not self.array.is_dirty(line):
                self.policy.note_clean_hit()
        else:
            self.policy.note_read_miss()
            self.policy.note_mm_access()
            self.policy.note_ms_access()  # fill TAD write

        # IFRM: a DBC-known-clean set can be served by main memory with
        # no TAD fetch at all; an absent line doubles as a fill bypass.
        if self._dbc_clean(line) and self.policy.force_read_miss(now, line, core_id):
            self.stats.ifrm_applied += 1
            self.served_misses += 1
            if not hit:
                self.stats.fwb_applied += 1
            self.mm_dev.enqueue(
                Request(line=line, kind=AccessKind.DEMAND_READ, core_id=core_id,
                        on_complete=lambda r, t: self._finish_read(now, t, callback))
            )
            self.predictor.update(core_id, line, hit)
            return

        if hit:
            self.served_hits += 1
        else:
            self.served_misses += 1

        predicted_hit = self.predictor.predict_hit(core_id, line)
        self.predictor.update(core_id, line, hit)

        if hit:
            # TAD fetch returns the data.
            self.cache_dev.enqueue(
                self._tad_request(
                    line, AccessKind.TAD_READ,
                    on_complete=lambda r, t: self._finish_read(now, t, callback),
                )
            )
            if not predicted_hit:
                # Mispredicted miss: the speculative MM read was wasted.
                self.stats.sfrm_wasted += 1
                self.mm_dev.enqueue(Request(line=line, kind=AccessKind.SPEC_READ))
            return

        # Actual miss.
        if predicted_hit:
            # Serial: TAD fetch discovers the miss, then the MM read.
            self.cache_dev.enqueue(
                self._tad_request(
                    line, AccessKind.TAD_READ,
                    on_complete=lambda r, t: self._miss_after_tad(
                        line, core_id, now, callback
                    ),
                )
            )
        else:
            # Early miss handling: MM read in parallel with the TAD probe.
            self.cache_dev.enqueue(self._tad_request(line, AccessKind.TAD_READ))
            self.mm_dev.enqueue(
                Request(line=line, kind=AccessKind.DEMAND_READ, core_id=core_id,
                        on_complete=lambda r, t: self._miss_data(
                            line, now, t, callback
                        ))
            )

    def _miss_after_tad(self, line: int, core_id: int, issue: int,
                        callback: ReadCallback) -> None:
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
        self._fill(line, dirty=False)

    # ------------------------------------------------------------------
    # Demand write (dirty L3 eviction)
    # ------------------------------------------------------------------
    def write(self, line: int, core_id: int) -> None:
        now = self.sim.now
        self.policy.tick(now)
        self.policy.on_write(now, line)
        self.stats.writes += 1
        self.policy.note_write()
        self.policy.note_ms_access()  # the TAD write

        # The L3 presence bit means no TAD fetch is needed to decide.
        present = self.array.probe(line)
        if present:
            self.array.write(line)
            self.served_hits += 1
            self.cache_dev.enqueue(self._tad_request(line, AccessKind.TAD_WRITE))
            self._set_dbc(line, dirty=True)
            if self.policy.write_through(now, line):
                self.stats.write_throughs += 1
                self.array.clean(line)
                self._set_dbc(line, dirty=False)
                self.mm_dev.enqueue(Request(line=line, kind=AccessKind.WT_WRITE))
            return

        # Write miss: install in place (write-allocate via a TAD write).
        self.array.write(line)  # records the miss
        self.served_misses += 1
        self._fill(line, dirty=True)

    # ------------------------------------------------------------------
    # Fills and victims
    # ------------------------------------------------------------------
    def _fill(self, line: int, dirty: bool) -> None:
        eviction = self.array.fill(line, dirty=dirty)
        if eviction is not None and eviction.dirty:
            # The displaced TAD must reach main memory; its data was
            # obtained by the TAD read that discovered the miss.
            self.policy.note_mm_access()
            self.writeback_lines([eviction.line], read_from_cache=False)
        self.cache_dev.enqueue(self._tad_request(line, AccessKind.TAD_WRITE))
        self._set_dbc(line, dirty=dirty)

    def _set_dbc(self, line: int, dirty: bool) -> None:
        if self.dbc is not None:
            self.dbc.set_dirty(self.array.set_index(line), dirty)

    # ------------------------------------------------------------------
    def served_hit_rate(self) -> float:
        """Hit rate as delivered (IFRM-served reads count as misses)."""
        total = self.served_hits + self.served_misses
        return self.served_hits / total if total else 0.0
