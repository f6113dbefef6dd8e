"""On-chip SRAM hierarchy: private L1/L2, shared inclusive L3.

Functional arrays with fixed latencies (3 / 11 / 20 cycles round trip,
per the paper's Skylake-like cores); the interesting timing is below the
L3, where misses enter the memory-side cache controller. The hierarchy
also hosts the multi-stream stride prefetcher that trains on L2 misses
and fills L2/L3, and it merges concurrent misses to a line (MSHR-style)
so one fill serves all waiters.

Writebacks cascade: a dirty L1 victim merges into L2, a dirty L2 victim
into L3, and a dirty L3 victim becomes a memory-side cache write.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.sram_cache import _ABSENT, SRAMCache
from repro.engine.event_queue import Simulator
from repro.hierarchy.config import SramLevels
from repro.hierarchy.msc_base import MscController
from repro.mem.request import AccessKind

FillCallback = Callable[[int], None]


class StridePrefetcher:
    """Multi-stream stride prefetcher (per core), training on L2 misses.

    Streams are tracked per 4 KB region; two consecutive equal strides
    arm the stream and each subsequent access prefetches ``degree``
    lines ahead.
    """

    def __init__(self, degree: int = 3, max_streams: int = 32) -> None:
        self.degree = degree
        self.max_streams = max_streams
        self._streams: dict[int, list[int]] = {}  # region -> [last, stride, conf]
        self.issued = 0

    def observe(self, line: int) -> list[int]:
        """Record an access; return the lines to prefetch."""
        region = line >> 6  # 4 KB region
        stream = self._streams.get(region)
        if stream is None:
            if len(self._streams) >= self.max_streams:
                oldest = next(iter(self._streams))
                del self._streams[oldest]
            self._streams[region] = [line, 0, 0]
            return []
        last, stride, conf = stream
        delta = line - last
        if delta == 0:
            return []
        if delta == stride:
            conf = min(conf + 1, 4)
        else:
            stride, conf = delta, 1 if -8 <= delta <= 8 and delta != 0 else 0
        stream[0], stream[1], stream[2] = line, stride, conf
        if conf >= 2 and stride != 0:
            targets = [line + stride * (i + 1) for i in range(self.degree)]
            self.issued += len(targets)
            return targets
        return []


class CacheHierarchy:
    """Per-core L1/L2 over a shared inclusive L3, backed by an MSC."""

    def __init__(
        self,
        sim: Simulator,
        num_cores: int,
        msc: MscController,
        levels: SramLevels = SramLevels(),
        enable_prefetch: bool = True,
    ) -> None:
        self.sim = sim
        self.num_cores = num_cores
        self.msc = msc
        self.levels = levels
        self.l1 = [
            SRAMCache(f"l1.{i}", levels.l1_bytes, levels.l1_assoc)
            for i in range(num_cores)
        ]
        self.l2 = [
            SRAMCache(f"l2.{i}", levels.l2_bytes, levels.l2_assoc)
            for i in range(num_cores)
        ]
        self.l3 = SRAMCache("l3", levels.l3_bytes, levels.l3_assoc)
        # _access inlines the LRU branch of SRAMCache.lookup.
        assert self.l3._lru and all(c._lru for c in self.l1 + self.l2)
        # Hot-path copies of the (frozen-dataclass) level latencies.
        self._l1_lat = levels.l1_latency
        self._l2_lat = levels.l2_latency
        self._l3_lat = levels.l3_latency
        self.prefetchers = (
            [StridePrefetcher() for _ in range(num_cores)] if enable_prefetch else None
        )
        # Outstanding L3 misses: line -> list of (core_id, dirty, callback).
        self._inflight: dict[int, list[tuple[int, bool, Optional[FillCallback]]]] = {}
        self.l3_demand_misses = [0] * num_cores
        self.l3_demand_accesses = [0] * num_cores
        # Prefetch throttle: bounded in-flight prefetches per core.
        self.max_prefetch_inflight = 12
        self._pf_inflight = [0] * num_cores
        # CBP-style policies meter prefetch issue; every other policy
        # leaves this None so the issue path stays branch-cheap.
        policy = msc.policy
        self._pf_throttle = (
            policy if getattr(policy, "throttles_prefetch", False) else None
        )

    # ------------------------------------------------------------------
    # Core-facing interface
    # ------------------------------------------------------------------
    def load(self, core_id: int, line: int,
             on_fill: Optional[FillCallback] = None) -> Optional[int]:
        """Demand load. Returns the SRAM latency on a hit; on an L3 miss
        returns None and calls ``on_fill(finish_cycle)`` later."""
        lat = self._access(core_id, line, False)
        if lat is None:
            self._request_line(core_id, line, False, on_fill)
        return lat

    def store(self, core_id: int, line: int,
              on_fill: Optional[FillCallback] = None) -> Optional[int]:
        """Demand store (write-allocate: a miss fetches the line, then
        marks it dirty)."""
        lat = self._access(core_id, line, True)
        if lat is None:
            self._request_line(core_id, line, True, on_fill)
        return lat

    def _access(self, core_id: int, line: int, dirty: bool) -> Optional[int]:
        """The SRAM walk of a demand access: its latency on a hit, or
        None after counting an L3 miss. The caller must then register
        the miss with :meth:`_request_line`, before anything else runs,
        so only a miss pays for a fill callback."""
        # Runs once per memory instruction. The three SRAM lookups and
        # the L1/L2 fill cascades are inlined — byte-for-byte the LRU
        # branch of SRAMCache.lookup/fill_pair — so the common SRAM
        # paths cost no extra Python frames. The fills also skip
        # fill_pair's refresh check and reuse the set dict resolved at
        # lookup: the filled line provably just missed that same set,
        # and nothing between lookup and fill touches the array (the
        # cascades only go downward). (The hierarchy always builds LRU
        # arrays; __init__ asserts it.)
        l1 = self.l1[core_id]
        sets1 = l1._sets
        idx1 = line % l1.num_sets
        ways1 = sets1.get(idx1)
        entry = _ABSENT if ways1 is None else ways1.get(line, _ABSENT)
        if entry is not _ABSENT:
            l1.hits += 1
            del ways1[line]
            ways1[line] = True if dirty else entry
            return self._l1_lat
        l1.misses += 1
        l2 = self.l2[core_id]
        sets2 = l2._sets
        idx2 = line % l2.num_sets
        ways2 = sets2.get(idx2)
        entry = _ABSENT if ways2 is None else ways2.get(line, _ABSENT)
        if entry is not _ABSENT:
            l2.hits += 1
            del ways2[line]
            ways2[line] = entry
            # Fill L1; a dirty victim folds into L2.
            vdirty = False
            if ways1 is None:
                ways1 = sets1[idx1] = {}
            elif len(ways1) >= l1.assoc:
                vtag = next(iter(ways1))
                vdirty = ways1.pop(vtag)
                l1.evictions += 1
            ways1[line] = dirty
            if vdirty:
                l2.fill_pair(vtag, True)
            return self._l2_lat
        l2.misses += 1
        # L2 miss: train the prefetcher on the miss stream.
        if self.prefetchers is not None:
            self._train_prefetch(core_id, line)
        self.l3_demand_accesses[core_id] += 1
        l3 = self.l3
        ways = l3._sets.get(line % l3.num_sets)
        entry = _ABSENT if ways is None else ways.get(line, _ABSENT)
        if entry is not _ABSENT:
            l3.hits += 1
            del ways[line]
            ways[line] = entry
            # Fill L2 (clean); a dirty victim cascades into L3.
            vdirty = False
            if ways2 is None:
                ways2 = sets2[idx2] = {}
            elif len(ways2) >= l2.assoc:
                vtag = next(iter(ways2))
                vdirty = ways2.pop(vtag)
                l2.evictions += 1
            ways2[line] = False
            if vdirty:
                ev3 = l3.fill_pair(vtag, True)
                if ev3 is not None and ev3[1]:
                    self.msc.write(ev3[0], core_id)
            # Fill L1; a dirty victim folds into L2.
            vdirty = False
            if ways1 is None:
                ways1 = sets1[idx1] = {}
            elif len(ways1) >= l1.assoc:
                vtag = next(iter(ways1))
                vdirty = ways1.pop(vtag)
                l1.evictions += 1
            ways1[line] = dirty
            if vdirty:
                l2.fill_pair(vtag, True)
            return self._l3_lat
        l3.misses += 1
        # L3 miss.
        self.l3_demand_misses[core_id] += 1
        return None

    # ------------------------------------------------------------------
    # Miss handling with MSHR-style merging
    # ------------------------------------------------------------------
    def _request_line(self, core_id: int, line: int, dirty: bool,
                      on_fill: Optional[FillCallback],
                      kind: AccessKind = AccessKind.DEMAND_READ) -> None:
        waiters = self._inflight.get(line)
        if waiters is not None:
            waiters.append((core_id, dirty, on_fill))
            return
        self._inflight[line] = [(core_id, dirty, on_fill)]
        self.msc.read(line, core_id,
                      callback=lambda finish, l=line: self._line_arrived(l, finish),
                      kind=kind)

    def _line_arrived(self, line: int, finish: int) -> None:
        waiters = self._inflight.pop(line, [])
        any_dirty = any(d for _, d, _ in waiters)
        ev3 = self.l3.fill_pair(line, any_dirty)
        if ev3 is not None and ev3[1]:
            self.msc.write(ev3[0], core_id=-1)
        for core_id, dirty, callback in waiters:
            if core_id >= 0:
                # Fill L2 (clean), then L1: a dirty L2 victim cascades
                # into L3 (and a dirty L3 victim to the MS$); a dirty L1
                # victim folds into L2.
                ev2 = self.l2[core_id].fill_pair(line)
                if ev2 is not None and ev2[1]:
                    ev3 = self.l3.fill_pair(ev2[0], True)
                    if ev3 is not None and ev3[1]:
                        self.msc.write(ev3[0], core_id)
                ev1 = self.l1[core_id].fill_pair(line, dirty)
                if ev1 is not None and ev1[1]:
                    self.l2[core_id].fill_pair(ev1[0], True)
            if callback is not None:
                callback(finish)

    # ------------------------------------------------------------------
    # Prefetching
    # ------------------------------------------------------------------
    def _train_prefetch(self, core_id: int, line: int) -> None:
        for target in self.prefetchers[core_id].observe(line):
            if self._pf_inflight[core_id] >= self.max_prefetch_inflight:
                return
            if target < 0:
                continue
            if self.l2[core_id].probe(target) or self.l3.probe(target):
                continue
            if target in self._inflight:
                continue
            if self._pf_throttle is not None and not (
                self._pf_throttle.allow_prefetch(self.sim.now, core_id, target)
            ):
                continue
            self._pf_inflight[core_id] += 1
            self._request_line(
                core_id, target, dirty=False,
                on_fill=lambda finish, c=core_id: self._pf_done(c),
                kind=AccessKind.PREFETCH_READ,
            )

    def _pf_done(self, core_id: int) -> None:
        self._pf_inflight[core_id] -= 1

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def l3_mpki(self, core_id: int, instructions: int) -> float:
        if instructions <= 0:
            return 0.0
        return self.l3_demand_misses[core_id] / (instructions / 1000.0)

    def total_l3_misses(self) -> int:
        return sum(self.l3_demand_misses)
