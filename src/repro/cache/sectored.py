"""Sectored (sub-blocked) cache array.

Models the functional state of the paper's die-stacked sectored DRAM
cache (4 KB sectors, 4-way, NRU) and the sectored eDRAM cache (1 KB
sectors, 16-way). A sector is allocated as a unit but individual 64-byte
blocks are fetched on demand, so each sector carries valid/dirty bitmasks.

Supports BATMAN-style set disabling: a disabled set rejects lookups and
fills; disabling returns the dirty blocks that must be flushed.

Hot-path notes
--------------
``read``/``write``/``fill_block`` run per L3 miss; each set is an
insertion-ordered dict keyed by sector id, so residency is one hash
probe and the order-sensitive NRU victim walk sees the same insertion
order the former way-list had. :meth:`find_sector` exposes the lookup so callers
that need several block operations on the same sector can resolve it
once. A disabled set never holds sectors (``disable_set`` pops it and
``allocate_sector`` refuses it), so the scan paths need no disabled
check — absence already reads as a sector miss.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.cache.replacement import make_policy
from repro.errors import ConfigError


# Dirty flags (one 0/1 byte a block) to the ASCII bits ``int(..., 2)``
# parses into a block mask.
_BITS = bytes.maketrans(b"\0\1", b"01")


class SectorProbe(enum.Enum):
    HIT = "hit"                    # sector present and block valid
    BLOCK_MISS = "block_miss"      # sector present, block invalid
    SECTOR_MISS = "sector_miss"    # sector absent


class _Sector:
    __slots__ = ("tag", "valid", "dirty", "touched", "stamp")

    def __init__(self, tag: int) -> None:
        self.tag = tag          # sector id
        self.valid = 0          # bitmask of valid blocks
        self.dirty = 0          # bitmask of dirty blocks
        self.touched = 0        # bitmask of demand-touched blocks (footprint)
        self.stamp = 0


@dataclass
class SectorEviction:
    """Result of a sector allocation that displaced a victim."""

    sector_id: int
    dirty_lines: list[int] = field(default_factory=list)
    valid_blocks: int = 0
    touched_mask: int = 0


class SectoredCacheArray:
    """Functional sectored cache state, keyed by 64-byte line address."""

    __slots__ = (
        "name",
        "assoc",
        "blocks_per_sector",
        "num_sets",
        "_sets",
        "_policy",
        "_on_access",
        "_on_fill",
        "_select_victim",
        "_disabled",
        "read_hits",
        "read_misses",
        "write_hits",
        "write_misses",
        "sector_evictions",
        "sector_allocations",
    )

    def __init__(
        self,
        name: str,
        capacity_bytes: int,
        assoc: int,
        sector_bytes: int,
        line_bytes: int = 64,
        policy: str = "nru",
    ) -> None:
        for field_name, value in (("capacity_bytes", capacity_bytes),
                                  ("assoc", assoc),
                                  ("sector_bytes", sector_bytes),
                                  ("line_bytes", line_bytes)):
            if value <= 0:
                raise ConfigError(
                    f"{name}: {field_name} must be positive, not {value!r}")
        if sector_bytes % line_bytes != 0:
            raise ConfigError(f"{name}: sector must be a multiple of the line size")
        if capacity_bytes % (assoc * sector_bytes) != 0:
            raise ConfigError(f"{name}: capacity not a multiple of assoc*sector")
        self.name = name
        self.assoc = assoc
        self.blocks_per_sector = sector_bytes // line_bytes
        self.num_sets = capacity_bytes // (assoc * sector_bytes)
        # set index -> {sector id: _Sector}, insertion-ordered per set.
        self._sets: dict[int, dict[int, _Sector]] = {}
        self._policy = make_policy(policy)
        self._on_access = self._policy.on_access
        self._on_fill = self._policy.on_fill
        self._select_victim = self._policy.select_victim_key
        self._disabled: set[int] = set()

        self.read_hits = 0
        self.read_misses = 0
        self.write_hits = 0
        self.write_misses = 0
        self.sector_evictions = 0
        self.sector_allocations = 0

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def sector_of(self, line: int) -> int:
        return line // self.blocks_per_sector

    def block_of(self, line: int) -> int:
        return line % self.blocks_per_sector

    def _set_index(self, sector_id: int) -> int:
        return sector_id % self.num_sets

    def find_sector(self, line: int) -> Optional[_Sector]:
        """Resolve the resident sector holding ``line`` in one scan.

        Callers performing several block operations on the same sector
        (e.g. warm-up install, resolve-time dirty checks) should resolve
        once and use the block-level bitmask directly.
        """
        sector_id = line // self.blocks_per_sector
        ways = self._sets.get(sector_id % self.num_sets)
        return ways.get(sector_id) if ways is not None else None

    def _find(self, sector_id: int) -> Optional[_Sector]:
        ways = self._sets.get(sector_id % self.num_sets)
        return ways.get(sector_id) if ways is not None else None

    def _lines_of(self, sector: _Sector, mask: int) -> list[int]:
        base = sector.tag * self.blocks_per_sector
        return [base + b for b in range(self.blocks_per_sector) if mask & (1 << b)]

    # ------------------------------------------------------------------
    # Probes and accesses
    # ------------------------------------------------------------------
    def probe(self, line: int) -> SectorProbe:
        """Classify an access without updating state or stats."""
        sector = self.find_sector(line)
        if sector is None:
            return SectorProbe.SECTOR_MISS
        if sector.valid & (1 << (line % self.blocks_per_sector)):
            return SectorProbe.HIT
        return SectorProbe.BLOCK_MISS

    def is_block_dirty(self, line: int) -> bool:
        sector = self.find_sector(line)
        return bool(sector and sector.dirty & (1 << (line % self.blocks_per_sector)))

    def read(self, line: int) -> SectorProbe:
        """Demand read: updates recency/footprint and hit/miss stats."""
        bps = self.blocks_per_sector
        sector_id = line // bps
        ways = self._sets.get(sector_id % self.num_sets)
        sector = ways.get(sector_id) if ways is not None else None
        if sector is not None:
            bit = 1 << (line % bps)
            self._on_access(sector)
            sector.touched |= bit
            if sector.valid & bit:
                self.read_hits += 1
                return SectorProbe.HIT
            self.read_misses += 1
            return SectorProbe.BLOCK_MISS
        self.read_misses += 1
        return SectorProbe.SECTOR_MISS

    def write(self, line: int) -> SectorProbe:
        """Demand write (dirty L3 eviction landing in this cache).

        On a hit or block miss within a resident sector the block becomes
        valid+dirty (a full 64-byte write needs no fill). On a sector miss
        the caller decides whether to allocate.
        """
        bps = self.blocks_per_sector
        sector_id = line // bps
        ways = self._sets.get(sector_id % self.num_sets)
        sector = ways.get(sector_id) if ways is not None else None
        if sector is not None:
            bit = 1 << (line % bps)
            was_valid = sector.valid & bit
            sector.valid |= bit
            sector.dirty |= bit
            sector.touched |= bit
            self._on_access(sector)
            if was_valid:
                self.write_hits += 1
                return SectorProbe.HIT
            self.write_misses += 1
            return SectorProbe.BLOCK_MISS
        self.write_misses += 1
        return SectorProbe.SECTOR_MISS

    def read_resolved(self, sector: Optional[_Sector], bit: int) -> None:
        """Demand-read accounting for a sector resolved via
        :meth:`find_sector` (same state transition as :meth:`read`,
        minus the redundant scan)."""
        if sector is None:
            self.read_misses += 1
            return
        self._on_access(sector)
        sector.touched |= bit
        if sector.valid & bit:
            self.read_hits += 1
        else:
            self.read_misses += 1

    def write_resolved(self, sector: _Sector, bit: int) -> None:
        """Demand-write state update for a resident, resolved sector
        (same transition as :meth:`write` on a resident sector)."""
        if sector.valid & bit:
            self.write_hits += 1
        else:
            self.write_misses += 1
        sector.valid |= bit
        sector.dirty |= bit
        sector.touched |= bit
        self._on_access(sector)

    def fill_block(self, line: int, dirty: bool = False) -> bool:
        """Install a block into a resident sector (read-miss fill).

        Returns False when the sector is absent (fill dropped — e.g. the
        sector lost the allocation race or was bypassed).
        """
        sector = self.find_sector(line)
        if sector is None:
            return False
        bit = 1 << (line % self.blocks_per_sector)
        sector.valid |= bit
        if dirty:
            sector.dirty |= bit
        return True

    def warm_many(self, warm_sets) -> int:
        """Install :class:`~repro.workloads.columns.WarmSet` s without
        stats (pre-run warmup): allocate each absent sector, then set its
        blocks valid (and dirty). Returns the line count.

        A step-1 run is installed a sector at a time: one resolution
        (and, for an absent sector, one allocation) per sector, the valid
        mask from the span and the dirty mask parsed from the span's
        slice of the flag column. Other runs go line by line, resolving
        again at each sector change. Only an allocation can evict, and it
        happens at a sector change before the re-resolve, so the result
        equals installing one ``(line, dirty)`` pair at a time in order:
        the same allocations, in the same order.
        """
        bps = self.blocks_per_sector
        num_sets = self.num_sets
        sets = self._sets
        allocate = self.allocate_sector
        count = 0
        for warm_set in warm_sets:
            flags = warm_set.dirty
            pos = 0
            for run in warm_set.runs:
                n = len(run)
                if run.step != 1:
                    self._warm_lines(run, flags[pos:pos + n])
                    pos += n
                    continue
                # The run's flags as ASCII bits, last line first, so the
                # lines [i, j) of the run read as bits[n - j:n - i].
                bits = flags[pos:pos + n][::-1].translate(_BITS)
                start = run.start
                i = 0
                while i < n:
                    line = start + i
                    off = line % bps
                    j = i + bps - off
                    if j > n:
                        j = n
                    sid = line // bps
                    ways = sets.get(sid % num_sets)
                    sector = ways.get(sid) if ways is not None else None
                    if sector is None:
                        allocate(line)
                        ways = sets.get(sid % num_sets)  # None: disabled
                        sector = ways.get(sid) if ways is not None else None
                    if sector is not None:
                        sector.valid |= ((1 << (j - i)) - 1) << off
                        sector.dirty |= int(bits[n - j:n - i], 2) << off
                    i = j
                pos += n
            count += len(flags)
        return count

    def _warm_lines(self, lines, flags: bytes) -> None:
        """Install ``lines`` one at a time with their ``flags``."""
        bps = self.blocks_per_sector
        find = self.find_sector
        allocate = self.allocate_sector
        cached_sid = -1
        sector = None
        for line, dirty in zip(lines, flags):
            sid = line // bps
            if sid != cached_sid:
                sector = find(line)
                if sector is None:
                    allocate(line)
                    sector = find(line)  # None when the set is disabled
                cached_sid = sid
            if sector is None:
                continue
            bit = 1 << (line % bps)
            sector.valid |= bit
            if dirty:
                sector.dirty |= bit

    # ------------------------------------------------------------------
    # Allocation / invalidation
    # ------------------------------------------------------------------
    def allocate_sector(self, line: int) -> Optional[SectorEviction]:
        """Allocate the sector containing ``line``; returns the eviction.

        No-op (returns None) if the sector is already resident or its set
        is disabled.
        """
        sector_id = line // self.blocks_per_sector
        idx = sector_id % self.num_sets
        if idx in self._disabled:
            return None
        ways = self._sets.get(idx)
        if ways is None:
            ways = self._sets[idx] = {}
        elif sector_id in ways:
            return None
        eviction: Optional[SectorEviction] = None
        if len(ways) >= self.assoc:
            vtag = self._select_victim(ways)
            victim = ways.pop(vtag)
            eviction = SectorEviction(
                sector_id=victim.tag,
                dirty_lines=self._lines_of(victim, victim.dirty),
                valid_blocks=bin(victim.valid).count("1"),
                touched_mask=victim.touched,
            )
            self.sector_evictions += 1
        sector = _Sector(sector_id)
        self._on_fill(sector)
        ways[sector_id] = sector
        self.sector_allocations += 1
        return eviction

    def invalidate_block(self, line: int) -> bool:
        """Invalidate a single block; returns whether it was dirty."""
        sector = self.find_sector(line)
        if sector is None:
            return False
        bit = 1 << (line % self.blocks_per_sector)
        was_dirty = bool(sector.dirty & bit)
        sector.valid &= ~bit
        sector.dirty &= ~bit
        return was_dirty

    def clean_block(self, line: int) -> None:
        """Clear the dirty bit of a block (after write-through)."""
        sector = self.find_sector(line)
        if sector is not None:
            sector.dirty &= ~(1 << (line % self.blocks_per_sector))

    # ------------------------------------------------------------------
    # Set disabling (BATMAN substrate)
    # ------------------------------------------------------------------
    def disable_set(self, set_index: int) -> list[int]:
        """Disable a set, returning dirty lines that must be flushed."""
        if set_index in self._disabled:
            return []
        self._disabled.add(set_index)
        dirty: list[int] = []
        for sector in self._sets.pop(set_index, {}).values():
            dirty.extend(self._lines_of(sector, sector.dirty))
        return dirty

    def enable_set(self, set_index: int) -> None:
        self._disabled.discard(set_index)

    @property
    def disabled_sets(self) -> int:
        return len(self._disabled)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    @property
    def reads(self) -> int:
        return self.read_hits + self.read_misses

    @property
    def writes(self) -> int:
        return self.write_hits + self.write_misses

    def hit_rate(self) -> float:
        """Combined read+write hit rate (the paper's Fig. 8 metric)."""
        total = self.reads + self.writes
        return (self.read_hits + self.write_hits) / total if total else 0.0

    def read_hit_rate(self) -> float:
        return self.read_hits / self.reads if self.reads else 0.0

    def sector_present(self, line: int) -> bool:
        return self.find_sector(line) is not None

    def resident_sectors(self) -> int:
        return sum(len(ways) for ways in self._sets.values())
