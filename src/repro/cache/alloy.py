"""Alloy cache array: direct-mapped, tag-and-data (TAD) fused in DRAM.

Each set holds exactly one 64-byte block whose tag travels with the data
as a 72-byte TAD unit (three HBM channel cycles instead of two). This
module models the functional array; TAD bandwidth accounting and the
hit/miss predictor live in :mod:`repro.hierarchy.msc_alloy`.

Encoding: the sets are one ``array("q")`` of ``num_sets`` entries, each
holding ``line << 1 | dirty`` for the resident block, or -1 for an empty
set. Lines are non-negative, so ``entry >> 1 == line`` is the tag match
(an empty set shifts to -1 and never matches) and ``entry & 1`` the
dirty bit. The array costs a fixed 8 bytes per set whatever the
occupancy: 8 MiB for the 1 Mi sets of a smoke-scale cache, 512 MiB for
the 64 Mi sets of the paper's 4 GiB cache.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Optional

from repro.errors import ConfigError

# 72-byte TAD occupies 3 HBM channel cycles (burst 2 covers 64 bytes).
TAD_BURST_DEVICE_CYCLES = 3

_EMPTY = -1


@dataclass(frozen=True)
class AlloyEviction:
    line: int
    dirty: bool


class AlloyCacheArray:
    """Direct-mapped cache keyed by 64-byte line address."""

    def __init__(self, name: str, capacity_bytes: int, line_bytes: int = 64) -> None:
        for field_name, value in (("capacity_bytes", capacity_bytes),
                                  ("line_bytes", line_bytes)):
            if value <= 0:
                raise ConfigError(
                    f"{name}: {field_name} must be positive, not {value!r}")
        if capacity_bytes % line_bytes != 0:
            raise ConfigError(f"{name}: capacity not a multiple of the line size")
        self.name = name
        self.num_sets = capacity_bytes // line_bytes
        # set index -> line << 1 | dirty, or _EMPTY
        self._sets = array("q", [_EMPTY]) * self.num_sets

        self.read_hits = 0
        self.read_misses = 0
        self.write_hits = 0
        self.write_misses = 0
        self.evictions = 0

    def set_index(self, line: int) -> int:
        return line % self.num_sets

    # ------------------------------------------------------------------
    def probe(self, line: int) -> bool:
        return self._sets[line % self.num_sets] >> 1 == line

    def is_dirty(self, line: int) -> bool:
        return self._sets[line % self.num_sets] == line << 1 | 1

    def set_is_dirty(self, set_index: int) -> bool:
        """Dirty bit of whatever block occupies a set (DBC's source)."""
        if not 0 <= set_index < self.num_sets:
            return False
        entry = self._sets[set_index]
        return entry != _EMPTY and entry & 1 == 1

    def read(self, line: int) -> bool:
        hit = self.probe(line)
        if hit:
            self.read_hits += 1
        else:
            self.read_misses += 1
        return hit

    def write(self, line: int) -> bool:
        """Demand write; the block becomes resident and dirty on hit.

        Returns True on hit. On miss the caller decides whether to
        allocate (Alloy installs the write with a TAD write).
        """
        sets = self._sets
        idx = line % self.num_sets
        if sets[idx] >> 1 == line:
            sets[idx] = line << 1 | 1
            self.write_hits += 1
            return True
        self.write_misses += 1
        return False

    def fill(self, line: int, dirty: bool = False) -> Optional[AlloyEviction]:
        """Install a block, returning the displaced victim (if any)."""
        sets = self._sets
        idx = line % self.num_sets
        old = sets[idx]
        if old >> 1 == line:
            # Refill of the resident block merges dirtiness.
            if dirty:
                sets[idx] = old | 1
            return None
        sets[idx] = line << 1 | 1 if dirty else line << 1
        if old == _EMPTY:
            return None
        self.evictions += 1
        return AlloyEviction(line=old >> 1, dirty=old & 1 == 1)

    def warm_many(self, warm_sets) -> int:
        """Batched :meth:`fill` of :class:`~repro.workloads.columns.WarmSet`
        lines (pre-run warmup): the same final state and eviction count,
        without the per-victim :class:`AlloyEviction`. Returns the line
        count."""
        sets = self._sets
        num_sets = self.num_sets
        count = evictions = 0
        for warm_set in warm_sets:
            count += len(warm_set)
            for line, dirty in zip(chain.from_iterable(warm_set.runs),
                                   warm_set.dirty):
                idx = line % num_sets
                old = sets[idx]
                if old >> 1 == line:
                    if dirty:
                        sets[idx] = old | 1
                    continue
                sets[idx] = line << 1 | dirty
                if old != _EMPTY:
                    evictions += 1
        self.evictions += evictions
        return count

    def invalidate(self, line: int) -> bool:
        sets = self._sets
        idx = line % self.num_sets
        entry = sets[idx]
        if entry >> 1 == line:
            sets[idx] = _EMPTY
            return entry & 1 == 1
        return False

    def clean(self, line: int) -> None:
        sets = self._sets
        idx = line % self.num_sets
        if sets[idx] >> 1 == line:
            sets[idx] = line << 1

    # ------------------------------------------------------------------
    @property
    def reads(self) -> int:
        return self.read_hits + self.read_misses

    @property
    def writes(self) -> int:
        return self.write_hits + self.write_misses

    def hit_rate(self) -> float:
        total = self.reads + self.writes
        return (self.read_hits + self.write_hits) / total if total else 0.0
