"""Dirty-bit cache (DBC) for the Alloy cache.

SRAM structure borrowed from one L3 way: 32K entries, 4-way, each entry
holding the dirty bits of a *group* of 64 consecutive Alloy cache sets.
A DBC hit on a read tells the controller whether the accessed set is
dirty; a clean set is eligible for IFRM without fetching the TAD.

The authoritative dirty bits live in the Alloy array; the DBC caches
them. On a DBC miss during a read the controller may install the entry
from array state (a modeling simplification of the hardware's gradual
population via write traffic).
"""

from __future__ import annotations

from typing import Optional

from repro.cache.sram_cache import SRAMCache
from repro.errors import ConfigError

DBC_ENTRIES = 32 * 1024
DBC_ASSOC = 4
DBC_GROUP_SETS = 64
DBC_LOOKUP_CYCLES = 5


class DirtyBitCache:
    """Caches per-set dirty bits for groups of 64 Alloy sets."""

    def __init__(
        self,
        entries: int = DBC_ENTRIES,
        assoc: int = DBC_ASSOC,
        group_sets: int = DBC_GROUP_SETS,
        lookup_cycles: int = DBC_LOOKUP_CYCLES,
    ) -> None:
        if group_sets < 1:
            raise ConfigError(
                f"dbc: group_sets must be positive, not {group_sets!r}")
        self._cache = SRAMCache(
            "dbc", size_bytes=entries, assoc=assoc, line_bytes=1, policy="lru"
        )
        self._bits: dict[int, int] = {}  # group id -> dirty bitmask
        self.group_sets = group_sets
        self.lookup_cycles = lookup_cycles

    def group_of(self, set_index: int) -> int:
        return set_index // self.group_sets

    def _bit(self, set_index: int) -> int:
        return 1 << (set_index % self.group_sets)

    # ------------------------------------------------------------------
    def lookup(self, set_index: int) -> Optional[bool]:
        """Dirty bit of a set on DBC hit, or None on DBC miss."""
        group = self.group_of(set_index)
        if not self._cache.lookup(group):
            return None
        return bool(self._bits.get(group, 0) & self._bit(set_index))

    def fill_group(self, set_index: int, dirty_mask: int) -> None:
        """Install a group's bits (after reconstructing from the array)."""
        group = self.group_of(set_index)
        eviction = self._cache.fill_pair(group)
        if eviction is not None:
            self._bits.pop(eviction[0], None)
        self._bits[group] = dirty_mask

    def set_dirty(self, set_index: int, dirty: bool) -> None:
        """Update a set's bit if its group is cached (no allocation)."""
        group = self.group_of(set_index)
        if not self._cache.probe(group):
            return
        mask = self._bits.get(group, 0)
        if dirty:
            mask |= self._bit(set_index)
        else:
            mask &= ~self._bit(set_index)
        self._bits[group] = mask

    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return self._cache.hits

    @property
    def misses(self) -> int:
        return self._cache.misses

    def hit_rate(self) -> float:
        return self._cache.hit_rate()
