"""Footprint prefetcher history (Jevdjic et al., used by the paper's
sectored DRAM cache baseline).

When a sector is evicted, the bitmask of blocks that were demand-touched
during its residency is recorded. When the same sector is re-allocated,
those blocks are prefetched from main memory into the new sector, raising
the hit rate at the cost of extra main-memory reads and fill writes.

The table is bounded: a simple FIFO of the most recent ``capacity``
sector footprints (dict insertion order gives us FIFO for free).
"""

from __future__ import annotations

from repro.errors import ConfigError


class FootprintPredictor:
    """Sector-id keyed footprint history with FIFO replacement."""

    def __init__(self, capacity: int = 64 * 1024) -> None:
        if capacity < 1:
            raise ConfigError(
                f"footprint: capacity must be positive, not {capacity!r}")
        self.capacity = capacity
        self._table: dict[int, int] = {}
        self.predictions = 0
        self.records = 0

    def record(self, sector_id: int, touched_mask: int) -> None:
        """Store the touched-block mask of an evicted sector."""
        if touched_mask == 0:
            return
        if sector_id in self._table:
            del self._table[sector_id]  # refresh insertion order
        elif len(self._table) >= self.capacity:
            oldest = next(iter(self._table))
            del self._table[oldest]
        self._table[sector_id] = touched_mask
        self.records += 1

    def predict(self, sector_id: int, demand_block: int) -> int:
        """Blocks to prefetch on allocation (mask minus the demand block).

        Returns 0 for never-seen sectors (no prefetch).
        """
        mask = self._table.get(sector_id, 0)
        if mask:
            self.predictions += 1
        return mask & ~(1 << demand_block)

    def __len__(self) -> int:
        return len(self._table)
