"""Per-window demand observation.

DAP divides execution into windows of ``W`` CPU cycles. During window
``N`` the controller records the *demand* each bandwidth source would see
without partitioning; at the boundary the solver converts the counts into
technique budgets for window ``N+1``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class WindowStats:
    """Demand observed in one window (single-channel-set caches).

    Attributes mirror the paper's terms:

    - ``a_ms``: accesses demanded of the memory-side cache (read hits,
      L4 writes, evict reads, fill writes, metadata traffic);
    - ``a_mm``: accesses demanded of main memory (read misses, dirty
      MS$ evictions);
    - ``read_misses`` (R_m): MS$ read misses (the fill supply for FWB);
    - ``writes`` (W_m): writes arriving at the MS$ (the WB supply);
    - ``clean_hits``: read hits on clean blocks (the IFRM supply).
    """

    a_ms: int = 0
    a_mm: int = 0
    read_misses: int = 0
    writes: int = 0
    clean_hits: int = 0

    def reset(self) -> None:
        self.a_ms = 0
        self.a_mm = 0
        self.read_misses = 0
        self.writes = 0
        self.clean_hits = 0


@dataclass
class EdramWindowStats:
    """Demand observed in one window for separate read/write channels.

    The eDRAM cache's read channels serve read hits and victim reads;
    its write channels serve fills and L4 writes; main memory serves
    read misses and writebacks.
    """

    a_ms_read: int = 0
    a_ms_write: int = 0
    a_mm: int = 0
    read_misses: int = 0
    writes: int = 0
    clean_hits: int = 0

    def reset(self) -> None:
        self.a_ms_read = 0
        self.a_ms_write = 0
        self.a_mm = 0
        self.read_misses = 0
        self.writes = 0
        self.clean_hits = 0
