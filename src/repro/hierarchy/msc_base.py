"""Memory-side cache controller base.

A controller owns the cache-side DRAM device(s), the main-memory device,
the functional cache array, and a :class:`~repro.policies.base.SteeringPolicy`.
It receives L3 read misses (``read``) and dirty L3 evictions (``write``)
and turns them into DRAM traffic.

The base class provides the statistics every experiment needs (average
L3 read-miss latency, served counts, technique counts) and the services
policies rely on (queue-based latency estimates, dirty-block cleaning,
bulk flushes).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.engine.event_queue import Simulator
from repro.mem.device import MemoryDevice
from repro.mem.request import AccessKind, Request
from repro.policies.base import SteeringPolicy

ReadCallback = Callable[[int], None]  # called with the finish cycle


class MscStats:
    """Controller-level accounting (device CAS counts live on devices)."""

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.reads_done = 0
        self.read_latency_sum = 0
        self.fwb_applied = 0
        self.wb_applied = 0
        self.ifrm_applied = 0
        self.sfrm_issued = 0
        self.sfrm_wasted = 0        # speculative reads whose data was dropped
        self.write_throughs = 0
        self.victim_dirty_lines = 0
        self.footprint_prefetches = 0
        self.meta_reads = 0
        self.meta_writes = 0

    def avg_read_latency(self) -> float:
        return self.read_latency_sum / self.reads_done if self.reads_done else 0.0

    @property
    def outstanding_reads(self) -> int:
        """Demand reads accepted but not yet completed."""
        return self.reads - self.reads_done


class MscController:
    """Shared behaviour of all memory-side cache controllers."""

    def __init__(
        self,
        sim: Simulator,
        cache_dev: MemoryDevice,
        mm_dev: MemoryDevice,
        policy: Optional[SteeringPolicy] = None,
    ) -> None:
        self.sim = sim
        self.cache_dev = cache_dev
        self.mm_dev = mm_dev
        self.policy = policy if policy is not None else SteeringPolicy()
        self.policy.bind(self)
        self.stats = MscStats()

    # ------------------------------------------------------------------
    # Interface used by the L3 / hierarchy (subclasses implement)
    # ------------------------------------------------------------------
    def read(self, line: int, core_id: int, callback: ReadCallback,
             kind: AccessKind = AccessKind.DEMAND_READ) -> None:
        raise NotImplementedError

    def write(self, line: int, core_id: int) -> None:
        raise NotImplementedError

    def warm_line(self, line: int, dirty: bool = False) -> None:
        """Functionally install a block (pre-run warmup; no DRAM traffic).

        Stands in for the paper's warmup phase: after a billion warmup
        instructions the memory-side cache holds the workload's warm set.
        The sectored and eDRAM controllers install it as a one-line
        :class:`~repro.workloads.columns.WarmSet` through
        :meth:`warm_many`.
        """
        raise NotImplementedError

    def warm_many(self, warm_sets) -> int:
        """Install :class:`~repro.workloads.columns.WarmSet` s (pre-run
        warmup); returns the line count. Equivalent to calling
        :meth:`warm_line` per ``(line, dirty)`` pair, which is what this
        default does; the cache controllers pass the sets to their
        array's batched install."""
        warm = self.warm_line
        count = 0
        for warm_set in warm_sets:
            for line, dirty in warm_set:
                warm(line, dirty)
            count += len(warm_set)
        return count

    # ------------------------------------------------------------------
    # Services for policies
    # ------------------------------------------------------------------
    def mm_read_latency_estimate(self, line: int) -> int:
        """Expected main-memory service latency for a read to ``line``."""
        return self.mm_dev.channel_of(line).expected_read_latency()

    def cache_read_latency_estimate(self, line: int) -> int:
        """Expected cache-side service latency for a read to ``line``."""
        return self.cache_dev.channel_of(line).expected_read_latency()

    def charge_tag_update(self, line: int) -> None:
        """Charge one in-DRAM metadata write against the cache device.

        Banshee-style policies keep replacement state (frequency
        counters) with the in-DRAM tags; maintaining it is real
        cache-DRAM write traffic, accounted like any other metadata
        write."""
        self.stats.meta_writes += 1
        self.policy.note_ms_access()
        self.cache_dev.enqueue(Request(line=line, kind=AccessKind.META_WRITE))

    def writeback_lines(self, lines: list[int], read_from_cache: bool = True) -> None:
        """Move dirty blocks to main memory (victim cleaning).

        Each line costs an EVICT_READ on the cache device (unless the
        data is already in hand) chained to a WRITEBACK on main memory.
        """
        for line in lines:
            self.stats.victim_dirty_lines += 1
            if read_from_cache:
                self.cache_dev.enqueue(
                    Request(
                        line=line,
                        kind=AccessKind.EVICT_READ,
                        on_complete=lambda r, t: self.mm_dev.enqueue(
                            Request(line=r.line, kind=AccessKind.WRITEBACK)
                        ),
                    )
                )
            else:
                self.mm_dev.enqueue(Request(line=line, kind=AccessKind.WRITEBACK))

    # ------------------------------------------------------------------
    # Aggregate metrics used by the experiments
    # ------------------------------------------------------------------
    def mm_cas_fraction(self) -> float:
        """Fraction of all CAS ops served by main memory (Figs. 8, 14)."""
        mm = self.mm_dev.total_cas()
        cache = self.cache_dev.total_cas()
        total = mm + cache
        return mm / total if total else 0.0

    def _finish_read(self, issue_cycle: int, finish: int,
                     callback: ReadCallback) -> None:
        self.stats.reads_done += 1
        self.stats.read_latency_sum += finish - issue_cycle
        callback(finish)
