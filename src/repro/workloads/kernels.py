"""The Fig. 1 read-bandwidth kernel.

"A simple read bandwidth kernel that streams through read-only arrays at
different target hit rates of the memory-side cache." The kernel drives
a memory-side cache controller directly (no cores): it keeps a fixed
number of reads outstanding and draws each read either from a pre-warmed
resident array (a cache hit) or from a cold, ever-advancing stream (a
cache miss), so the achieved hit rate tracks the target.

``run_read_kernel`` returns the delivered *demand* read bandwidth in
GB/s, measured exactly as Fig. 1 does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import WorkloadError

if TYPE_CHECKING:
    # Decoding a cached KernelResult must not load the simulator.
    from repro.engine.event_queue import Simulator
    from repro.hierarchy.msc_base import MscController


@dataclass
class KernelResult:
    delivered_gbps: float
    achieved_hit_rate: float
    reads_completed: int
    cycles: int


class ReadKernel:
    """Closed-loop read injector with a target hit rate."""

    def __init__(
        self,
        sim: Simulator,
        controller: MscController,
        hit_rate: float,
        total_reads: int,
        outstanding: int = 192,
        resident_lines: int = 4096,
        cpu_ghz: float = 4.0,
        seed: int = 1,
    ) -> None:
        if not 0.0 <= hit_rate <= 1.0:
            raise WorkloadError(f"hit rate must be in [0,1], got {hit_rate}")
        if total_reads <= 0 or outstanding <= 0:
            raise WorkloadError("total_reads and outstanding must be positive")
        self.sim = sim
        self.controller = controller
        self.hit_rate = hit_rate
        self.total_reads = total_reads
        self.outstanding_limit = outstanding
        self.resident_lines = resident_lines
        self.cpu_ghz = cpu_ghz
        self._rng = random.Random(seed)
        self._issued = 0
        self._completed = 0
        self._inflight = 0
        self._cold_line = resident_lines  # cold stream starts past the array
        self._hot_cursor = 0
        self.finish_cycle = 0

    # ------------------------------------------------------------------
    def warm(self) -> None:
        """Install the resident array in the cache (functional pre-warm)."""
        array = self.controller.array
        for line in range(self.resident_lines):
            if hasattr(array, "allocate_sector"):
                if not array.sector_present(line):
                    array.allocate_sector(line)
                array.fill_block(line)
            else:
                array.fill(line)

    def run(self) -> KernelResult:
        self.warm()
        for _ in range(min(self.outstanding_limit, self.total_reads)):
            self._issue()
        self.sim.run()
        cycles = max(1, self.finish_cycle)
        bytes_moved = self._completed * 64
        seconds = cycles / (self.cpu_ghz * 1e9)
        hits = self.controller.served_hits
        misses = self.controller.served_misses
        return KernelResult(
            delivered_gbps=bytes_moved / seconds / 1e9,
            achieved_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
            reads_completed=self._completed,
            cycles=cycles,
        )

    # ------------------------------------------------------------------
    def _next_line(self) -> int:
        if self._rng.random() < self.hit_rate:
            # Sequential walk of the resident array: a cache hit.
            line = self._hot_cursor % self.resident_lines
            self._hot_cursor += 1
            return line
        line = self._cold_line
        self._cold_line += 1
        return line

    def _issue(self) -> None:
        if self._issued >= self.total_reads:
            return
        self._issued += 1
        self._inflight += 1
        self.controller.read(self._next_line(), core_id=0, callback=self._done)

    def _done(self, finish: int) -> None:
        self._completed += 1
        self._inflight -= 1
        self.finish_cycle = max(self.finish_cycle, finish)
        self._issue()


def run_read_kernel(
    controller_factory,
    hit_rate: float,
    total_reads: int = 20_000,
    outstanding: int = 192,
    resident_lines: int = 4096,
) -> KernelResult:
    """Build a fresh controller via ``controller_factory(sim)`` and
    measure delivered read bandwidth at the target hit rate."""
    from repro.engine.event_queue import Simulator

    sim = Simulator()
    controller = controller_factory(sim)
    kernel = ReadKernel(
        sim, controller, hit_rate=hit_rate, total_reads=total_reads,
        outstanding=outstanding, resident_lines=resident_lines,
    )
    return kernel.run()
