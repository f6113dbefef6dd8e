"""Host-speed normalisation of end-to-end host times.

The benchmark shares its machine with other tenants, whose load makes
the same code run up to 1.7x slower for tens of seconds at a time, long
enough to shift a whole run. So a run also times a fixed reference
kernel, independent of the code under test, between its operations, and
scales its host-time medians by ``REF_NOMINAL_S / median(probe)``: they
read as values on a host where the kernel takes ``REF_NOMINAL_S``. A
change under test cannot move the kernel, so it cannot hide a
regression.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

#: The kernel's duration on the calibration host (2 vCPUs, idle).
REF_NOMINAL_S = 0.05
KERNEL_STEPS = 45_000


def reference_kernel(steps: int = KERNEL_STEPS) -> int:
    """Interpreter-bound work shaped like the simulator's inner loop:
    seeded random keys, dict updates and a bounded heap."""
    rng = random.Random(1)
    table: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    for step in range(steps):
        key = rng.getrandbits(14)
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, (key, step))
        if len(heap) > 4096:
            heapq.heappop(heap)
    return len(table)


class HostSpeed:
    """Kernel probes taken between one run's operations."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def probe(self, *_hook_args) -> None:
        """Time the kernel once; also usable as a ``run_cells`` on_cell hook."""
        start = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - start)

    def since(self, first: int) -> float:
        """Seconds spent probing since probe number ``first``."""
        return sum(self.samples[first:])

    def factor(self) -> float:
        """How much faster the nominal host is than this one was over the
        run (the median probe, so bursts within the run do not count)."""
        return REF_NOMINAL_S / statistics.median(self.samples)
