"""The process's materialized-trace front and its intra-run trace store.

Bounded traces are materialized to lists at build time (see
:func:`repro.experiments.common.run_mix`): the cores then consume a
C-speed list iterator instead of resuming a generator per instruction.
Materialization goes through one :class:`SimBackend`, whose
:class:`TraceStore` is a content-addressed in-process memo, so the many
cells that replay the same (workload, seed) pair within one invocation
— the baseline/dap cell pairs of a sweep, alone-IPC references that
share core 0's trace — generate each trace once and share the list by
reference.  The engine installs a fresh backend (an empty store) per
``execute_cells`` invocation and per pool worker.

``SimBackend`` keeps this module path and its name although it is no
longer one of several backends: the benchmark's per-layer ledger
(``perfbench/ledger.py``) times ``phase.trace_s`` by wrapping
``repro.backends.base.SimBackend.mix_traces``.  Moving the store next
to ``run_mix`` waits for a benchmark change that updates that entry.
"""

from __future__ import annotations

from typing import Callable

from repro.workloads.mixes import Mix
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import (
    WorkloadProfile,
    core_base_line,
    generate_trace,
)


class TraceStore:
    """In-process content-addressed store of materialized traces.

    Keys carry everything that determines the generated stream —
    ``(profile name, num_refs, footprint scale, seed, base line)`` — so
    a hit is exact by construction.  Entries are immutable tuple lists
    shared by reference; consumers wrap them in ``iter()`` and never
    mutate.  ``generated`` / ``reused`` feed the engine's per-run
    :class:`~repro.experiments.cellcache.ExecStats` counters.

    The store is bounded (``max_refs`` total stored references, FIFO
    eviction) so a long-lived process — a service worker, a pytest
    session — cannot grow it without limit; paper-scale traces stream
    and never enter the store at all.
    """

    __slots__ = ("generated", "reused", "max_refs", "_traces", "_trace_refs")

    DEFAULT_MAX_REFS = 4_000_000

    def __init__(self, max_refs: int = DEFAULT_MAX_REFS) -> None:
        self.generated = 0
        self.reused = 0
        self.max_refs = max_refs
        self._traces: dict[tuple, tuple[list, int]] = {}
        self._trace_refs = 0

    def trace(self, key: tuple, build: Callable[[], list]) -> list:
        """The materialized trace for ``key``, building it on first use."""
        hit = self._traces.get(key)
        if hit is not None:
            self.reused += 1
            return hit[0]
        entry = build()
        self.generated += 1
        cost = len(entry)
        if cost <= self.max_refs:
            while self._trace_refs + cost > self.max_refs and self._traces:
                _, (_, old_cost) = self._traces.popitem()
                self._trace_refs -= old_cost
            self._traces[key] = (entry, cost)
            self._trace_refs += cost
        return entry


class SimBackend:
    """Materializes :func:`~repro.workloads.synthetic.generate_trace`
    streams as ``(gap, is_write, line)`` lists through a :class:`TraceStore`.

    Keep the class name and ``mix_traces`` until the benchmark ledger
    stops timing ``phase.trace_s`` through them (see the module docstring).
    """

    __slots__ = ("store",)

    def __init__(self) -> None:
        self.store = TraceStore()

    def trace(self, profile: WorkloadProfile, num_refs: int,
              base_line: int = 0, scale: float = 1.0,
              seed: int = 0) -> list:
        """One materialized trace, served from the store when possible."""
        key = (profile.name, num_refs, scale, seed, base_line)
        return self.store.trace(
            key,
            lambda: list(generate_trace(profile, num_refs,
                                        base_line=base_line, scale=scale,
                                        seed=seed)))

    def mix_traces(self, mix: Mix, refs_per_core: int,
                   scale: float) -> list[list]:
        """One materialized trace per core, disjoint address spaces."""
        return [
            self.trace(get_profile(member), refs_per_core,
                       base_line=core_base_line(core_id), scale=scale,
                       seed=core_id)
            for core_id, member in enumerate(mix.members)
        ]


_ACTIVE = SimBackend()


def active_backend() -> SimBackend:
    """The process's backend; its store lives until :func:`reset_backend`."""
    return _ACTIVE


def reset_backend() -> None:
    """Install a fresh backend, so one engine invocation's memoized
    traces never outlive it."""
    global _ACTIVE
    _ACTIVE = SimBackend()
