"""The process's materialized-trace front and its intra-run store of
traces and warm sets.

Bounded traces are materialized at build time (see
:func:`repro.experiments.common.run_mix`) as one
:class:`~repro.workloads.columns.PackedTrace` each, synthesized straight
into its columns: the cores then index the columns by an integer cursor
instead of resuming a generator per instruction. Materialization goes
through one :class:`SimBackend`, whose :class:`TraceStore` is a
content-addressed in-process memo, so the many cells that replay the
same (workload, seed) pair within one invocation — the baseline/dap
cell pairs of a sweep, alone-IPC references that share core 0's trace —
generate each trace once and share the columns by reference.  The same
store holds each core's :class:`~repro.workloads.columns.WarmSet`
(:func:`repro.experiments.common.warm_system` takes them from it), so a
warm set's flags are drawn once per invocation however many cells and
memory-side caches install it.  The engine installs a fresh backend (an
empty store) per ``execute_cells`` invocation and per pool worker.

``SimBackend`` keeps this module path and its name although it is no
longer one of several backends: the benchmark's per-layer ledger
(``perfbench/ledger.py``) times ``phase.trace_s`` by wrapping
``repro.backends.base.SimBackend.mix_traces``.  Moving the store next
to ``run_mix`` waits for a benchmark change that updates that entry.
"""

from __future__ import annotations

from typing import Callable

from repro.workloads.columns import PackedTrace, WarmSet
from repro.workloads.mixes import Mix
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import (
    WorkloadProfile,
    core_base_line,
    trace_chunks,
    warm_lines,
)


class TraceStore:
    """In-process content-addressed store of materialized traces and
    warm sets.

    Keys carry everything that determines the generated stream —
    ``(profile name, num_refs, footprint scale, seed, base line)`` for a
    trace, ``("warm", profile name, footprint scale, seed, base line)``
    for a warm set — so a hit is exact by construction.  Entries are
    shared by reference; consumers only read their columns and never
    mutate them.  A trace costs its ``len()`` in references; a warm set
    costs one reference per :attr:`WARM_LINES_PER_REF` lines, since a
    stored reference is 11 bytes of columns (2 + 1 + 8) and a warm
    line one flag byte.  ``generated`` / ``reused`` count traces only;
    they feed the engine's per-run
    :class:`~repro.experiments.cellcache.ExecStats` counters.

    The store is bounded (``max_refs`` total stored references, FIFO
    eviction) so a long-lived process — a service worker, a pytest
    session — cannot grow it without limit; paper-scale traces stream
    and never enter the store at all.
    """

    __slots__ = ("generated", "reused", "max_refs", "_traces", "_trace_refs")

    DEFAULT_MAX_REFS = 4_000_000
    WARM_LINES_PER_REF = 11

    def __init__(self, max_refs: int = DEFAULT_MAX_REFS) -> None:
        self.generated = 0
        self.reused = 0
        self.max_refs = max_refs
        self._traces: dict[tuple, tuple[object, int]] = {}
        self._trace_refs = 0

    def trace(self, key: tuple, build: Callable[[], object]) -> object:
        """The materialized trace for ``key``, building it on first use."""
        hit = self._traces.get(key)
        if hit is not None:
            self.reused += 1
            return hit[0]
        self.generated += 1
        entry = build()
        return self._store(key, entry, len(entry))

    def warm_set(self, key: tuple, build: Callable[[], WarmSet]) -> WarmSet:
        """The warm set for ``key``, building it on first use (uncounted)."""
        hit = self._traces.get(key)
        if hit is not None:
            return hit[0]
        entry = build()
        return self._store(key, entry,
                           -(-len(entry) // self.WARM_LINES_PER_REF))

    def _store(self, key: tuple, entry, cost: int):
        if cost <= self.max_refs:
            while self._trace_refs + cost > self.max_refs and self._traces:
                _, (_, old_cost) = self._traces.popitem()
                self._trace_refs -= old_cost
            self._traces[key] = (entry, cost)
            self._trace_refs += cost
        return entry


class SimBackend:
    """Materializes synthetic traces as one :class:`PackedTrace` each
    (:func:`~repro.workloads.synthetic.trace_chunks` with a single
    chunk), and warm sets with :func:`~repro.workloads.synthetic.warm_lines`,
    through a :class:`TraceStore`.

    Keep the class name and ``mix_traces`` until the benchmark ledger
    stops timing ``phase.trace_s`` through them (see the module docstring).
    """

    __slots__ = ("store",)

    def __init__(self) -> None:
        self.store = TraceStore()

    def trace(self, profile: WorkloadProfile, num_refs: int,
              base_line: int = 0, scale: float = 1.0,
              seed: int = 0) -> PackedTrace:
        """One materialized trace, served from the store when possible."""
        key = (profile.name, num_refs, scale, seed, base_line)
        return self.store.trace(
            key,
            lambda: next(trace_chunks(profile, num_refs, base_line=base_line,
                                      scale=scale, seed=seed,
                                      chunk_refs=num_refs)))

    def mix_traces(self, mix: Mix, refs_per_core: int,
                   scale: float) -> list[PackedTrace]:
        """One materialized trace per core, disjoint address spaces."""
        return [
            self.trace(get_profile(member), refs_per_core,
                       base_line=core_base_line(core_id), scale=scale,
                       seed=core_id)
            for core_id, member in enumerate(mix.members)
        ]

    def warm_sets(self, mix: Mix, scale: float) -> list[WarmSet]:
        """The mix's warm set: one :class:`WarmSet` per core, in core
        order (kept apart, so each core's flags are drawn and packed on
        their own), each served from the store when possible."""
        warm_sets = []
        for core_id, member in enumerate(mix.members):
            profile = get_profile(member)
            base_line = core_base_line(core_id)
            # build() runs inside warm_set, so the lambda binds this core.
            warm_sets.append(self.store.warm_set(
                ("warm", profile.name, scale, core_id, base_line),
                lambda: warm_lines(profile, base_line=base_line,
                                   scale=scale, seed=core_id)))
        return warm_sets


_ACTIVE = SimBackend()


def active_backend() -> SimBackend:
    """The process's backend; its store lives until :func:`reset_backend`."""
    return _ACTIVE


def reset_backend() -> None:
    """Install a fresh backend, so one engine invocation's memoized
    traces never outlive it."""
    global _ACTIVE
    _ACTIVE = SimBackend()
