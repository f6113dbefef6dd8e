"""Steering-policy protocol and the no-op baseline.

Controllers consult the policy at each decision point; the default
answers reproduce a traditional memory-side cache that never partitions.
Policies also receive demand-recording callbacks (``note_*``) so
window-based learners (DAP) can observe per-window demand, and lifecycle
hooks (``on_read``/``on_write``/``tick``) for heuristic policies
(SBD's dirty list, BATMAN's epochs).
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.hierarchy.msc_base import MscController


class SteeringPolicy:
    """Base policy: never partitions; all hooks are no-ops.

    Subclasses override the decision hooks they implement. A policy is
    bound to exactly one controller, which exposes queue depths, array
    state and maintenance services (see
    :class:`repro.hierarchy.msc_base.MscController`).
    """

    name = "baseline"

    #: Policies that meter the stride prefetcher (CBP-style throttling)
    #: set this True; the hierarchy then consults :meth:`allow_prefetch`
    #: before issuing each prefetch. The flag keeps the default hot path
    #: free of a per-prefetch virtual call.
    throttles_prefetch = False

    def __init__(self) -> None:
        self._controller: Optional[weakref.ref] = None
        #: Decision observer (a :class:`repro.obs.telemetry.Telemetry`)
        #: installed by the telemetry layer; None in uninstrumented runs,
        #: so the hot path pays one ``is None`` check at most.
        self.observer = None

    @property
    def controller(self) -> Optional["MscController"]:
        """The bound controller, or None before :meth:`bind`.

        Held weakly: the controller owns its policy, and a strong
        back-reference would make every finished system a reference
        cycle that only the cyclic collector frees.
        """
        ref = self._controller
        return None if ref is None else ref()

    def bind(self, controller: "MscController") -> None:
        self._controller = weakref.ref(controller)

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def tick(self, now: int) -> None:
        """Called on every access entering the controller."""

    def on_read(self, now: int, line: int, core_id: int = -1) -> None:
        """A demand read arrived (before any steering decision)."""

    def on_write(self, now: int, line: int) -> None:
        """A demand write (dirty L3 eviction) arrived."""

    # ------------------------------------------------------------------
    # Steering decisions
    # ------------------------------------------------------------------
    def bypass_fill(self, now: int, line: int) -> bool:
        """Drop the fill write of a read miss (FWB)."""
        return False

    def bypass_write(self, now: int, line: int) -> bool:
        """Steer a dirty L3 eviction to main memory instead (WB)."""
        return False

    def force_read_miss(self, now: int, line: int, core_id: int = -1) -> bool:
        """Serve a known-clean read hit from main memory (IFRM)."""
        return False

    def speculative_read(self, now: int, line: int) -> bool:
        """Issue a main-memory read before the tag outcome is known
        (SFRM); only meaningful when metadata lives in the cache DRAM."""
        return False

    def write_through(self, now: int, line: int) -> bool:
        """Additionally copy a cache write to main memory, keeping the
        block clean (SBD's mostly-clean mode, DAP-Alloy's WT)."""
        return False

    def steer_clean_read(self, now: int, line: int) -> bool:
        """SBD-style latency steering of a read known to be safe to
        serve from either source."""
        return False

    def allow_prefetch(self, now: int, core_id: int, line: int) -> bool:
        """May the hierarchy issue this stride prefetch? Consulted only
        when :attr:`throttles_prefetch` is True (CBP-style throttling);
        the default grants everything."""
        return True

    # ------------------------------------------------------------------
    # Demand recording (window learners)
    # ------------------------------------------------------------------
    def note_ms_access(self, count: int = 1) -> None:
        pass

    def note_ms_read(self, count: int = 1) -> None:
        pass

    def note_ms_write(self, count: int = 1) -> None:
        pass

    def note_mm_access(self, count: int = 1) -> None:
        pass

    def note_read_miss(self) -> None:
        pass

    def note_write(self) -> None:
        pass

    def note_clean_hit(self) -> None:
        pass

    # ------------------------------------------------------------------
    def describe_params(self) -> dict:
        """Key parameters for manifests; subclasses override."""
        return {}

    def result_extras(self) -> dict:
        """Per-policy counters merged into ``RunResult.extras`` after a
        run. Must stay empty for policies covered by the determinism
        golden (baseline, DAP): the golden fingerprints every extras
        key, so only additive policies may contribute."""
        return {}

    def describe(self) -> str:
        """Manifest-ready one-liner: policy name plus key parameters."""
        params = self.describe_params()
        if not params:
            return self.name
        inner = ", ".join(f"{k}={v}" for k, v in params.items())
        return f"{self.name}({inner})"


class BaselinePolicy(SteeringPolicy):
    """Explicit alias for the traditional no-partitioning baseline."""

    name = "baseline"
