"""Run-level metric collection.

:func:`collect_result` reduces a finished :class:`~repro.hierarchy.system.System`
to the numbers the paper's tables and figures report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.mem.request import AccessKind

if TYPE_CHECKING:
    # Decoding a cached RunResult must not load the simulator.
    from repro.hierarchy.system import System


@dataclass
class RunResult:
    """Everything an experiment needs from one simulation run."""

    policy: str
    cycles: int
    instructions: list[int]
    ipc: list[float]
    l3_mpki: list[float]
    avg_read_latency: float
    served_hit_rate: float
    array_hit_rate: float
    mm_cas: int
    cache_cas: int
    mm_cas_fraction: float
    delivered_gbps: float
    tag_cache_miss_rate: Optional[float] = None
    dap_decisions: dict[str, int] = field(default_factory=dict)
    #: Scalar side metrics plus, under the ``"manifest"`` key, the run's
    #: provenance manifest (config, policy, git SHA, wall time, events).
    extras: dict[str, object] = field(default_factory=dict)

    @property
    def manifest(self) -> Optional[dict]:
        """The run manifest, when one was attached."""
        value = self.extras.get("manifest")
        return value if isinstance(value, dict) else None

    @property
    def total_instructions(self) -> int:
        return sum(self.instructions)

    @property
    def mean_ipc(self) -> float:
        return sum(self.ipc) / len(self.ipc) if self.ipc else 0.0

    @property
    def mean_mpki(self) -> float:
        return sum(self.l3_mpki) / len(self.l3_mpki) if self.l3_mpki else 0.0


def _cache_cas_total(system: System) -> int:
    msc = system.msc
    total = msc.cache_dev.total_cas()
    write_dev = getattr(msc, "cache_write_dev", None)
    if write_dev is not None:
        total += write_dev.total_cas()
    return total


def _delivered_gbps(system: System) -> float:
    msc = system.msc
    total = msc.mm_dev.delivered_gbps() + msc.cache_dev.delivered_gbps()
    write_dev = getattr(msc, "cache_write_dev", None)
    if write_dev is not None:
        total += write_dev.delivered_gbps()
    return total


def collect_result(system: System) -> RunResult:
    """Summarize a completed run."""
    from repro.policies.dap import DapPolicy

    msc = system.msc
    hierarchy = system.hierarchy
    cores = system.cores

    instructions = [core.instr_count for core in cores]
    ipcs = [core.ipc for core in cores]
    mpki = [
        hierarchy.l3_mpki(core.core_id, core.instr_count) for core in cores
    ]

    served_hit_rate = (
        msc.served_hit_rate() if hasattr(msc, "served_hit_rate") else 0.0
    )
    array = getattr(msc, "array", None)
    array_hit_rate = array.hit_rate() if array is not None else 0.0

    tag_cache = getattr(msc, "tag_cache", None)
    tag_miss_rate = tag_cache.miss_rate() if tag_cache is not None else None

    decisions: dict[str, int] = (dict(msc.policy.decisions)
                                 if isinstance(msc.policy, DapPolicy) else {})

    mm_cas = msc.mm_dev.total_cas()
    cache_cas = _cache_cas_total(system)
    total_cas = mm_cas + cache_cas

    # Per-source delivered bandwidth and measured access fractions, so
    # offline reports can compare the run's partition against the
    # bandwidth model's optimum without re-deriving from CAS counts.
    write_dev = getattr(msc, "cache_write_dev", None)
    mm_dev_cas = mm_cas
    cache_dev_cas = msc.cache_dev.total_cas()
    write_dev_cas = write_dev.total_cas() if write_dev is not None else 0
    dev_total = mm_dev_cas + cache_dev_cas + write_dev_cas

    extras = {
        "mm_gbps": msc.mm_dev.delivered_gbps(),
        "cache_gbps": msc.cache_dev.delivered_gbps(),
        "cache_write_gbps": (write_dev.delivered_gbps()
                             if write_dev is not None else 0.0),
        "mm_access_fraction": mm_dev_cas / dev_total if dev_total else 0.0,
        "cache_access_fraction": (cache_dev_cas / dev_total
                                  if dev_total else 0.0),
        "cache_write_access_fraction": (write_dev_cas / dev_total
                                        if dev_total else 0.0),
        "mm_row_hit_rate": msc.mm_dev.row_hit_rate(),
        "cache_row_hit_rate": msc.cache_dev.row_hit_rate(),
        "sfrm_issued": float(msc.stats.sfrm_issued),
        "sfrm_wasted": float(msc.stats.sfrm_wasted),
        "fwb_applied": float(msc.stats.fwb_applied),
        "wb_applied": float(msc.stats.wb_applied),
        "ifrm_applied": float(msc.stats.ifrm_applied),
        "victim_dirty_lines": float(msc.stats.victim_dirty_lines),
        "meta_reads": float(msc.stats.meta_reads),
        "meta_writes": float(msc.stats.meta_writes),
        "demand_mm_cas": float(
            msc.mm_dev.cas_by_kind().get(AccessKind.DEMAND_READ, 0)
        ),
    }
    # Policy-specific counters (Banshee fill admission, TUNTU update
    # skips, CBP prefetch credits). The base policy returns {} so runs
    # covered by the determinism golden gain no extras keys.
    extras.update(msc.policy.result_extras())

    return RunResult(
        policy=system.config.policy,
        cycles=system.cycles,
        instructions=instructions,
        ipc=ipcs,
        l3_mpki=mpki,
        avg_read_latency=msc.stats.avg_read_latency(),
        served_hit_rate=served_hit_rate,
        array_hit_rate=array_hit_rate,
        mm_cas=mm_cas,
        cache_cas=cache_cas,
        mm_cas_fraction=mm_cas / total_cas if total_cas else 0.0,
        delivered_gbps=_delivered_gbps(system),
        tag_cache_miss_rate=tag_miss_rate,
        dap_decisions=decisions,
        extras=extras,
    )
