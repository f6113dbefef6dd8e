"""Full-system assembly and run loop.

:class:`SystemConfig` captures everything the paper varies (core count,
memory-side cache kind/capacity/bandwidth, main-memory technology,
policy, DAP parameters); :func:`build_system` wires devices, arrays,
policy and cores together; :class:`System` runs the traces to completion
and exposes the raw components for metric collection.
"""

from __future__ import annotations

import gc

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

from repro.cache.alloy import AlloyCacheArray
from repro.cache.dbc import DirtyBitCache
from repro.cache.footprint import FootprintPredictor
from repro.cache.sectored import SectoredCacheArray
from repro.cache.tag_cache import TagCache
from repro.engine.clock import accesses_per_cpu_cycle
from repro.engine.event_queue import Simulator
from repro.errors import ConfigError
from repro.hierarchy.cache_hierarchy import CacheHierarchy, SramLevels
from repro.hierarchy.cpu_core import TraceCore, TraceEntry
from repro.hierarchy.msc_alloy import AlloyMscController
from repro.hierarchy.msc_base import MscController
from repro.hierarchy.msc_edram import EdramMscController
from repro.hierarchy.msc_sectored import SectoredMscController
from repro.mem.configs import DramConfig, ddr4_2400, edram_channels, hbm_102
from repro.mem.device import MemoryDevice
from repro.policies.banshee import BansheePolicy
from repro.policies.base import BaselinePolicy, SteeringPolicy
from repro.policies.batman import BatmanPolicy
from repro.policies.bear import BearFillPolicy
from repro.policies.cbp import CbpPolicy
from repro.policies.dap import (DapAlloyPolicy, DapEdramPolicy,
                                DapSectoredPolicy, ThreadAwareDapPolicy)
from repro.policies.sbd import SbdPolicy
from repro.policies.tuntu import TuntuPolicy

GiB = 1 << 30
MiB = 1 << 20

POLICY_NAMES = (
    "baseline", "dap", "dap-ta", "dap-fwb", "dap-fwb-wb", "dap-no-sfrm",
    "sbd", "sbd-wt", "batman", "bear",
    "banshee", "banshee-always", "tuntu", "cbp",
)


@dataclass(frozen=True)
class SystemConfig:
    """One evaluated platform (defaults = the paper's Section V system)."""

    num_cores: int = 8
    cpu_ghz: float = 4.0
    # Memory-side cache.
    msc_kind: str = "sectored"              # sectored | alloy | edram
    msc_capacity_bytes: int = 4 * GiB
    msc_assoc: int = 4
    sector_bytes: int = 4096
    msc_dram: DramConfig = field(default_factory=hbm_102)
    use_tag_cache: bool = True
    use_footprint: bool = True
    # Main memory.
    mm_dram: DramConfig = field(default_factory=ddr4_2400)
    # SRAM metadata structures (scaled alongside the cache capacity).
    tag_cache_entries: int = 32 * 1024
    dbc_entries: int = 32 * 1024
    footprint_entries: int = 64 * 1024
    # Steering policy.
    policy: str = "baseline"
    dap_window: int = 64
    dap_efficiency: float = 0.75
    # SRAM hierarchy and cores.
    sram: SramLevels = field(default_factory=SramLevels)
    enable_prefetch: bool = True
    rob_entries: int = 224
    width: int = 4
    mshrs: int = 16

    def __post_init__(self) -> None:
        if self.msc_kind not in ("sectored", "alloy", "edram"):
            raise ConfigError(f"unknown msc_kind {self.msc_kind!r}")
        if self.policy not in POLICY_NAMES:
            raise ConfigError(
                f"unknown policy {self.policy!r}; expected one of {POLICY_NAMES}"
            )
        if self.num_cores <= 0:
            raise ConfigError("num_cores must be positive")
        # A core with no ROB entry, dispatch slot or MSHR cannot make
        # progress: it would "finish" having run nothing.
        for name in ("rob_entries", "width", "mshrs"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value}")

    def with_policy(self, policy: str) -> "SystemConfig":
        return replace(self, policy=policy)

    def key(self) -> str:
        """Stable identity for memoizing per-workload alone-run IPCs."""
        return (
            f"{self.msc_kind}/{self.msc_capacity_bytes}/{self.msc_dram.name}/"
            f"{self.mm_dram.name}/{self.sram.l3_bytes}/pf{self.enable_prefetch}"
        )


def _make_policy(config: SystemConfig, b_ms: float, b_mm: float) -> SteeringPolicy:
    name = config.policy
    if name == "baseline":
        return BaselinePolicy()
    if name in ("dap", "dap-ta", "dap-fwb", "dap-fwb-wb", "dap-no-sfrm"):
        if config.msc_kind == "sectored":
            cls = ThreadAwareDapPolicy if name == "dap-ta" else DapSectoredPolicy
            return cls(
                b_ms=b_ms,
                b_mm=b_mm,
                window=config.dap_window,
                efficiency=config.dap_efficiency,
                enable_sfrm=(name in ("dap", "dap-ta")) and config.use_tag_cache,
                enable_ifrm=name not in ("dap-fwb", "dap-fwb-wb"),
                enable_wb=name != "dap-fwb",
            )
        if config.msc_kind == "alloy":
            return DapAlloyPolicy(b_ms=b_ms, b_mm=b_mm, window=config.dap_window,
                                  efficiency=config.dap_efficiency)
        return DapEdramPolicy(b_ms=b_ms, b_mm=b_mm, window=config.dap_window,
                              efficiency=config.dap_efficiency)
    if name == "sbd":
        return SbdPolicy(force_cleaning=True)
    if name == "sbd-wt":
        return SbdPolicy(force_cleaning=False)
    if name == "batman":
        return BatmanPolicy()
    if name == "bear":
        if config.msc_kind != "alloy":
            raise ConfigError("BEAR applies to the Alloy cache only")
        return BearFillPolicy()
    if name == "banshee":
        return BansheePolicy()
    if name == "banshee-always":
        return BansheePolicy(fill_threshold=0)
    if name == "tuntu":
        return TuntuPolicy()
    if name == "cbp":
        return CbpPolicy()
    raise ConfigError(f"unknown policy {name!r}")


def _build_msc(sim: Simulator, config: SystemConfig) -> MscController:
    mm_dev = MemoryDevice(sim, config.mm_dram, cpu_ghz=config.cpu_ghz)
    b_mm = accesses_per_cpu_cycle(config.mm_dram.peak_gbps, cpu_ghz=config.cpu_ghz)

    if config.msc_kind == "edram":
        read_dev = MemoryDevice(sim, edram_channels("read"), cpu_ghz=config.cpu_ghz)
        write_dev = MemoryDevice(sim, edram_channels("write"), cpu_ghz=config.cpu_ghz)
        b_ms = accesses_per_cpu_cycle(read_dev.peak_gbps, cpu_ghz=config.cpu_ghz)
        array = SectoredCacheArray(
            "edram", config.msc_capacity_bytes, assoc=config.msc_assoc,
            sector_bytes=config.sector_bytes,
        )
        policy = _make_policy(config, b_ms, b_mm)
        return EdramMscController(sim, read_dev, write_dev, mm_dev, array, policy)

    cache_dev = MemoryDevice(sim, config.msc_dram, cpu_ghz=config.cpu_ghz)
    b_ms = accesses_per_cpu_cycle(config.msc_dram.peak_gbps, cpu_ghz=config.cpu_ghz)
    policy = _make_policy(config, b_ms, b_mm)

    if config.msc_kind == "alloy":
        array = AlloyCacheArray("alloy", config.msc_capacity_bytes)
        return AlloyMscController(sim, cache_dev, mm_dev, array, policy,
                                  dbc=DirtyBitCache(entries=config.dbc_entries))

    array = SectoredCacheArray(
        "dram-cache", config.msc_capacity_bytes, assoc=config.msc_assoc,
        sector_bytes=config.sector_bytes,
    )
    return SectoredMscController(
        sim, cache_dev, mm_dev, array, policy,
        tag_cache=(TagCache(entries=config.tag_cache_entries)
                   if config.use_tag_cache else None),
        footprint=(FootprintPredictor(capacity=config.footprint_entries)
                   if config.use_footprint else None),
    )


class System:
    """A built platform plus its cores, ready to run."""

    def __init__(
        self,
        sim: Simulator,
        config: SystemConfig,
        msc: MscController,
        hierarchy: CacheHierarchy,
        cores: list[TraceCore],
    ) -> None:
        self.sim = sim
        self.config = config
        self.msc = msc
        self.hierarchy = hierarchy
        self.cores = cores
        #: Optional telemetry hub (see :mod:`repro.obs`); installed by
        #: the run helpers, started on :meth:`run`.
        self.telemetry = None

    def run(self, max_cycles: Optional[int] = None) -> None:
        """Run every core's trace to completion (plus queue drain).

        The cyclic garbage collector is paused for the duration of the
        event loop: the simulation allocates millions of short-lived
        requests/events that reference counting already reclaims, so
        generational scans are pure overhead. Purely a wall-clock
        matter — object lifetimes and results are unchanged.
        """
        for core in self.cores:
            core.start()
        if self.telemetry is not None:
            self.telemetry.start()
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if max_cycles is not None:
                self.sim.run(until=max_cycles)
            else:
                self.sim.run()
        finally:
            if gc_was_enabled:
                gc.enable()
        for core in self.cores:
            if not core.done:
                core.finish_cycle = self.sim.now or 1
                core.done = True

    @property
    def cycles(self) -> int:
        return max((core.finish_cycle or 0) for core in self.cores)

    def ipcs(self) -> list[float]:
        return [core.ipc for core in self.cores]


def build_system(
    config: SystemConfig, traces: Sequence[Iterable[TraceEntry]]
) -> System:
    """Assemble a system running one trace per core."""
    if len(traces) != config.num_cores:
        raise ConfigError(
            f"{config.num_cores} cores but {len(traces)} traces supplied"
        )
    sim = Simulator()
    msc = _build_msc(sim, config)
    hierarchy = CacheHierarchy(
        sim, config.num_cores, msc, levels=config.sram,
        enable_prefetch=config.enable_prefetch,
    )
    system_cores: list[TraceCore] = []
    system = System(sim, config, msc, hierarchy, system_cores)
    for core_id, trace in enumerate(traces):
        system_cores.append(
            TraceCore(
                sim, core_id, trace, hierarchy,
                rob_entries=config.rob_entries, width=config.width,
                mshrs=config.mshrs,
            )
        )
    return system
