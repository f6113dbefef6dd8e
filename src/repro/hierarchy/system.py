"""Full-system assembly and run loop.

:func:`build_system` wires devices, arrays, policy and cores together
for a :class:`~repro.hierarchy.config.SystemConfig` (re-exported here);
:class:`System` runs the traces to completion and exposes the raw
components for metric collection. Importing this module loads every
controller and steering policy.
"""

from __future__ import annotations

import gc
from typing import Iterable, Optional, Sequence

from repro.cache.alloy import AlloyCacheArray
from repro.cache.dbc import DirtyBitCache
from repro.cache.footprint import FootprintPredictor
from repro.cache.sectored import SectoredCacheArray
from repro.cache.tag_cache import TagCache
from repro.engine.clock import accesses_per_cpu_cycle
from repro.engine.event_queue import Simulator
from repro.errors import ConfigError
from repro.hierarchy.cache_hierarchy import CacheHierarchy
# GiB, MiB and POLICY_NAMES are re-exported for existing importers.
from repro.hierarchy.config import GiB, MiB, POLICY_NAMES, SystemConfig  # noqa: F401
from repro.hierarchy.cpu_core import TraceCore, TraceEntry
from repro.hierarchy.msc_alloy import AlloyMscController
from repro.hierarchy.msc_base import MscController
from repro.hierarchy.msc_edram import EdramMscController
from repro.hierarchy.msc_sectored import SectoredMscController
from repro.mem.configs import edram_channels
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
