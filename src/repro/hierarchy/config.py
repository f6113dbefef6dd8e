"""Platform configuration as plain data.

:class:`SystemConfig` captures everything the paper varies (core count,
memory-side cache kind/capacity/bandwidth, main-memory technology,
policy, DAP parameters) and :class:`SramLevels` the on-chip SRAM
geometry. Both are frozen dataclasses that import no simulator code, so
cell keys and experiment specs can be built without loading the model;
:mod:`repro.hierarchy.system` turns a config into a running system.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.mem.configs import DramConfig, ddr4_2400, hbm_102

GiB = 1 << 30
MiB = 1 << 20

POLICY_NAMES = (
    "baseline", "dap", "dap-ta", "dap-fwb", "dap-fwb-wb", "dap-no-sfrm",
    "sbd", "sbd-wt", "batman", "bear",
    "banshee", "banshee-always", "tuntu", "cbp",
)


@dataclass(frozen=True)
class SramLevels:
    """Geometry/latency of the three SRAM levels."""

    l1_bytes: int = 32 * 1024
    l1_assoc: int = 8
    l1_latency: int = 3
    l2_bytes: int = 256 * 1024
    l2_assoc: int = 8
    l2_latency: int = 11
    l3_bytes: int = 8 * 1024 * 1024
    l3_assoc: int = 16
    l3_latency: int = 20


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
