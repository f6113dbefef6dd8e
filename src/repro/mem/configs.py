"""Device configurations used in the paper's evaluation.

Peak bandwidth sanity (64-byte transfers):

========================  ========  ==========  ======  ============
Config                    channels  cmd clock   burst   peak GB/s
========================  ========  ==========  ======  ============
DDR4-2400 (default MM)      2        1.2 GHz     4       38.4
DDR4-3200                   2        1.6 GHz     4       51.2
LPDDR4-2400 (quad 32-bit)   4        1.2 GHz     8       38.4
HBM 102.4 (default MS$)     4        0.8 GHz     2      102.4
HBM 128                     4        1.0 GHz     2      128.0
HBM 204.8                   8        0.8 GHz     2      204.8
eDRAM (per direction)       2        0.8 GHz     2       51.2
========================  ========  ==========  ======  ============

per-channel GB/s = 64 bytes / (burst / cmd_ghz ns).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.mem.timing import DramTiming


@dataclass(frozen=True)
class DramConfig:
    """Geometry + timing for one memory device (a set of channels)."""

    name: str
    num_channels: int
    device_ghz: float
    timing: DramTiming
    banks_per_channel: int
    row_bytes: int = 2048

    def __post_init__(self) -> None:
        for field_name in ("num_channels", "banks_per_channel", "device_ghz"):
            value = getattr(self, field_name)
            if not value > 0:
                raise ConfigError(f"{self.name}: {field_name} must be "
                                  f"positive, not {value!r}")
        if not self.row_bytes >= 64:
            raise ConfigError(f"{self.name}: row_bytes must be at least 64 "
                              f"(one line), not {self.row_bytes!r}")

    @property
    def channel_gbps(self) -> float:
        """Peak data bandwidth of one channel in GB/s."""
        seconds_per_64b = self.timing.burst / (self.device_ghz * 1e9)
        return 64 / seconds_per_64b / 1e9

    @property
    def peak_gbps(self) -> float:
        """Peak data bandwidth of the whole device in GB/s."""
        return self.channel_gbps * self.num_channels

    def scaled_io(self, extra_io: int) -> "DramConfig":
        """Copy with a different fixed I/O delay (device cycles)."""
        return replace(self, timing=self.timing.with_extra_io(extra_io))


# ----------------------------------------------------------------------
# Main-memory configurations (Section V and Fig. 9)
# ----------------------------------------------------------------------

def ddr4_2400(extra_io: int = 10) -> DramConfig:
    """Dual-channel DDR4-2400 15-15-15-39, 38.4 GB/s, 2 ranks x 8 banks.

    The paper charges an additional ten 1.2 GHz I/O cycles per access for
    board delays; pass ``extra_io=0`` for the "w/o I/O" variant in Fig. 9.
    """
    return DramConfig(
        name="DDR4-2400",
        num_channels=2,
        device_ghz=1.2,
        timing=DramTiming(t_cas=15, t_rcd=15, t_rp=15, t_ras=39, burst=4,
                          extra_io=extra_io),
        banks_per_channel=16,  # two ranks of eight banks
    )


def ddr4_2400_no_io() -> DramConfig:
    """Fig. 9's "default w/o I/O" main memory."""
    return ddr4_2400(extra_io=0)


def ddr4_3200(extra_io: int = 10) -> DramConfig:
    """Dual-channel DDR4-3200 20-20-20-52, 51.2 GB/s (Figs. 9 and 13)."""
    return DramConfig(
        name="DDR4-3200",
        num_channels=2,
        device_ghz=1.6,
        timing=DramTiming(t_cas=20, t_rcd=20, t_rp=20, t_ras=52, burst=4,
                          extra_io=extra_io),
        banks_per_channel=16,
    )


def lpddr4_2400(extra_io: int = 10) -> DramConfig:
    """Quad-channel 32-bit LPDDR4-2400 24-24-24-53 (Fig. 9).

    Same 38.4 GB/s aggregate as the default, ~70% higher row-hit latency,
    more cross-channel parallelism.
    """
    return DramConfig(
        name="LPDDR4-2400",
        num_channels=4,
        device_ghz=1.2,
        timing=DramTiming(t_cas=24, t_rcd=24, t_rp=24, t_ras=53, burst=8,
                          extra_io=extra_io),
        banks_per_channel=8,
    )


# ----------------------------------------------------------------------
# Memory-side cache configurations (Sections V, VI-A3)
# ----------------------------------------------------------------------

def hbm_102() -> DramConfig:
    """Default die-stacked HBM: 4x128-bit channels at 800 MHz, 102.4 GB/s,
    single rank, 16 banks, 2 KB rows, 10-10-10-26."""
    return DramConfig(
        name="HBM-102.4",
        num_channels=4,
        device_ghz=0.8,
        timing=DramTiming(t_cas=10, t_rcd=10, t_rp=10, t_ras=26, burst=2),
        banks_per_channel=16,
    )


def hbm_128() -> DramConfig:
    """128 GB/s point: 1 GHz channels, timings scaled to 12-12-12-32."""
    return DramConfig(
        name="HBM-128",
        num_channels=4,
        device_ghz=1.0,
        timing=DramTiming(t_cas=12, t_rcd=12, t_rp=12, t_ras=32, burst=2),
        banks_per_channel=16,
    )


def hbm_204() -> DramConfig:
    """204.8 GB/s point: eight channels at 800 MHz."""
    return DramConfig(
        name="HBM-204.8",
        num_channels=8,
        device_ghz=0.8,
        timing=DramTiming(t_cas=10, t_rcd=10, t_rp=10, t_ras=26, burst=2),
        banks_per_channel=16,
    )


def edram_channels(direction: str) -> DramConfig:
    """One direction (read or write) of the sectored eDRAM cache.

    The eDRAM cache has independent 51.2 GB/s read and write channel sets;
    access latency is about two-thirds of the main memory page-hit latency
    and there is no read/write turnaround within a direction.
    """
    if direction not in ("read", "write"):
        raise ConfigError(f"direction must be 'read' or 'write', got {direction!r}")
    return DramConfig(
        name=f"eDRAM-{direction}",
        num_channels=2,
        device_ghz=0.8,
        timing=DramTiming(t_cas=7, t_rcd=7, t_rp=7, t_ras=18, burst=2,
                          turnaround=0),
        banks_per_channel=8,
    )
