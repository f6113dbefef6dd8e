"""Scales, scaled platform configs and the rendered result table.

The paper simulates one billion instructions per thread on gigabyte
caches; a pure-Python reproduction scales the *capacities and trace
lengths together* so the footprint:capacity ratios (and therefore hit
rates, bandwidth pressure, and every shape the paper reports) are
preserved at a laptop-friendly cost. ``Scale`` holds that knob.

Everything here is plain data: experiment specs build their cells and
render their tables from this module without loading the simulator,
which :mod:`repro.experiments.common` runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.errors import ConfigError
from repro.hierarchy.config import GiB, SramLevels, SystemConfig

if TYPE_CHECKING:
    from repro.experiments.cellcache import ExecStats


@dataclass(frozen=True)
class Scale:
    """Joint scaling of capacities, footprints, and trace lengths.

    ``capacity_divisor`` divides the memory-side cache capacity and the
    workload warm-set footprints together, so footprint:capacity ratios
    (hence hit rates and bandwidth pressure) match the paper; the SRAM
    hierarchy shrinks with it so the hot regions still exceed the L3.
    """

    name: str
    capacity_divisor: int
    l1_bytes: int
    l2_bytes: int
    l3_bytes: int
    refs_per_core: int
    kernel_reads: int = 20_000

    @property
    def footprint_scale(self) -> float:
        return 1.0 / self.capacity_divisor

    def msc_capacity(self, paper_bytes: int) -> int:
        return max(1 << 20, paper_bytes // self.capacity_divisor)

    def sram_levels(self) -> SramLevels:
        return SramLevels(l1_bytes=self.l1_bytes, l2_bytes=self.l2_bytes,
                          l3_bytes=self.l3_bytes)


SMOKE = Scale(
    name="smoke", capacity_divisor=64,
    l1_bytes=16 * 1024, l2_bytes=64 * 1024, l3_bytes=256 * 1024,
    refs_per_core=20_000, kernel_reads=8_000,
)
SMALL = Scale(
    name="small", capacity_divisor=16,
    l1_bytes=16 * 1024, l2_bytes=64 * 1024, l3_bytes=1024 * 1024,
    refs_per_core=100_000, kernel_reads=20_000,
)
PAPER = Scale(
    name="paper", capacity_divisor=1,
    l1_bytes=32 * 1024, l2_bytes=256 * 1024, l3_bytes=8 * 1024 * 1024,
    refs_per_core=2_000_000, kernel_reads=100_000,
)

_SCALES = {s.name: s for s in (SMOKE, SMALL, PAPER)}


def get_scale(name: Optional[str] = None) -> Scale:
    """Resolve a scale by name or the ``REPRO_SCALE`` environment var."""
    chosen = name or os.environ.get("REPRO_SCALE", "smoke")
    try:
        return _SCALES[chosen]
    except KeyError:
        raise ConfigError(
            f"unknown scale {chosen!r}; expected one of {sorted(_SCALES)}"
        ) from None


def scaled_config(scale: Scale, policy: str = "baseline",
                  paper_capacity: int = 4 * GiB, **overrides) -> SystemConfig:
    """A SystemConfig with capacities reduced per the scale.

    SRAM metadata structures (tag cache, DBC, footprint table) shrink by
    the same divisor so their pressure — e.g. omnetpp's tag-cache thrash
    in Fig. 5 — is preserved at small scale.
    """
    div = scale.capacity_divisor
    sram = overrides.pop("sram", None) or scale.sram_levels()
    overrides.setdefault("tag_cache_entries", max(2048, 32 * 1024 // div))
    overrides.setdefault("dbc_entries", max(512, 32 * 1024 // div))
    overrides.setdefault("footprint_entries", max(1024, 64 * 1024 // div))
    return SystemConfig(
        policy=policy,
        msc_capacity_bytes=scale.msc_capacity(paper_capacity),
        sram=sram,
        **overrides,
    )



# ----------------------------------------------------------------------
# Result container and rendering
# ----------------------------------------------------------------------

@dataclass
class ExperimentResult:
    """A rendered paper artifact: headers plus per-workload rows."""

    experiment: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: str = ""
    #: Filled in by the execution engine: the sweep's ExecStats
    #: (cells executed / served from cache / failed).
    stats: Optional[ExecStats] = field(default=None, repr=False, compare=False)

    def add(self, *values) -> None:
        self.rows.append(list(values))

    def summary_row(self, label: str, agg: Callable[[Sequence[float]], float],
                    columns: Sequence[int]) -> None:
        """Append an aggregate row (e.g. GMEAN over speedup columns)."""
        values: list = [label]
        numeric_cols = set(columns)
        for col in range(1, len(self.headers)):
            if col in numeric_cols:
                data = [row[col] for row in self.rows
                        if isinstance(row[col], (int, float))]
                values.append(agg(data) if data else "")
            else:
                values.append("")
        self.rows.append(values)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        formatted = []
        for row in self.rows:
            cells = [
                f"{v:.3f}" if isinstance(v, float) else str(v) for v in row
            ]
            formatted.append(cells)
            widths = [max(w, len(c)) for w, c in zip(widths, cells + [""] * (
                len(widths) - len(cells)))]
        lines = [f"== {self.experiment} =="]
        if self.notes:
            lines.append(self.notes)
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for cells in formatted:
            lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)

    def column(self, index: int) -> list:
        return [row[index] for row in self.rows]

    def to_csv(self, directory: str, name: str) -> str:
        """Write the table as ``directory/name.csv``; returns the path."""
        import csv
        import os

        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{name}.csv")
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.headers)
            writer.writerows(self.rows)
        return path

    def print(self) -> None:
        print(self.render())
