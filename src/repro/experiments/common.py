"""Shared experiment machinery: scales, run helpers, table formatting.

The paper simulates one billion instructions per thread on gigabyte
caches; a pure-Python reproduction scales the *capacities and trace
lengths together* so the footprint:capacity ratios (and therefore hit
rates, bandwidth pressure, and every shape the paper reports) are
preserved at a laptop-friendly cost. ``Scale`` holds that knob.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from repro.backends.base import active_backend
from repro.errors import ConfigError
from repro.obs.manifest import build_manifest
from repro.obs.probes import attach_system_probes
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.obs.trace import TraceWriter, trace_paths, write_manifest
from repro.experiments.cellcache import (
    ExecStats,
    alone_ipc_key_parts,
    cell_key,
)
from repro.hierarchy.cache_hierarchy import SramLevels
from repro.hierarchy.system import GiB, SystemConfig, build_system
from repro.metrics.speedup import ALONE_IPC_CACHE
from repro.metrics.stats import RunResult, collect_result
from repro.workloads.mixes import Mix
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace, warm_lines


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


# ----------------------------------------------------------------------
# Config and run helpers
# ----------------------------------------------------------------------

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


# Traces at most this many total references are materialized to lists
# before the run (about 100 MB at the limit); larger ones stream.
_MATERIALIZE_REFS_LIMIT = 1_000_000


def warm_system(system, mix: Mix, scale: Scale) -> int:
    """Pre-install the mix's warm set in the memory-side cache."""
    return system.msc.warm_many(mix.warm_sets(scale.footprint_scale))


def run_mix(mix: Mix, config: SystemConfig, scale: Scale,
            warm: bool = True,
            telemetry: Optional[TelemetryConfig] = None,
            label: Optional[str] = None,
            system_out: Optional[list] = None) -> RunResult:
    """Build, warm, and run one mix on one configuration.

    Every run attaches a provenance manifest (config, policy, git SHA,
    wall time, events/sec) to ``result.extras["manifest"]``.  With a
    :class:`~repro.obs.telemetry.TelemetryConfig` the system is
    additionally instrumented: credit-counter / channel probes sample on
    ``probe_interval`` and, when ``trace_dir`` is set, stream to a JSONL
    trace next to a ``.manifest.json`` copy. Telemetry only observes —
    the simulated outcome is identical with or without it.
    """
    if config.num_cores != mix.num_cores:
        config = replace(config, num_cores=mix.num_cores)
    if scale.refs_per_core * mix.num_cores <= _MATERIALIZE_REFS_LIMIT:
        # Materialize bounded traces at build time. The reference
        # stream is identical, but the synthesis work leaves the run
        # loop (the cores consume a C-speed list iterator), and the
        # trace store shares each (workload, seed) trace across the
        # cells of one invocation. Unbounded (paper-scale) traces keep
        # streaming to cap memory.
        traces = [iter(t) for t in active_backend().mix_traces(
            mix, scale.refs_per_core, scale.footprint_scale)]
    else:
        traces = mix.traces(refs_per_core=scale.refs_per_core,
                            scale=scale.footprint_scale)
    system = build_system(config, traces)
    if system_out is not None:
        # Determinism harnesses fingerprint per-channel state post-run.
        system_out.append(system)
    if warm:
        warm_system(system, mix, scale)

    label = label or f"{mix.name}/{config.policy}"
    tel = sink = manifest_path = None
    if telemetry is not None:
        if telemetry.trace_dir:
            trace_path, manifest_path = trace_paths(telemetry.trace_dir, label)
            sink = TraceWriter(trace_path)
        tel = Telemetry.from_config(system.sim, telemetry, sink=sink)
        attach_system_probes(tel, system)
        if sink is not None:
            sink.write_meta(label, tel.probe_names(), tel.interval)
        system.telemetry = tel

    start = time.perf_counter()
    try:
        system.run()
    finally:
        # Flush and close the trace even when the run raises, so a
        # failing cell still leaves a readable (if truncated) trace.
        if tel is not None:
            tel.close()
    wall = time.perf_counter() - start

    result = collect_result(system)
    manifest = build_manifest(system, wall, label=label, scale=scale.name,
                              telemetry=tel)
    result.extras["manifest"] = manifest
    if manifest_path is not None:
        write_manifest(manifest_path, manifest)
    return result


def alone_ipc(profile_name: str, config: SystemConfig, scale: Scale) -> float:
    """IPC of one copy of a workload running alone (memoized).

    Used as the weighted-speedup reference for heterogeneous mixes; the
    reference platform is the supplied config with a single core.
    Memoized in :data:`ALONE_IPC_CACHE` — an in-process dict layered
    over the shared on-disk cell cache (when one is configured), so
    parallel workers share references instead of recomputing per
    process.
    """
    memo_key = (profile_name, f"{config.key()}/{scale.name}")
    disk_key = cell_key(alone_ipc_key_parts(profile_name, config, scale))
    cached = ALONE_IPC_CACHE.lookup(memo_key, disk_key)
    if cached is not None:
        return cached
    solo = replace(config, num_cores=1, policy="baseline")
    profile = get_profile(profile_name)
    if scale.refs_per_core <= _MATERIALIZE_REFS_LIMIT:
        # Materialized through the trace store: seed 0 at base line 0 is
        # exactly core 0's trace in the workload's rate mix, so the
        # alone reference and the mix cells share one list.
        trace = iter(active_backend().trace(
            profile, scale.refs_per_core, scale=scale.footprint_scale,
            seed=0))
    else:
        trace = generate_trace(
            profile, num_refs=scale.refs_per_core,
            scale=scale.footprint_scale, seed=0,
        )
    system = build_system(solo, [trace])
    for line, dirty in warm_lines(profile, scale=scale.footprint_scale, seed=0):
        system.msc.warm_line(line, dirty)
    system.run()
    ipc = system.cores[0].ipc or 1e-9
    ALONE_IPC_CACHE.store(memo_key, ipc, disk_key)
    return ipc


def mix_alone_ipcs(mix: Mix, config: SystemConfig, scale: Scale) -> list[float]:
    return [alone_ipc(name, config, scale) for name in mix.members]


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
