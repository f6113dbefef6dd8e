"""Cell runners: build, warm, run and collect one simulation.

:func:`run_mix` runs one multi-programmed mix and :func:`alone_ipc` one
workload's single-core reference. Importing this module loads the whole
simulator, so the execution engine imports it only when a cell runs;
scales, scaled configs and result tables live in the import-light
:mod:`repro.experiments.scale` and are re-exported here.

``build_system``, ``warm_system`` and ``collect_result`` are module
globals that :func:`run_mix` calls by name, so a host-time ledger can
wrap each phase by patching this module.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional

from repro.backends.base import active_backend
from repro.obs.manifest import build_manifest
from repro.obs.probes import attach_system_probes
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.obs.trace import TraceWriter, trace_paths, write_manifest
from repro.experiments.scale import (
    PAPER,
    SMALL,
    SMOKE,
    ExperimentResult,
    Scale,
    get_scale,
    scaled_config,
)
from repro.hierarchy.config import SystemConfig
from repro.hierarchy.system import build_system
from repro.metrics.stats import RunResult, collect_result
from repro.workloads.mixes import Mix, rate_mix
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace

# The scale names are re-exported for existing importers.
__all__ = [
    "PAPER", "SMALL", "SMOKE", "ExperimentResult", "Scale", "get_scale",
    "scaled_config", "build_system", "warm_system", "collect_result",
    "run_mix", "alone_ipc",
]

# Traces at most this many total references are materialized before the
# run as packed columns; larger ones stream. At the limit the columns
# hold 10.9 MiB (tracemalloc, rate-8 mix), and synthesis writes them
# directly, so the peak is the same 11.0 MiB.
_MATERIALIZE_REFS_LIMIT = 1_000_000


def warm_system(system, mix: Mix, scale: Scale) -> int:
    """Pre-install the mix's warm set in the memory-side cache.

    Both halves of warmup run here — taking the per-core
    :class:`~repro.workloads.columns.WarmSet` s from the invocation's
    store (synthesizing each on its first use) and installing them — so
    a ledger wrapping this function books all of it.
    """
    return system.msc.warm_many(
        active_backend().warm_sets(mix, scale.footprint_scale))


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
        # loop (the cores index the packed columns), and the trace
        # store shares each (workload, seed) trace across the cells of
        # one invocation. Unbounded (paper-scale) traces keep streaming
        # to cap memory; the cores pack them a chunk at a time.
        traces = active_backend().mix_traces(
            mix, scale.refs_per_core, scale.footprint_scale)
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
    """IPC of one copy of a workload running alone.

    Used as the weighted-speedup reference for heterogeneous mixes; the
    reference platform is the supplied config with a single core. It
    runs as an :class:`~repro.experiments.exec.AloneIpcCell`, so the
    cell cache stores it once per (workload, platform, scale).
    """
    solo = replace(config, num_cores=1, policy="baseline")
    profile = get_profile(profile_name)
    if scale.refs_per_core <= _MATERIALIZE_REFS_LIMIT:
        # Materialized through the trace store: seed 0 at base line 0 is
        # exactly core 0's trace in the workload's rate mix, so the
        # alone reference and the mix cells share one trace.
        trace = active_backend().trace(
            profile, scale.refs_per_core, scale=scale.footprint_scale,
            seed=0)
    else:
        trace = generate_trace(
            profile, num_refs=scale.refs_per_core,
            scale=scale.footprint_scale, seed=0,
        )
    system = build_system(solo, [trace])
    # A one-copy rate mix: core 0's warm set, as in the rate-8 mix.
    warm_system(system, rate_mix(profile_name, ways=1), scale)
    system.run()
    return system.cores[0].ipc or 1e-9
