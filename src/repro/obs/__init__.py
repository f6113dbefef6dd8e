"""In-run observability and offline analysis of finished runs.

The :mod:`repro.obs` package has two halves:

**In-run**: a :class:`~repro.obs.telemetry.Telemetry` hub samples registered probes on
a simulated-cycle interval (through the event queue, so sampling is
deterministic and never perturbs component state), keeps the series in
bounded ring buffers, and optionally streams every sample — plus
per-decision DAP events — to a JSONL trace file. Every simulation run
additionally emits a :func:`run manifest <repro.obs.manifest.build_manifest>`
describing exactly what was simulated and how fast.

**Offline**: :func:`~repro.obs.analysis.analyze_trace` streams a
finished trace into per-window measured-vs-optimal access partitioning (the paper's
Eq. 2/3), technique grant/deny accounting, and channel timelines;
:mod:`repro.obs.compare` diffs two runs with regression thresholds.
Both are exposed by the ``repro analyze`` CLI (:mod:`repro.obs.cli`)
and are strictly read-only: analysis never touches simulation state or
results.

Telemetry is strictly opt-in: when no :class:`TelemetryConfig` is
supplied, no probes are registered and the only per-decision cost in the
hot path is a single ``is None`` check on the policy's observer slot.

**Service-level**: :mod:`repro.obs.metrics` is a dependency-free
Prometheus-workalike registry (counters/gauges/histograms, text
exposition, a parser/linter, atomic scrapes) and :mod:`repro.obs.logs`
is structured logging.  Both observe the service *around* the
simulator: the experiment engine and the simulator import neither.

The simulator's own speed is measured by the repository benchmark,
``perfbench/`` (see ``perfbench/README.md``), not by this package.
"""
