"""In-run observability and offline analysis of finished runs.

The :mod:`repro.obs` package has two halves:

**In-run** (PR 2): a :class:`Telemetry` hub samples registered probes on
a simulated-cycle interval (through the event queue, so sampling is
deterministic and never perturbs component state), keeps the series in
bounded ring buffers, and optionally streams every sample — plus
per-decision DAP events — to a JSONL trace file. Every simulation run
additionally emits a :func:`run manifest <repro.obs.manifest.build_manifest>`
describing exactly what was simulated and how fast.

**Offline** (this PR): :func:`analyze_trace` streams a finished trace
into per-window measured-vs-optimal access partitioning (the paper's
Eq. 2/3), technique grant/deny accounting, and channel timelines;
:mod:`repro.obs.compare` diffs two runs with regression thresholds.
Both are exposed by the ``repro analyze`` CLI (:mod:`repro.obs.cli`)
and are strictly read-only: analysis never touches simulation state or
results.

Telemetry is strictly opt-in: when no :class:`TelemetryConfig` is
supplied, no probes are registered and the only per-decision cost in the
hot path is a single ``is None`` check on the policy's observer slot.

**Service-level** (PR 7): :mod:`repro.obs.metrics` is a dependency-free
Prometheus-workalike registry (counters/gauges/histograms, text
exposition, a parser/linter, atomic scrapes); :mod:`repro.obs.spans`
threads W3C ``traceparent`` correlation from an HTTP submission through
the queue, worker, engine cells, and run manifests;
:mod:`repro.obs.logs` is trace-correlated structured logging; and
:mod:`repro.obs.top` is the ``repro top`` / ``repro metrics`` operator
CLI.  All of it observes the service *around* the simulator — nothing
instruments the per-event hot path, and determinism goldens are
unaffected.

:mod:`repro.obs.tsdb` is the append-only JSONL time-series store the
service's metrics sampler writes.

The simulator's own speed is measured by the repository benchmark,
``perfbench/`` (see ``perfbench/README.md``), not by this package.
"""

from repro.obs.analysis import (
    TraceAnalysis,
    analyze_trace,
    render_csv,
    render_markdown,
    sparkline,
)
from repro.obs.compare import (
    MetricSpec,
    compare_dirs,
    compare_runs,
    diff_manifests,
    render_comparison,
    render_dir_comparison,
)
from repro.obs.logs import configure_logging, get_logger
from repro.obs.manifest import build_manifest, git_sha
from repro.obs.metrics import (
    REGISTRY,
    MetricsRegistry,
    lint_exposition,
    parse_exposition,
)
from repro.obs.probes import attach_system_probes
from repro.obs.spans import (
    Span,
    current_traceparent,
    emit_span,
    make_traceparent,
    parse_traceparent,
    use_span_sink,
    use_traceparent,
)
from repro.obs.telemetry import Series, Telemetry, TelemetryConfig
from repro.obs.tsdb import TimeSeriesStore, metrics_row, samples_row
from repro.obs.trace import (
    TraceWriter,
    iter_trace,
    read_trace,
    trace_paths,
    write_manifest,
)

__all__ = [
    "MetricSpec",
    "MetricsRegistry",
    "REGISTRY",
    "Series",
    "Span",
    "Telemetry",
    "TelemetryConfig",
    "TimeSeriesStore",
    "TraceAnalysis",
    "TraceWriter",
    "analyze_trace",
    "attach_system_probes",
    "build_manifest",
    "compare_dirs",
    "compare_runs",
    "configure_logging",
    "current_traceparent",
    "diff_manifests",
    "emit_span",
    "get_logger",
    "git_sha",
    "iter_trace",
    "lint_exposition",
    "make_traceparent",
    "metrics_row",
    "parse_exposition",
    "parse_traceparent",
    "read_trace",
    "render_comparison",
    "render_csv",
    "render_dir_comparison",
    "render_markdown",
    "samples_row",
    "sparkline",
    "trace_paths",
    "use_span_sink",
    "use_traceparent",
    "write_manifest",
]
