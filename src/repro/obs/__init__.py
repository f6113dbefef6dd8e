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
:mod:`repro.obs.compare` diffs two runs with regression thresholds; and
:mod:`repro.obs.bench` tracks simulator throughput across commits
(``BENCH_*.json``). All of it is exposed by the ``repro analyze`` CLI
(:mod:`repro.obs.cli`) and is strictly read-only: analysis never touches
simulation state or results.

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

**Continuous profiling** (PR 8): :mod:`repro.obs.profiler` is a
dependency-free sampling profiler (a background thread walking
``sys._current_frames()`` of tracked cell threads into the collapsed-
stack format, with per-cell attribution); :mod:`repro.obs.flame`
renders collapsed profiles to self-contained SVG/HTML flamegraphs;
:mod:`repro.obs.profdiff` ranks symbol-level self-time drift between
two captures; :mod:`repro.obs.tsdb` is the append-only JSONL
time-series store behind the dash; and :mod:`repro.obs.dash` assembles
BENCH trajectory, flamegraph, profile deltas, metric sparklines, and
validation verdicts into one offline HTML observatory (``repro dash``).
Profiling is observation-only and off by default: it never enters cell
cache keys or request fingerprints, and a profiled run's results are
bit-identical to an unprofiled one.
"""

from repro.obs.analysis import (
    TraceAnalysis,
    analyze_trace,
    render_csv,
    render_markdown,
    sparkline,
)
from repro.obs.bench import (
    build_bench_record,
    compare_bench,
    latest_bench,
    load_bench,
    write_bench,
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
from repro.obs.flame import render_html, render_svg
from repro.obs.probes import attach_system_probes
from repro.obs.profdiff import ProfileDiff, diff_profiles, render_diff
from repro.obs.profiler import (
    DEFAULT_HZ,
    Profile,
    SamplingProfiler,
    merge_collapsed,
    top_symbols,
)
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
from repro.obs.tsdb import TimeSeriesStore, bench_row, metrics_row, samples_row
from repro.obs.trace import (
    TraceWriter,
    iter_trace,
    read_trace,
    trace_paths,
    write_manifest,
)

__all__ = [
    "DEFAULT_HZ",
    "MetricSpec",
    "MetricsRegistry",
    "Profile",
    "ProfileDiff",
    "REGISTRY",
    "SamplingProfiler",
    "Series",
    "Span",
    "Telemetry",
    "TelemetryConfig",
    "TimeSeriesStore",
    "TraceAnalysis",
    "TraceWriter",
    "analyze_trace",
    "attach_system_probes",
    "bench_row",
    "build_bench_record",
    "build_manifest",
    "compare_bench",
    "compare_dirs",
    "compare_runs",
    "configure_logging",
    "current_traceparent",
    "diff_manifests",
    "diff_profiles",
    "emit_span",
    "get_logger",
    "git_sha",
    "iter_trace",
    "latest_bench",
    "lint_exposition",
    "load_bench",
    "make_traceparent",
    "merge_collapsed",
    "metrics_row",
    "parse_exposition",
    "parse_traceparent",
    "read_trace",
    "render_comparison",
    "render_csv",
    "render_diff",
    "render_dir_comparison",
    "render_html",
    "render_markdown",
    "render_svg",
    "samples_row",
    "sparkline",
    "top_symbols",
    "trace_paths",
    "use_span_sink",
    "use_traceparent",
    "write_bench",
    "write_manifest",
]
