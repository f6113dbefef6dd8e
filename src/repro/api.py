"""The public programmatic API: one typed facade over the repro package.

Everything outside the package — the unified ``repro`` CLI, the
simulation service, scripts, notebooks — drives experiments through
these three calls instead of importing runner/engine internals:

- :func:`run_experiment` executes one registered experiment and returns
  its rendered :class:`~repro.experiments.scale.ExperimentResult`;
- :func:`run_cells` executes a hand-built cell list through the same
  cached, parallel engine;
- :func:`submit` enqueues an :class:`ExperimentRequest` on a persistent
  job store for a service worker to execute asynchronously.

Requests and statuses are frozen dataclasses with dict/JSON round-trips
(:meth:`ExperimentRequest.to_dict` / :meth:`ExperimentRequest.from_dict`)
so the same schema travels over HTTP, through SQLite, and in tests.

Example::

    from repro.api import ExperimentRequest, run_experiment

    result = run_experiment(
        ExperimentRequest(experiment="fig06", scale="smoke",
                          workloads=("mcf",)))
    result.print()
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence, Union

from repro.errors import ConfigError
from repro.experiments.cellcache import CellCache, ExecStats, default_cache_dir
from repro.experiments.scale import ExperimentResult
from repro.experiments.exec import (
    AloneIpcCell,
    Cell,
    CellExecutionCancelled,
    CellExecutionError,
    MixCell,
    TaskCell,
    execute_cells,
    run_spec,
)
from repro.experiments.registry import EXPERIMENTS, get_spec
from repro.metrics.stats import RunResult
from repro.obs.telemetry_config import DEFAULT_PROBE_INTERVAL, TelemetryConfig

__all__ = [
    "ExperimentRequest",
    "JobStatus",
    "JOB_STATES",
    "TERMINAL_STATES",
    "RunResult",
    "ExperimentResult",
    "ExecStats",
    "CellExecutionError",
    "CellExecutionCancelled",
    "Cell",
    "MixCell",
    "AloneIpcCell",
    "TaskCell",
    "CellCache",
    "TelemetryConfig",
    "run_experiment",
    "run_cells",
    "submit",
    "default_cache",
    "result_to_dict",
    "stats_to_dict",
]

#: Lifecycle of a service job. ``queued`` jobs wait for a worker (or a
#: retry backoff); ``running`` jobs are claimed by exactly one worker.
JOB_STATES = ("queued", "running", "succeeded", "failed", "cancelled")
TERMINAL_STATES = ("succeeded", "failed", "cancelled")


@dataclass(frozen=True)
class ExperimentRequest:
    """One experiment invocation, as data.

    The same object parameterizes a direct :func:`run_experiment` call,
    a :func:`submit` to the job queue, and a ``POST /jobs`` body.
    ``experiment``/``scale``/``workloads`` determine the simulated
    result (and hence the request :meth:`fingerprint`); the remaining
    fields only shape *how* it executes (parallelism, tracing,
    service-side timeout/retry policy).
    """

    experiment: str
    scale: Optional[str] = None
    workloads: Optional[tuple] = None
    jobs: int = 1
    resume: bool = False
    trace: bool = False
    probe_interval: int = DEFAULT_PROBE_INTERVAL
    #: Service-side knobs; ignored by direct execution.
    timeout_seconds: Optional[float] = None
    max_attempts: int = 2

    def __post_init__(self):
        if self.workloads is not None and not isinstance(
                self.workloads, tuple):
            object.__setattr__(self, "workloads", tuple(self.workloads))

    def validate(self) -> None:
        """Reject malformed requests before they reach a queue."""
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"available: {sorted(EXPERIMENTS)}")
        if self.scale is not None and self.scale not in (
                "smoke", "small", "paper"):
            raise ConfigError(f"unknown scale {self.scale!r}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}")
        if self.probe_interval <= 0:
            raise ConfigError(
                f"probe_interval must be positive, got {self.probe_interval}")

    def to_dict(self) -> dict:
        data = asdict(self)
        if data["workloads"] is not None:
            data["workloads"] = list(data["workloads"])
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentRequest":
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        unknown = set(data) - set(known)
        if unknown:
            raise ConfigError(
                f"unknown request field(s): {sorted(unknown)}")
        if "experiment" not in known:
            raise ConfigError("request needs an 'experiment' field")
        if known.get("workloads") is not None:
            known["workloads"] = tuple(known["workloads"])
        return cls(**known)

    def fingerprint(self) -> str:
        """Content address of *what* is simulated (not how).

        Two requests with the same fingerprint produce identical
        results, so the service can report dedupe statistics per
        fingerprint; the actual dedupe tier is the content-addressed
        cell cache, which is shared at cell granularity.
        """
        payload = {
            "experiment": self.experiment,
            "scale": self.scale or os.environ.get("REPRO_SCALE", "smoke"),
            "workloads": sorted(self.workloads) if self.workloads else None,
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class JobStatus:
    """A snapshot of one service job, as returned by every endpoint."""

    id: str
    state: str
    request: ExperimentRequest
    fingerprint: str = ""
    attempts: int = 0
    error: Optional[str] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    worker: Optional[str] = None
    done_cells: int = 0
    total_cells: int = 0
    #: Filled on success: executed/cached cell counts (the dedupe
    #: signal — a fully cache-served re-submission has executed == 0).
    executed_cells: int = 0
    cached_cells: int = 0
    #: Unix time of the owning worker's last sign of life (set on claim,
    #: refreshed on every per-cell progress update).  Lets the janitor
    #: recover jobs whose worker died *while the service is live*, and
    #: lets /healthz/ready surface execution stalls.
    heartbeat: Optional[float] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> dict:
        data = asdict(self)
        data["request"] = self.request.to_dict()
        data["terminal"] = self.terminal
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "JobStatus":
        data = dict(data)
        data.pop("terminal", None)
        data["request"] = ExperimentRequest.from_dict(data["request"])
        return cls(**data)


# ----------------------------------------------------------------------
# Result serialization (job results must survive SQLite + HTTP)
# ----------------------------------------------------------------------

def stats_to_dict(stats: Optional[ExecStats]) -> Optional[dict]:
    """JSON-ready digest of a sweep's :class:`ExecStats`."""
    if stats is None:
        return None
    events = sum(p.events for p in stats.profile)
    sim_wall = sum(p.wall for p in stats.profile)
    return {
        "total": stats.total,
        "executed": stats.executed,
        "cache_hits": stats.cache_hits,
        "replayed_failures": stats.replayed_failures,
        "failed": stats.failed,
        "elapsed": round(stats.elapsed, 6),
        "events": events,
        "events_per_sec": round(events / sim_wall, 1) if sim_wall > 0 else 0.0,
        "traces_generated": stats.traces_generated,
        "traces_reused": stats.traces_reused,
    }


def result_to_dict(result: ExperimentResult) -> dict:
    """JSON-ready rendering of an :class:`ExperimentResult` table.

    Rows keep their raw (unformatted) values, so equality between a
    service-executed job and a direct run is a bit-identical check,
    not a pretty-printing one.
    """
    return {
        "experiment": result.experiment,
        "headers": list(result.headers),
        "rows": [list(row) for row in result.rows],
        "notes": result.notes,
        "stats": stats_to_dict(result.stats),
    }


# ----------------------------------------------------------------------
# Execution facade
# ----------------------------------------------------------------------

def _telemetry_of(request: ExperimentRequest,
                  trace_dir: Optional[str]) -> Optional[TelemetryConfig]:
    if not request.trace:
        return None
    return TelemetryConfig(probe_interval=request.probe_interval,
                           trace_dir=trace_dir)


def run_experiment(
    request: Union[ExperimentRequest, str],
    *,
    cache: Union[CellCache, str, None] = None,
    trace_dir: Optional[str] = None,
    should_stop: Optional[Callable[[], Optional[str]]] = None,
    on_cell: Optional[Callable[[str, str, int, int], None]] = None,
    spec=None,
    **overrides,
) -> ExperimentResult:
    """Execute one registered experiment; the canonical entry point.

    ``request`` is an :class:`ExperimentRequest` or a bare experiment
    id (``"fig06"``); keyword ``overrides`` patch request fields, e.g.
    ``run_experiment("fig06", scale="smoke", workloads=("mcf",))``.

    ``cache`` is a :class:`CellCache` or a directory path (``None``
    runs uncached; use :func:`default_cache` for the shared store).
    A request with ``trace`` set instruments every simulated cell,
    sampling every ``probe_interval`` cycles and, when ``trace_dir`` is
    given, writing one JSONL trace per cell under it.
    ``should_stop`` / ``on_cell`` are forwarded to the engine.
    ``spec`` lets a caller that already resolved the
    :class:`ExperimentSpec` (the runner CLI, tests with synthetic
    specs) skip the registry lookup.
    """
    if isinstance(request, str):
        request = ExperimentRequest(experiment=request)
    if overrides:
        data = request.to_dict()
        data.update(overrides)
        request = ExperimentRequest.from_dict(data)
    request.validate()
    if spec is None:
        spec = get_spec(request.experiment)
    return run_spec(
        spec,
        scale=request.scale,
        workloads=list(request.workloads) if request.workloads else None,
        jobs=max(1, request.jobs),
        cache=cache,
        resume=request.resume,
        telemetry=_telemetry_of(request, trace_dir),
        should_stop=should_stop,
        on_cell=on_cell,
    )


def run_cells(
    cells: Sequence[Cell],
    *,
    jobs: int = 1,
    cache: Union[CellCache, str, None] = None,
    resume: bool = False,
    should_stop: Optional[Callable[[], Optional[str]]] = None,
    on_cell: Optional[Callable[[str, str, int, int], None]] = None,
) -> tuple[dict, ExecStats]:
    """Execute a hand-built cell list through the cached engine.

    A thin, stable alias for the engine's ``execute_cells``: scripts
    that sweep custom (mix, config) grids use this instead of importing
    :mod:`repro.experiments.exec` directly.
    """
    return execute_cells(cells, jobs=jobs, cache=cache, resume=resume,
                         should_stop=should_stop, on_cell=on_cell)


def submit(request: ExperimentRequest, store) -> JobStatus:
    """Enqueue a request on a job store; a service worker executes it.

    ``store`` is a :class:`repro.service.jobstore.JobStore` or a path
    to its SQLite database.  Returns the queued :class:`JobStatus`
    immediately; poll ``store.get(status.id)`` (or the service's
    ``GET /jobs/<id>``) for completion.
    """
    from repro.service.jobstore import JobStore

    if not isinstance(store, JobStore):
        store = JobStore(store)
    request.validate()
    return store.submit(request)


def default_cache(cache_dir: Optional[str] = None) -> CellCache:
    """The shared on-disk cell cache (``$REPRO_CACHE_DIR`` wins)."""
    return CellCache(cache_dir or default_cache_dir())
