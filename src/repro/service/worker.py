"""The service worker pool: jobs → the cell engine, with guard rails.

Each worker thread claims jobs from the :class:`~repro.service.jobstore.
JobStore` and executes them through the public facade
(:func:`repro.api.run_experiment`), so a service-executed job takes the
*identical* code path as a direct ``repro experiment`` invocation —
that, plus the shared content-addressed cell cache, is what makes
service results bit-identical to local runs and repeat submissions free.

Guard rails, all first-class:

- **timeout** — a per-job deadline checked between cells through the
  engine's ``should_stop`` hook; an expired job is failed (and retried,
  if its attempt budget allows) with everything simulated so far already
  in the cell cache;
- **cancellation** — ``cancel_requested`` on the job row, observed by
  the same hook;
- **retries** — bounded by ``ExperimentRequest.max_attempts`` with
  exponential backoff, bookkept by the store;
- **graceful drain** — ``stop()`` lets the in-flight *cells* finish,
  then releases unfinished jobs back to the queue without an attempt
  penalty, so a redeploy loses zero simulation work;
- **progress** — every settled cell posts an event to the store (the
  SSE feed), and traced jobs additionally stream sampled telemetry
  records through a :class:`~repro.obs.progress.TraceTailer`;
- **janitor** — one housekeeping thread per pool periodically recovers
  jobs whose worker heartbeat went silent (live orphan recovery, no
  restart needed), prunes terminal jobs' event logs past the TTL, and
  appends a metrics snapshot to the time-series store.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional

from repro.api import (
    CellExecutionCancelled,
    ExperimentRequest,
    JobStatus,
    result_to_dict,
    run_experiment,
)
from repro.errors import ReproError
from repro.experiments.cellcache import CellCache
from repro.obs.logs import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.progress import TraceTailer
from repro.obs.spans import use_span_sink, use_traceparent
from repro.service.jobstore import JobStore

#: How long an idle worker sleeps between claim attempts.
DEFAULT_POLL_SECONDS = 0.1
#: A running job whose heartbeat is older than this is an orphan the
#: janitor may recover while the service is live.  Deliberately generous:
#: a healthy worker beats on every settled cell, so minutes of silence
#: means the thread (or a sibling process) is gone, not slow.
DEFAULT_HEARTBEAT_TIMEOUT = 600.0
#: How often the janitor thread wakes up.
DEFAULT_JANITOR_INTERVAL = 30.0
#: Throttle for the cancel-flag poll inside should_stop (seconds).
CANCEL_POLL_SECONDS = 0.25
#: Keep every Nth telemetry sample when forwarding to the SSE feed.
SSE_SAMPLE_STRIDE = 10

log = get_logger("repro.service.worker")

JOBS_SETTLED = REGISTRY.counter(
    "repro_jobs_total",
    "Jobs settled by this process's worker pool, by outcome",
    ("outcome",))
JOBS_DEDUPED = REGISTRY.counter(
    "repro_jobs_deduped_total",
    "Succeeded jobs served entirely from the cell cache "
    "(zero executed cells)")
JOB_SECONDS = REGISTRY.histogram(
    "repro_job_seconds", "Wall-clock seconds per job execution attempt")
WORKER_CELLS = REGISTRY.counter(
    "repro_worker_cells_total",
    "Cells settled under service jobs, by engine status",
    ("status",))


class _JobRun:
    """Per-job execution context: hooks, deadline, telemetry tailer."""

    def __init__(self, store: JobStore, job: JobStatus,
                 stop_event: threading.Event,
                 trace_dir: Optional[str]) -> None:
        self.store = store
        self.job = job
        self.stop_event = stop_event
        self.trace_dir = trace_dir
        self.deadline = (time.monotonic() + job.request.timeout_seconds
                         if job.request.timeout_seconds else None)
        self._last_cancel_poll = 0.0
        self._cancelled = False
        self._tailer = TraceTailer(trace_dir, sample=SSE_SAMPLE_STRIDE) \
            if trace_dir else None

    def should_stop(self) -> Optional[str]:
        """The engine's cancellation hook, polled between cells."""
        if self.stop_event.is_set():
            return "shutdown"
        if self.deadline is not None and time.monotonic() > self.deadline:
            return "timeout"
        now = time.monotonic()
        if now - self._last_cancel_poll >= CANCEL_POLL_SECONDS:
            self._last_cancel_poll = now
            self._cancelled = self.store.cancel_requested(self.job.id)
        return "cancelled" if self._cancelled else None

    def on_cell(self, label: str, status: str, done: int, total: int) -> None:
        """The engine's progress hook: one event per settled cell."""
        WORKER_CELLS.labels(status=status).inc()
        self.store.set_progress(self.job.id, done, total)
        self.store.add_event(self.job.id, {
            "t": "cell", "label": label, "status": status,
            "done": done, "total": total,
        })
        self.pump_telemetry()

    def on_span(self, finished) -> None:
        """Span sink: per-cell timing spans join the job's SSE feed."""
        self.store.add_event(self.job.id, {"t": "span", **finished.to_dict()})

    def pump_telemetry(self) -> None:
        """Forward new telemetry JSONL records to the SSE feed."""
        if self._tailer is None:
            return
        for stem, record in self._tailer.iter_new():
            kind = record.get("t")
            if kind == "sample":
                self.store.add_event(self.job.id, {
                    "t": "telemetry", "trace": stem,
                    "cycle": record.get("cycle"),
                    "values": record.get("values"),
                })
            elif kind == "meta":
                self.store.add_event(self.job.id, {
                    "t": "telemetry-meta", "trace": stem,
                    "probes": record.get("probes"),
                })


class WorkerPool:
    """N worker threads draining one job store."""

    def __init__(
        self,
        store: JobStore,
        *,
        workers: int = 2,
        cache: Optional[CellCache] = None,
        trace_root: Optional[str] = None,
        poll_seconds: float = DEFAULT_POLL_SECONDS,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        events_ttl: Optional[float] = None,
        janitor_interval: float = DEFAULT_JANITOR_INTERVAL,
        tsdb: Optional[object] = None,
    ) -> None:
        self.store = store
        self.cache = cache
        self.trace_root = trace_root
        self.poll_seconds = poll_seconds
        self.num_workers = max(1, workers)
        self.heartbeat_timeout = heartbeat_timeout
        self.events_ttl = events_ttl
        self.janitor_interval = janitor_interval
        self.tsdb = tsdb  # a repro.obs.tsdb.TimeSeriesStore, or None
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._janitor: Optional[threading.Thread] = None
        self.jobs_run = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._threads:
            return
        self._stop.clear()
        for i in range(self.num_workers):
            name = f"repro-worker-{os.getpid()}-{i}"
            thread = threading.Thread(
                target=self._loop, name=name, args=(name,), daemon=True)
            thread.start()
            self._threads.append(thread)
        self._janitor = threading.Thread(
            target=self._janitor_loop,
            name=f"repro-janitor-{os.getpid()}", daemon=True)
        self._janitor.start()

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Graceful drain: finish in-flight cells, requeue their jobs."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        if self._janitor is not None:
            self._janitor.join(timeout=timeout)
            self._janitor = None

    @property
    def alive(self) -> int:
        return sum(1 for t in self._threads if t.is_alive())

    # ------------------------------------------------------------------
    def _loop(self, worker_name: str) -> None:
        while not self._stop.is_set():
            try:
                job = self.store.claim(worker_name)
            except Exception:
                # A transient DB hiccup (e.g. lock timeout) must not
                # kill the worker; back off and retry.
                self._stop.wait(self.poll_seconds * 10)
                continue
            if job is None:
                self._stop.wait(self.poll_seconds)
                continue
            self.jobs_run += 1
            self._run_job(worker_name, job)

    def _janitor_loop(self) -> None:
        """Periodic housekeeping; every pass is exception-guarded so a
        transient DB error can never kill the janitor."""
        while not self._stop.wait(self.janitor_interval):
            self.janitor_pass()

    def janitor_pass(self) -> None:
        """One housekeeping sweep (public so tests can call it directly)."""
        try:
            recovered = self.store.recover_orphans(
                stale_seconds=self.heartbeat_timeout)
            if recovered:
                log.warning("janitor requeued %d stale job(s): %s",
                            len(recovered), ", ".join(recovered))
        except Exception as exc:  # noqa: BLE001 — housekeeping is best-effort
            log.warning("janitor orphan pass failed: %s", exc)
        if self.events_ttl is not None:
            try:
                pruned = self.store.prune_events(self.events_ttl)
                if pruned:
                    log.info("janitor pruned %d event row(s) past the "
                             "%.0fs TTL", pruned, self.events_ttl)
            except Exception as exc:  # noqa: BLE001
                log.warning("janitor event prune failed: %s", exc)
        if self.tsdb is not None:
            try:
                from repro.obs.tsdb import metrics_row

                self.tsdb.append("metrics", metrics_row(REGISTRY.snapshot()))
            except Exception as exc:  # noqa: BLE001
                log.warning("janitor metrics scrape failed: %s", exc)

    def _trace_dir_for(self, job: JobStatus) -> Optional[str]:
        if not (job.request.trace and self.trace_root):
            return None
        return os.path.join(self.trace_root, job.id)

    def _run_job(self, worker_name: str, job: JobStatus) -> None:
        # The job's submission-time traceparent becomes the worker
        # thread's trace context: manifests, cell spans, and every log
        # record below carry the same trace id the client holds.
        started = time.perf_counter()
        run = _JobRun(self.store, job, self._stop,
                      self._trace_dir_for(job))
        with use_traceparent(job.traceparent), use_span_sink(run.on_span):
            outcome = self._execute(worker_name, job, run)
        JOBS_SETTLED.labels(outcome=outcome).inc()
        JOB_SECONDS.observe(time.perf_counter() - started)

    def _execute(self, worker_name: str, job: JobStatus,
                 run: _JobRun) -> str:
        """One execution attempt; returns the settled outcome label."""
        log.info("job %s claimed by %s (%s)", job.id, worker_name,
                 job.request.experiment,
                 extra={"job_id": job.id, "worker": worker_name})
        try:
            result = run_experiment(
                job.request,
                cache=self.cache,
                trace_dir=run.trace_dir,
                should_stop=run.should_stop,
                on_cell=run.on_cell,
            )
        except CellExecutionCancelled as exc:
            run.pump_telemetry()
            log.info("job %s stopped: %s", job.id, exc.reason,
                     extra={"job_id": job.id})
            if exc.reason == "shutdown":
                # Drained mid-job: completed cells are cached, so the
                # next claimer resumes instead of re-simulating.
                self.store.release(job.id)
                return "released"
            if exc.reason == "cancelled":
                self.store.mark_cancelled(job.id)
                return "cancelled"
            # timeout (or a future reason): retryable failure
            self.store.fail(job.id, f"stopped: {exc.reason} ({exc})",
                            retryable=True)
            return "timeout"
        except ReproError as exc:
            run.pump_telemetry()
            log.warning("job %s failed: %s: %s", job.id,
                        type(exc).__name__, exc,
                        extra={"job_id": job.id})
            self.store.fail(job.id, f"{type(exc).__name__}: {exc}",
                            retryable=True)
            return "failed"
        except Exception as exc:  # noqa: BLE001 — worker must survive jobs
            log.error("job %s crashed: %s: %s", job.id,
                      type(exc).__name__, exc,
                      extra={"job_id": job.id})
            self.store.fail(job.id, f"unexpected {type(exc).__name__}: {exc}",
                            retryable=True)
            return "failed"
        run.pump_telemetry()
        stats = result.stats
        if (stats is not None and stats.executed == 0
                and stats.cache_hits > 0):
            # Every cell came from the content-addressed cache: this
            # submission was a pure dedupe hit (CI asserts on this).
            JOBS_DEDUPED.inc()
        self.store.complete(job.id, result_to_dict(result))
        log.info("job %s succeeded (%d executed, %d cached)", job.id,
                 stats.executed if stats else 0,
                 stats.cache_hits if stats else 0,
                 extra={"job_id": job.id})
        return "succeeded"
