"""Persistent SQLite-backed job queue for the simulation service.

One database file holds every job the service has ever seen, so a
restarted service resumes exactly where it stopped: queued jobs stay
queued, finished jobs keep their results, and jobs orphaned mid-run by
a crash are re-enqueued on startup (:meth:`JobStore.recover_orphans`).

Concurrency model: the store opens a short-lived connection per
operation (WAL journal, busy timeout), so any number of worker threads
— or whole worker processes sharing the database file — can claim jobs
without stepping on each other.  Claiming uses ``BEGIN IMMEDIATE`` so
exactly one worker wins each queued job.

Progress events are persisted per job in an ``events`` table; the SSE
endpoint replays them by sequence number, which makes progress streams
resumable (``Last-Event-ID`` semantics) and visible even to clients
that connect after the job finished.
"""

from __future__ import annotations

import json
import sqlite3
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.api import ExperimentRequest, JobStatus
from repro.errors import ReproError
from repro.obs.metrics import REGISTRY

#: Default retry backoff: ``base * 2**(attempt-1)`` seconds.
DEFAULT_BACKOFF_BASE = 0.5

# Queue observability (process-global; the /metrics scrape adds live
# queue-depth/state gauges on top of these event counters).
JOBS_SUBMITTED = REGISTRY.counter(
    "repro_jobs_submitted_total", "Jobs accepted onto the queue")
CLAIM_LATENCY = REGISTRY.histogram(
    "repro_claim_latency_seconds",
    "Seconds between a job becoming runnable and a worker claiming it")
JOB_RETRIES = REGISTRY.counter(
    "repro_job_retries_total",
    "Failed attempts re-enqueued with backoff")
ORPHANS_RECOVERED = REGISTRY.counter(
    "repro_jobs_orphaned_total",
    "Jobs found 'running' under a dead worker, by recovery outcome",
    ("outcome",))
EVENTS_PRUNED = REGISTRY.counter(
    "repro_jobstore_events_pruned_total",
    "Per-job progress-event rows pruned from terminal jobs past the TTL")


def _stored_request(text: str) -> ExperimentRequest:
    """A job row's request. Rows written by older releases carry
    ``backend`` and ``profile`` fields the request no longer has; they
    are dropped here so existing databases stay readable (``POST /jobs``
    still rejects them)."""
    data = json.loads(text)
    for retired in ("backend", "profile"):
        data.pop(retired, None)
    return ExperimentRequest.from_dict(data)


_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id               TEXT PRIMARY KEY,
    fingerprint      TEXT NOT NULL,
    request          TEXT NOT NULL,
    state            TEXT NOT NULL,
    attempts         INTEGER NOT NULL DEFAULT 0,
    max_attempts     INTEGER NOT NULL DEFAULT 2,
    timeout_seconds  REAL,
    not_before       REAL NOT NULL DEFAULT 0,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    worker           TEXT,
    error            TEXT,
    result           TEXT,
    submitted_at     REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    done_cells       INTEGER NOT NULL DEFAULT 0,
    total_cells      INTEGER NOT NULL DEFAULT 0,
    executed_cells   INTEGER NOT NULL DEFAULT 0,
    cached_cells     INTEGER NOT NULL DEFAULT 0,
    events_simulated INTEGER NOT NULL DEFAULT 0,
    sim_wall_seconds REAL NOT NULL DEFAULT 0,
    heartbeat        REAL
);
CREATE INDEX IF NOT EXISTS jobs_claimable
    ON jobs (state, not_before, submitted_at);
CREATE TABLE IF NOT EXISTS events (
    job_id  TEXT NOT NULL,
    seq     INTEGER NOT NULL,
    ts      REAL NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (job_id, seq)
);
"""


class JobNotFound(ReproError):
    """No job with that id in the store."""


class JobStore:
    """The service's persistent queue + result + progress-event store."""

    def __init__(self, path: Union[str, Path],
                 backoff_base: float = DEFAULT_BACKOFF_BASE) -> None:
        self.path = Path(path)
        self.backoff_base = backoff_base
        #: Result of the most recent :meth:`recover_orphans` pass (the
        #: readiness endpoint reports it); None until one has run.
        self.last_recovery: Optional[dict] = None
        if self.path.parent != Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._db() as conn:
            conn.executescript(_SCHEMA)
            # Migration: the jobs row gained a worker-liveness heartbeat
            # (updated on claim and on every per-cell progress report).
            # Older stores may also carry a ``traceparent`` column; it
            # is nullable and no longer read or written.
            cols = {row["name"] for row in
                    conn.execute("PRAGMA table_info(jobs)")}
            if "heartbeat" not in cols:
                conn.execute("ALTER TABLE jobs ADD COLUMN heartbeat REAL")

    @contextmanager
    def _db(self) -> Iterator[sqlite3.Connection]:
        """One short-lived connection per operation: commit + close.

        Short-lived connections are what make the store safe to share
        between worker threads and whole processes without a lock.
        """
        conn = sqlite3.connect(self.path, timeout=30.0)
        conn.row_factory = sqlite3.Row
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            with conn:
                yield conn
        finally:
            conn.close()

    # ------------------------------------------------------------------
    # Submission and lifecycle
    # ------------------------------------------------------------------
    def submit(self, request: ExperimentRequest) -> JobStatus:
        """Enqueue one request; returns the queued job's status."""
        request.validate()
        job_id = uuid.uuid4().hex
        now = time.time()
        with self._db() as conn:
            conn.execute(
                "INSERT INTO jobs (id, fingerprint, request, state,"
                " max_attempts, timeout_seconds, submitted_at)"
                " VALUES (?, ?, ?, 'queued', ?, ?, ?)",
                (job_id, request.fingerprint(),
                 json.dumps(request.to_dict()), request.max_attempts,
                 request.timeout_seconds, now),
            )
        JOBS_SUBMITTED.inc()
        self.add_event(job_id, {"t": "state", "state": "queued"})
        return self.get(job_id)

    def claim(self, worker: str) -> Optional[JobStatus]:
        """Atomically take the oldest runnable queued job, or None.

        ``BEGIN IMMEDIATE`` serializes claimers, so a job goes to
        exactly one worker even across processes.
        """
        now = time.time()
        with self._db() as conn:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                "SELECT id, submitted_at, not_before FROM jobs"
                " WHERE state = 'queued'"
                " AND not_before <= ? ORDER BY submitted_at LIMIT 1",
                (now,),
            ).fetchone()
            if row is None:
                conn.execute("COMMIT")
                return None
            conn.execute(
                "UPDATE jobs SET state = 'running', worker = ?,"
                " attempts = attempts + 1, started_at = ?, heartbeat = ?,"
                " done_cells = 0, total_cells = 0 WHERE id = ?",
                (worker, now, now, row["id"]),
            )
            conn.execute("COMMIT")
        # Claim latency: runnable (submission, or a retry's backoff
        # expiry) -> claimed.  The queue-health signal for scaling out.
        runnable_at = max(float(row["submitted_at"]),
                          float(row["not_before"]))
        CLAIM_LATENCY.observe(max(0.0, now - runnable_at))
        self.add_event(row["id"], {"t": "state", "state": "running",
                                   "worker": worker})
        return self.get(row["id"])

    def complete(self, job_id: str, result: dict) -> None:
        """Record success and the JSON-ready result table."""
        stats = result.get("stats") or {}
        with self._db() as conn:
            conn.execute(
                "UPDATE jobs SET state = 'succeeded', result = ?,"
                " error = NULL, finished_at = ?, executed_cells = ?,"
                " cached_cells = ?, events_simulated = ?,"
                " sim_wall_seconds = ? WHERE id = ?",
                (json.dumps(result), time.time(),
                 int(stats.get("executed", 0)),
                 int(stats.get("cache_hits", 0)),
                 int(stats.get("events", 0)),
                 float(stats.get("elapsed", 0.0)),
                 job_id),
            )
        self.add_event(job_id, {
            "t": "state", "state": "succeeded",
            "executed": int(stats.get("executed", 0)),
            "cached": int(stats.get("cache_hits", 0)),
        })

    def fail(self, job_id: str, error: str, *, retryable: bool = True) -> str:
        """Record a failed attempt; re-enqueue with backoff if allowed.

        Returns the job's new state (``"queued"`` when a retry was
        scheduled, else ``"failed"``).
        """
        job = self.get(job_id)
        retry = retryable and job.attempts < job.request.max_attempts
        now = time.time()
        with self._db() as conn:
            if retry:
                backoff = self.backoff_base * (2 ** max(0, job.attempts - 1))
                conn.execute(
                    "UPDATE jobs SET state = 'queued', error = ?,"
                    " not_before = ?, worker = NULL WHERE id = ?",
                    (error, now + backoff, job_id),
                )
            else:
                conn.execute(
                    "UPDATE jobs SET state = 'failed', error = ?,"
                    " finished_at = ? WHERE id = ?",
                    (error, now, job_id),
                )
        state = "queued" if retry else "failed"
        if retry:
            JOB_RETRIES.inc()
        event = {"t": "state", "state": state, "error": error,
                 "attempt": job.attempts}
        if retry:
            event["retry_in"] = round(
                self.backoff_base * (2 ** max(0, job.attempts - 1)), 3)
        self.add_event(job_id, event)
        return state

    def release(self, job_id: str) -> None:
        """Put a running job back on the queue without an attempt penalty.

        Used by graceful shutdown: the worker drains its in-flight cells
        (they land in the cell cache), then releases the job so the next
        worker resumes from the cache instead of re-simulating.
        """
        with self._db() as conn:
            conn.execute(
                "UPDATE jobs SET state = 'queued', worker = NULL,"
                " attempts = MAX(0, attempts - 1), not_before = 0"
                " WHERE id = ? AND state = 'running'",
                (job_id,),
            )
        self.add_event(job_id, {"t": "state", "state": "queued",
                                "released": True})

    def cancel(self, job_id: str) -> JobStatus:
        """Cancel a job: queued jobs die now, running ones get flagged.

        A running job's worker observes ``cancel_requested`` through its
        ``should_stop`` hook and stops between cells.
        """
        job = self.get(job_id)
        with self._db() as conn:
            if job.state == "queued":
                conn.execute(
                    "UPDATE jobs SET state = 'cancelled', finished_at = ?"
                    " WHERE id = ? AND state = 'queued'",
                    (time.time(), job_id),
                )
            elif job.state == "running":
                conn.execute(
                    "UPDATE jobs SET cancel_requested = 1 WHERE id = ?",
                    (job_id,),
                )
        if job.state == "queued":
            self.add_event(job_id, {"t": "state", "state": "cancelled"})
        elif job.state == "running":
            self.add_event(job_id, {"t": "cancel-requested"})
        return self.get(job_id)

    def mark_cancelled(self, job_id: str) -> None:
        with self._db() as conn:
            conn.execute(
                "UPDATE jobs SET state = 'cancelled', finished_at = ?"
                " WHERE id = ?",
                (time.time(), job_id),
            )
        self.add_event(job_id, {"t": "state", "state": "cancelled"})

    def cancel_requested(self, job_id: str) -> bool:
        with self._db() as conn:
            row = conn.execute(
                "SELECT cancel_requested FROM jobs WHERE id = ?",
                (job_id,),
            ).fetchone()
        return bool(row and row["cancel_requested"])

    def recover_orphans(self,
                        stale_seconds: Optional[float] = None) -> list[str]:
        """Re-enqueue jobs left 'running' by a dead service process.

        With ``stale_seconds=None`` (service startup, *before* workers
        start) every running job is an orphan by definition.  With a
        value, only jobs whose worker heartbeat went silent for longer
        than that are recovered — which makes the pass safe to run
        *while the service is live*: the worker pool's janitor calls it
        periodically, so a worker thread that died mid-job (or a sibling
        service process that crashed) gets its job back on the queue
        without a restart.  A job whose claim already consumed its last
        allowed attempt fails instead of looping forever.  Returns the
        re-enqueued job ids.
        """
        recovered: list[str] = []
        failed: list[str] = []
        with self._db() as conn:
            if stale_seconds is None:
                rows = conn.execute(
                    "SELECT id, attempts, max_attempts FROM jobs"
                    " WHERE state = 'running'",
                ).fetchall()
            else:
                horizon = time.time() - stale_seconds
                rows = conn.execute(
                    "SELECT id, attempts, max_attempts FROM jobs"
                    " WHERE state = 'running' AND"
                    " COALESCE(heartbeat, started_at, submitted_at) < ?",
                    (horizon,),
                ).fetchall()
            for row in rows:
                if row["attempts"] < row["max_attempts"]:
                    conn.execute(
                        "UPDATE jobs SET state = 'queued', worker = NULL,"
                        " not_before = 0 WHERE id = ?",
                        (row["id"],),
                    )
                    recovered.append(row["id"])
                else:
                    conn.execute(
                        "UPDATE jobs SET state = 'failed', finished_at = ?,"
                        " error = 'orphaned mid-run (worker died); attempt"
                        " budget exhausted' WHERE id = ?",
                        (time.time(), row["id"]),
                    )
                    failed.append(row["id"])
        for job_id in recovered:
            self.add_event(job_id, {"t": "state", "state": "queued",
                                    "recovered": True})
        for job_id in failed:
            self.add_event(job_id, {"t": "state", "state": "failed",
                                    "recovered": False})
        ORPHANS_RECOVERED.labels(outcome="requeued").inc(len(recovered))
        ORPHANS_RECOVERED.labels(outcome="failed").inc(len(failed))
        self.last_recovery = {"at": time.time(),
                              "requeued": len(recovered),
                              "failed": len(failed),
                              "live": stale_seconds is not None}
        return recovered

    def prune_events(self, ttl_seconds: float) -> int:
        """Drop progress-event rows of terminal jobs past the TTL.

        Keeps the long-lived store bounded: per-cell progress events are
        only useful for live SSE streams and short-horizon replays, so
        once a job has been finished for ``ttl_seconds`` its event log
        goes (the job row — state, result, counters — stays).  SSE
        clients connecting later still get the terminal ``done`` frame.
        Returns the number of rows pruned (also counted on
        ``repro_jobstore_events_pruned_total``).
        """
        horizon = time.time() - ttl_seconds
        with self._db() as conn:
            cursor = conn.execute(
                "DELETE FROM events WHERE job_id IN"
                " (SELECT id FROM jobs WHERE state IN"
                "  ('succeeded', 'failed', 'cancelled')"
                "  AND finished_at IS NOT NULL AND finished_at < ?)",
                (horizon,),
            )
            pruned = cursor.rowcount
        if pruned > 0:
            EVENTS_PRUNED.inc(pruned)
        return max(0, pruned)

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    def set_progress(self, job_id: str, done: int, total: int) -> None:
        """Record per-cell progress; doubles as the worker heartbeat."""
        with self._db() as conn:
            conn.execute(
                "UPDATE jobs SET done_cells = ?, total_cells = ?,"
                " heartbeat = ? WHERE id = ?",
                (done, total, time.time(), job_id),
            )

    def beat(self, job_id: str) -> None:
        """Refresh a running job's heartbeat without touching progress."""
        with self._db() as conn:
            conn.execute(
                "UPDATE jobs SET heartbeat = ? WHERE id = ?"
                " AND state = 'running'",
                (time.time(), job_id),
            )

    def add_event(self, job_id: str, payload: dict) -> int:
        """Append one progress event; returns its sequence number."""
        with self._db() as conn:
            conn.execute("BEGIN IMMEDIATE")
            row = conn.execute(
                "SELECT COALESCE(MAX(seq), 0) AS seq FROM events"
                " WHERE job_id = ?",
                (job_id,),
            ).fetchone()
            seq = int(row["seq"]) + 1
            conn.execute(
                "INSERT INTO events (job_id, seq, ts, payload)"
                " VALUES (?, ?, ?, ?)",
                (job_id, seq, time.time(), json.dumps(payload)),
            )
            conn.execute("COMMIT")
        return seq

    def events_since(self, job_id: str, after_seq: int = 0,
                     limit: int = 1000) -> list[tuple[int, dict]]:
        """Events with seq > ``after_seq``, oldest first."""
        with self._db() as conn:
            rows = conn.execute(
                "SELECT seq, payload FROM events WHERE job_id = ?"
                " AND seq > ? ORDER BY seq LIMIT ?",
                (job_id, after_seq, limit),
            ).fetchall()
        return [(int(r["seq"]), json.loads(r["payload"])) for r in rows]

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _status_of(self, row: sqlite3.Row) -> JobStatus:
        return JobStatus(
            id=row["id"],
            state=row["state"],
            request=_stored_request(row["request"]),
            fingerprint=row["fingerprint"],
            attempts=row["attempts"],
            error=row["error"],
            submitted_at=row["submitted_at"],
            started_at=row["started_at"],
            finished_at=row["finished_at"],
            worker=row["worker"],
            done_cells=row["done_cells"],
            total_cells=row["total_cells"],
            executed_cells=row["executed_cells"],
            cached_cells=row["cached_cells"],
            heartbeat=row["heartbeat"],
        )

    def get(self, job_id: str) -> JobStatus:
        with self._db() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)).fetchone()
        if row is None:
            raise JobNotFound(f"no job {job_id!r}")
        return self._status_of(row)

    def result(self, job_id: str) -> Optional[dict]:
        """The stored result table of a succeeded job, or None."""
        with self._db() as conn:
            row = conn.execute(
                "SELECT result FROM jobs WHERE id = ?", (job_id,)).fetchone()
        if row is None:
            raise JobNotFound(f"no job {job_id!r}")
        return json.loads(row["result"]) if row["result"] else None

    def list_jobs(self, state: Optional[str] = None,
                  limit: int = 100) -> list[JobStatus]:
        query = "SELECT * FROM jobs"
        params: tuple = ()
        if state is not None:
            query += " WHERE state = ?"
            params = (state,)
        query += " ORDER BY submitted_at DESC LIMIT ?"
        with self._db() as conn:
            rows = conn.execute(query, params + (limit,)).fetchall()
        return [self._status_of(row) for row in rows]

    def stats(self) -> dict:
        """Aggregate observability counters for ``GET /stats``."""
        with self._db() as conn:
            by_state = {
                row["state"]: row["n"]
                for row in conn.execute(
                    "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state")
            }
            agg = conn.execute(
                "SELECT COALESCE(SUM(executed_cells), 0) AS executed,"
                " COALESCE(SUM(cached_cells), 0) AS cached,"
                " COALESCE(SUM(events_simulated), 0) AS events,"
                " COALESCE(SUM(sim_wall_seconds), 0) AS wall"
                " FROM jobs WHERE state = 'succeeded'",
            ).fetchone()
            oldest_beat = conn.execute(
                "SELECT MIN(COALESCE(heartbeat, started_at, submitted_at))"
                " AS beat FROM jobs WHERE state = 'running'",
            ).fetchone()
        stalest = (round(max(0.0, time.time() - float(oldest_beat["beat"])), 3)
                   if oldest_beat and oldest_beat["beat"] is not None else None)
        executed = int(agg["executed"])
        cached = int(agg["cached"])
        settled = executed + cached
        wall = float(agg["wall"])
        return {
            "jobs": {state: int(by_state.get(state, 0))
                     for state in ("queued", "running", "succeeded",
                                   "failed", "cancelled")},
            "queue_depth": int(by_state.get("queued", 0)),
            #: Seconds since the least-recently-beating running job's
            #: heartbeat; None when nothing is running.  The liveness
            #: signal /healthz/ready surfaces.
            "stalest_heartbeat_seconds": stalest,
            "cells_executed": executed,
            "cells_cached": cached,
            "cache_hit_ratio": round(cached / settled, 4) if settled else 0.0,
            "events_simulated": int(agg["events"]),
            "events_per_sec": round(int(agg["events"]) / wall, 1)
            if wall > 0 else 0.0,
        }
