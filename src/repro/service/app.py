"""The service's HTTP surface: a dependency-free ASGI application.

Implements the ASGI 3.0 protocol directly (``async def __call__(scope,
receive, send)``), so the same object is served by uvicorn (the
``[service]`` extra), by the bundled stdlib fallback server, and by the
in-process test client — with zero third-party imports in the core.

Routes::

    POST /jobs               submit an ExperimentRequest     -> 202 JobStatus
    GET  /jobs               list jobs (?state=, ?limit=)    -> 200 [JobStatus]
    GET  /jobs/<id>          job status                      -> 200 JobStatus
    GET  /jobs/<id>/result   rendered result table           -> 200 / 409
    GET  /jobs/<id>/events   progress stream                 -> 200 SSE
    POST /jobs/<id>/cancel   cancel queued/running job       -> 202 JobStatus
    GET  /healthz            combined health (back-compat)   -> 200
    GET  /healthz/live       liveness: process is serving    -> 200
    GET  /healthz/ready      readiness: can accept work      -> 200 / 503
    GET  /metrics            Prometheus text exposition      -> 200
    GET  /stats              queue depth, cache-hit ratio,
                             events/sec, service counters    -> 200

Every request passes through a small middleware in :meth:`ServiceApp.
__call__` that tracks in-flight count, per-route request totals and a
latency histogram (routes are *templates* — ``/jobs/{id}`` — so metric
cardinality stays bounded no matter how many jobs exist).

The SSE stream replays the job's persisted progress events from
``?after=<seq>`` (or the ``Last-Event-ID`` header), then keeps polling
the store until the job reaches a terminal state, closing with an
``event: done`` frame — so clients connecting before, during, or after
execution all see the same ordered event sequence.
"""

from __future__ import annotations

import asyncio
import json
import time
from urllib.parse import parse_qs

from repro.api import ExperimentRequest
from repro.errors import ConfigError, ReproError
from repro.obs.metrics import REGISTRY
from repro.service.jobstore import JobNotFound, JobStore

#: How often the SSE loop polls the store for new events (seconds).
SSE_POLL_SECONDS = 0.1
#: Idle heartbeat cadence: a comment frame keeps proxies from timing out.
SSE_HEARTBEAT_SECONDS = 10.0

JSON_HEADERS = [(b"content-type", b"application/json")]
SSE_HEADERS = [
    (b"content-type", b"text/event-stream"),
    (b"cache-control", b"no-cache"),
    (b"connection", b"keep-alive"),
]
METRICS_CONTENT_TYPE = b"text/plain; version=0.0.4; charset=utf-8"

#: Sub-second buckets: HTTP handling is store queries, not simulation.
_HTTP_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                 1.0, 2.5, 5.0, 10.0)

HTTP_REQUESTS = REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP requests served, by method, route template, and status",
    ("method", "route", "status"))
HTTP_LATENCY = REGISTRY.histogram(
    "repro_http_request_seconds",
    "HTTP request handling latency by method and route template",
    ("method", "route"), buckets=_HTTP_BUCKETS)
HTTP_IN_FLIGHT = REGISTRY.gauge(
    "repro_http_requests_in_flight",
    "HTTP requests currently being handled")
SSE_STREAMS = REGISTRY.gauge(
    "repro_sse_streams_active",
    "Server-sent-event streams currently open")
SSE_FRAMES = REGISTRY.counter(
    "repro_sse_frames_total",
    "Server-sent-event data frames written (excludes heartbeats)")
QUEUE_DEPTH = REGISTRY.gauge(
    "repro_queue_depth", "Jobs currently queued (refreshed on scrape)")
JOBS_BY_STATE = REGISTRY.gauge(
    "repro_jobs_by_state",
    "Jobs in the store by lifecycle state (refreshed on scrape)",
    ("state",))
WORKERS_ALIVE = REGISTRY.gauge(
    "repro_workers_alive", "Live worker threads in this service process")

#: Known route templates, so unmatched paths collapse into one label.
_ROUTES = {
    "/", "/healthz", "/healthz/live", "/healthz/ready",
    "/metrics", "/stats", "/jobs",
}
_JOB_VERBS = {"result", "events", "cancel"}


def route_template(path: str) -> str:
    """Collapse a concrete path to its bounded-cardinality template."""
    if path in _ROUTES:
        return path
    if path.startswith("/jobs/"):
        parts = path.split("/")[2:]
        if len(parts) == 1:
            return "/jobs/{id}"
        if len(parts) == 2 and parts[1] in _JOB_VERBS:
            return "/jobs/{id}/" + parts[1]
    return "(unmatched)"


class ServiceApp:
    """ASGI app over one :class:`JobStore` (and, optionally, its pool)."""

    def __init__(self, store: JobStore, pool=None) -> None:
        self.store = store
        self.pool = pool

    # ------------------------------------------------------------------
    # ASGI plumbing
    # ------------------------------------------------------------------
    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":
            return
        method = scope["method"].upper()
        path = scope["path"].rstrip("/") or "/"
        query = parse_qs(scope.get("query_string", b"").decode("latin-1"))
        route = route_template(path)

        status_box = {"status": None}

        async def instrumented_send(message) -> None:
            if message["type"] == "http.response.start":
                status_box["status"] = message["status"]
            await send(message)

        HTTP_IN_FLIGHT.inc()
        started = time.perf_counter()
        try:
            try:
                await self._route(method, path, query, scope, receive,
                                  instrumented_send)
            except JobNotFound as exc:
                await self._json(instrumented_send, 404, {"error": str(exc)})
            except ConfigError as exc:
                await self._json(instrumented_send, 400, {"error": str(exc)})
            except ReproError as exc:
                await self._json(instrumented_send, 500, {"error": str(exc)})
        finally:
            HTTP_IN_FLIGHT.dec()
            elapsed = time.perf_counter() - started
            status = status_box["status"]
            HTTP_REQUESTS.labels(method=method, route=route,
                                 status=str(status or 500)).inc()
            HTTP_LATENCY.labels(method=method, route=route).observe(elapsed)

    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                await send({"type": "lifespan.shutdown.complete"})
                return

    async def _route(self, method, path, query, scope, receive, send) -> None:
        if path == "/healthz" and method == "GET":
            # Back-compat combined view: old monitors keep working.
            await self._json(send, 200, self._health_payload())
            return
        if path == "/healthz/live" and method == "GET":
            # Liveness is just "the event loop answers": no store I/O,
            # so a wedged database cannot make an orchestrator restart
            # an otherwise-healthy process.
            await self._json(send, 200, {"ok": True})
            return
        if path == "/healthz/ready" and method == "GET":
            payload = self._health_payload()
            await self._json(send, 200 if payload["ok"] else 503, payload)
            return
        if path == "/metrics" and method == "GET":
            await self._metrics(send)
            return
        if path == "/stats" and method == "GET":
            stats = self.store.stats()
            if self.pool is not None:
                stats["workers"] = self.pool.alive
                stats["jobs_run_by_this_process"] = self.pool.jobs_run
            stats["counters"] = self._service_counters()
            await self._json(send, 200, stats)
            return
        if path == "/jobs" and method == "POST":
            await self._submit(receive, send)
            return
        if path == "/jobs" and method == "GET":
            state = (query.get("state") or [None])[0]
            limit = int((query.get("limit") or ["100"])[0])
            jobs = self.store.list_jobs(state=state, limit=limit)
            await self._json(send, 200,
                             {"jobs": [job.to_dict() for job in jobs]})
            return
        if path.startswith("/jobs/"):
            parts = path.split("/")[2:]  # ['<id>'] or ['<id>', verb]
            job_id = parts[0]
            verb = parts[1] if len(parts) > 1 else None
            if verb is None and method == "GET":
                await self._json(send, 200, self.store.get(job_id).to_dict())
                return
            if verb == "result" and method == "GET":
                await self._result(send, job_id)
                return
            if verb == "events" and method == "GET":
                await self._events(scope, query, send, job_id)
                return
            if verb == "cancel" and method == "POST":
                await self._json(send, 202,
                                 self.store.cancel(job_id).to_dict())
                return
        await self._json(send, 404, {"error": f"no route {method} {path}"})

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _health_payload(self) -> dict:
        """Readiness: can this process actually accept and run work?"""
        stats = self.store.stats()
        workers = self.pool.alive if self.pool is not None else 0
        # A pool that was started but whose threads all died is the
        # one state where accepting jobs would silently strand them.
        pool_dead = (self.pool is not None
                     and getattr(self.pool, "_threads", None)
                     and workers == 0)
        return {
            "ok": not pool_dead,
            "queue_depth": stats["queue_depth"],
            "workers": workers,
            # Seconds since the least-recently-beating running job last
            # signalled progress (None = nothing running).  A large value
            # with live workers means execution is stalled, not idle.
            "stalest_heartbeat_seconds":
                stats.get("stalest_heartbeat_seconds"),
            "last_orphan_recovery": self.store.last_recovery,
        }

    def _service_counters(self) -> dict:
        """Registry-backed counters folded into ``GET /stats``."""
        value = REGISTRY.value
        return {
            "jobs_submitted": value("repro_jobs_submitted_total"),
            "jobs_deduped": value("repro_jobs_deduped_total"),
            "job_retries": value("repro_job_retries_total"),
            "orphans_requeued": value("repro_jobs_orphaned_total",
                                      {"outcome": "requeued"}),
            "orphans_failed": value("repro_jobs_orphaned_total",
                                    {"outcome": "failed"}),
            "sse_frames": value("repro_sse_frames_total"),
        }

    async def _metrics(self, send) -> None:
        # Queue/state gauges are *sampled* at scrape time from SQLite
        # (this app may share the store with other processes), then the
        # registry renders one atomic snapshot.
        stats = self.store.stats()
        QUEUE_DEPTH.set(stats["queue_depth"])
        for state, count in stats["jobs"].items():
            JOBS_BY_STATE.labels(state=state).set(count)
        WORKERS_ALIVE.set(self.pool.alive if self.pool is not None else 0)
        body = REGISTRY.render().encode("utf-8")
        await send({"type": "http.response.start", "status": 200,
                    "headers": [(b"content-type", METRICS_CONTENT_TYPE)]})
        await send({"type": "http.response.body", "body": body})

    async def _submit(self, receive, send) -> None:
        body = await self._read_body(receive)
        try:
            data = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            await self._json(send, 400, {"error": f"invalid JSON: {exc}"})
            return
        if not isinstance(data, dict):
            await self._json(send, 400,
                             {"error": "request body must be a JSON object"})
            return
        request = ExperimentRequest.from_dict(data)
        request.validate()
        await self._json(send, 202, self.store.submit(request).to_dict())

    async def _result(self, send, job_id: str) -> None:
        job = self.store.get(job_id)
        if job.state != "succeeded":
            await self._json(send, 409, {
                "error": f"job is {job.state}, not succeeded",
                "job": job.to_dict(),
            })
            return
        await self._json(send, 200, {
            "job": job.to_dict(),
            "result": self.store.result(job_id),
        })

    async def _events(self, scope, query, send, job_id: str) -> None:
        self.store.get(job_id)  # 404 before the stream starts
        after = int((query.get("after") or ["0"])[0])
        for name, value in scope.get("headers", []):
            if name == b"last-event-id":
                try:
                    after = int(value.decode("latin-1"))
                except ValueError:
                    pass
        poll = float((query.get("poll") or [str(SSE_POLL_SECONDS)])[0])
        await send({"type": "http.response.start", "status": 200,
                    "headers": list(SSE_HEADERS)})
        last_sent = 0.0
        loop = asyncio.get_event_loop()
        SSE_STREAMS.inc()
        try:
            while True:
                events = self.store.events_since(job_id, after)
                for seq, payload in events:
                    after = seq
                    frame = (f"id: {seq}\n"
                             f"data: {json.dumps(payload)}\n\n")
                    await send({"type": "http.response.body",
                                "body": frame.encode("utf-8"),
                                "more_body": True})
                    SSE_FRAMES.inc()
                    last_sent = loop.time()
                job = self.store.get(job_id)
                if job.terminal and not self.store.events_since(job_id, after):
                    done = (f"event: done\n"
                            f"data: {json.dumps(job.to_dict())}\n\n")
                    await send({"type": "http.response.body",
                                "body": done.encode("utf-8"),
                                "more_body": False})
                    SSE_FRAMES.inc()
                    return
                if loop.time() - last_sent > SSE_HEARTBEAT_SECONDS:
                    await send({"type": "http.response.body",
                                "body": b": heartbeat\n\n",
                                "more_body": True})
                    last_sent = loop.time()
                await asyncio.sleep(poll)
        except (asyncio.CancelledError, ConnectionError):
            return  # client went away; nothing to clean up
        finally:
            SSE_STREAMS.dec()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    async def _read_body(receive) -> bytes:
        chunks: list[bytes] = []
        while True:
            message = await receive()
            if message["type"] != "http.request":
                break
            chunks.append(message.get("body", b""))
            if not message.get("more_body"):
                break
        return b"".join(chunks)

    @staticmethod
    async def _json(send, status: int, payload: dict) -> None:
        body = json.dumps(payload, indent=2).encode("utf-8") + b"\n"
        await send({"type": "http.response.start", "status": status,
                    "headers": list(JSON_HEADERS)})
        await send({"type": "http.response.body", "body": body})


def create_app(store, pool=None) -> ServiceApp:
    """App factory: ``store`` is a JobStore or a database path."""
    if not isinstance(store, JobStore):
        store = JobStore(store)
    return ServiceApp(store, pool=pool)
