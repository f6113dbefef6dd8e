"""Simulation-as-a-service: an async job API over the cell engine.

The service turns the repo's cached, parallel cell engine into a
long-running process that accepts experiment requests over HTTP,
executes them on a worker pool, and answers repeat submissions from the
content-addressed cell cache without re-simulating anything — the
service-tier analogue of the paper's DAP steering every access to the
cheapest bandwidth source.

Pieces (each importable on its own):

- :mod:`repro.service.jobstore` — persistent SQLite job queue with
  atomic claiming, bounded retries with backoff, per-job progress
  events, and orphan recovery after a crash;
- :mod:`repro.service.worker` — the worker pool executing jobs through
  :mod:`repro.api` with per-job timeouts, cancellation, and graceful
  drain;
- :mod:`repro.service.app` — a dependency-free ASGI application
  (``POST /jobs``, ``GET /jobs/<id>``, SSE progress at
  ``GET /jobs/<id>/events``, ``GET /healthz``, ``GET /metrics``,
  ``GET /stats``) that any ASGI server — uvicorn via the ``[service]``
  extra — can serve;
- :mod:`repro.service.server` — the ``repro-serve`` entry point, with a
  bundled stdlib HTTP/1.1 fallback server so the service runs even
  without the extra installed;
- :mod:`repro.service.testing` — an in-process ASGI test client.

The app speaks raw ASGI on purpose: the repo's core stays
zero-dependency, the endpoint tests run everywhere, and installing the
``[service]`` extra only upgrades *how* the same app is served.
"""

from repro.service.jobstore import JobStore
from repro.service.worker import WorkerPool

__all__ = ["JobStore", "WorkerPool"]
