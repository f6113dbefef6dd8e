"""``repro-serve`` — run the simulation service.

Wires the pieces together: open (or create) the SQLite job store,
recover jobs orphaned by a previous crash, start the worker pool over
the shared cell cache, and serve the ASGI app.

Serving prefers uvicorn when the ``[service]`` extra is installed;
otherwise a bundled minimal HTTP/1.1-over-asyncio bridge serves the
same app (correct, streaming-capable, fine for dev and CI — install
the extra for production traffic).

Shutdown is graceful on SIGINT/SIGTERM: the HTTP server stops
accepting, then the worker pool drains — in-flight *cells* run to
completion (their results land in the cell cache) and unfinished jobs
are released back to the queue, so a restart resumes with zero lost
simulation work.

Usage::

    repro-serve --port 8321 --workers 2 --data-dir .repro-service
    repro serve --port 8321            # same, via the unified CLI
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys
from typing import Optional, Sequence

from repro.experiments.cellcache import CellCache, default_cache_dir
from repro.service.app import ServiceApp
from repro.service.jobstore import JobStore
from repro.service.worker import (
    DEFAULT_HEARTBEAT_TIMEOUT,
    WorkerPool,
)

DEFAULT_DATA_DIR = ".repro-service"
DEFAULT_PORT = 8321


def build_service(
    data_dir: str = DEFAULT_DATA_DIR,
    *,
    workers: int = 2,
    cache_dir: Optional[str] = None,
    recover: bool = True,
    heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    events_ttl: Optional[float] = None,
) -> tuple[JobStore, WorkerPool, ServiceApp]:
    """Assemble store + pool + app (shared by serve() and tests)."""
    store = JobStore(os.path.join(data_dir, "jobs.sqlite3"))
    if recover:
        recovered = store.recover_orphans()
        if recovered:
            print(f"[recovered {len(recovered)} orphaned job(s)]",
                  file=sys.stderr)
    cache = CellCache(cache_dir or default_cache_dir())
    pool = WorkerPool(
        store, workers=workers, cache=cache,
        trace_root=os.path.join(data_dir, "traces"),
        heartbeat_timeout=heartbeat_timeout,
        events_ttl=events_ttl,
    )
    app = ServiceApp(store, pool=pool)
    return store, pool, app


# ----------------------------------------------------------------------
# Bundled fallback server: minimal HTTP/1.1 -> ASGI over asyncio streams
# ----------------------------------------------------------------------

async def _handle_connection(app, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
    try:
        request_line = await reader.readline()
        if not request_line:
            return
        try:
            method, target, _version = (
                request_line.decode("latin-1").strip().split(" ", 2))
        except ValueError:
            writer.write(b"HTTP/1.1 400 Bad Request\r\n\r\n")
            return
        headers: list[tuple[bytes, bytes]] = []
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.strip().partition(b":")
            name = name.lower()
            headers.append((name, value.strip()))
            if name == b"content-length":
                content_length = int(value.strip() or 0)
        body = await reader.readexactly(content_length) \
            if content_length else b""
        path, _, query = target.partition("?")

        scope = {
            "type": "http", "asgi": {"version": "3.0"},
            "http_version": "1.1", "method": method.upper(),
            "path": path, "raw_path": path.encode("latin-1"),
            "query_string": query.encode("latin-1"),
            "headers": headers, "scheme": "http",
            "server": writer.get_extra_info("sockname"),
            "client": writer.get_extra_info("peername"),
        }
        delivered = [False]

        async def receive():
            if delivered[0]:
                return {"type": "http.disconnect"}
            delivered[0] = True
            return {"type": "http.request", "body": body, "more_body": False}

        started = [False]

        async def send(message):
            if message["type"] == "http.response.start":
                started[0] = True
                status = message["status"]
                lines = [f"HTTP/1.1 {status} X".encode("latin-1")]
                has_length = False
                for name, value in message.get("headers", []):
                    if name.lower() == b"content-length":
                        has_length = True
                    lines.append(name + b": " + value)
                if not has_length:
                    # Stream and close: fine for one-shot HTTP/1.1.
                    lines.append(b"connection: close")
                writer.write(b"\r\n".join(lines) + b"\r\n\r\n")
            elif message["type"] == "http.response.body":
                writer.write(message.get("body", b""))
                await writer.drain()

        await app(scope, receive, send)
    except (ConnectionError, asyncio.IncompleteReadError):
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _serve_stdlib(app, host: str, port: int,
                        shutdown: asyncio.Event) -> None:
    server = await asyncio.start_server(
        lambda r, w: _handle_connection(app, r, w), host, port)
    addrs = ", ".join(f"{s.getsockname()[0]}:{s.getsockname()[1]}"
                      for s in server.sockets)
    print(f"[repro-serve] listening on {addrs} "
          "(stdlib fallback server; install repro[service] for uvicorn)",
          file=sys.stderr)
    async with server:
        await shutdown.wait()
        server.close()
        await server.wait_closed()


def _run_stdlib(app, host: str, port: int) -> None:
    shutdown = asyncio.Event()
    loop = asyncio.new_event_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, shutdown.set)
        except NotImplementedError:  # non-POSIX event loops
            pass
    try:
        loop.run_until_complete(_serve_stdlib(app, host, port, shutdown))
    finally:
        loop.close()


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve experiments as async jobs over HTTP "
                    "(POST /jobs, SSE progress, shared cell cache).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="job worker threads (default: 2)")
    parser.add_argument("--data-dir", default=DEFAULT_DATA_DIR, metavar="DIR",
                        help="job database + per-job traces "
                             f"(default: {DEFAULT_DATA_DIR})")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="shared cell cache "
                             "(default: $REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--no-recover", action="store_true",
                        help="skip re-enqueueing jobs orphaned by a crash")
    parser.add_argument("--heartbeat-timeout", type=float,
                        default=DEFAULT_HEARTBEAT_TIMEOUT, metavar="SECONDS",
                        help="running jobs silent for this long are "
                             "requeued by the live janitor "
                             f"(default: {DEFAULT_HEARTBEAT_TIMEOUT:.0f})")
    parser.add_argument("--events-ttl", type=float, default=None,
                        metavar="SECONDS",
                        help="prune per-job progress events this long "
                             "after the job finishes (default: keep all)")
    parser.add_argument("--no-uvicorn", action="store_true",
                        help="force the bundled stdlib server even when "
                             "uvicorn is installed")
    args = parser.parse_args(argv)

    store, pool, app = build_service(
        args.data_dir, workers=args.workers, cache_dir=args.cache_dir,
        recover=not args.no_recover,
        heartbeat_timeout=args.heartbeat_timeout,
        events_ttl=args.events_ttl,
    )
    pool.start()
    print(f"[repro-serve] {pool.num_workers} worker(s), "
          f"queue depth {store.stats()['queue_depth']}, "
          f"db {store.path}", file=sys.stderr)
    try:
        uvicorn = None
        if not args.no_uvicorn:
            try:
                import uvicorn  # type: ignore[no-redef]
            except ImportError:
                uvicorn = None
        if uvicorn is not None:
            uvicorn.run(app, host=args.host, port=args.port,
                        log_level="info")
        else:
            _run_stdlib(app, args.host, args.port)
    except KeyboardInterrupt:
        pass
    finally:
        print("[repro-serve] draining in-flight cells...", file=sys.stderr)
        pool.stop()
        print("[repro-serve] stopped", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
