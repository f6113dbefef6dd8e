"""``repro top`` / ``repro metrics`` — terminal views over a live service.

``repro top`` is a small, dependency-free ANSI dashboard: it polls a
running service's ``GET /metrics`` (parsed with this package's own
exposition parser — the same one CI lints with) and ``GET /stats``,
and redraws queue depth, worker liveness, cache-hit ratio, latency
quantiles, and per-route HTTP traffic every ``--interval`` seconds.

``repro metrics`` is the scriptable sibling: dump the raw exposition
text, a JSON ``--snapshot`` of it, or ``--lint`` it (non-zero exit on
any format violation) — which is exactly what the CI service job runs
against the live server.

Both talk plain HTTP via ``urllib``; neither imports anything outside
the stdlib and :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from typing import Optional, Sequence

from repro.obs.metrics import (
    Sample,
    histogram_quantile,
    lint_exposition,
    parse_exposition,
)

DEFAULT_URL = "http://127.0.0.1:8321"
DEFAULT_INTERVAL = 2.0

_BOLD, _DIM, _RESET = "\x1b[1m", "\x1b[2m", "\x1b[0m"
_CLEAR = "\x1b[2J\x1b[H"


def _fetch(url: str, timeout: float = 5.0) -> str:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read().decode("utf-8")


def scrape(base_url: str) -> tuple[list[Sample], dict]:
    """One poll: parsed ``/metrics`` samples + the ``/stats`` JSON."""
    samples = parse_exposition(_fetch(base_url.rstrip("/") + "/metrics"))
    stats = json.loads(_fetch(base_url.rstrip("/") + "/stats"))
    return samples, stats


# ----------------------------------------------------------------------
# Sample querying (operates on parsed exposition, not the local registry,
# so `repro top` observes any service process, not just its own)
# ----------------------------------------------------------------------

def sample_value(samples: Sequence[Sample], name: str,
                 **labels) -> float:
    """Sum of all samples matching ``name`` and the given label subset."""
    total = 0.0
    for s in samples:
        if s.name != name:
            continue
        if all(s.labels.get(k) == v for k, v in labels.items()):
            total += s.value
    return total


def quantile(samples: Sequence[Sample], base: str, q: float,
             **labels) -> Optional[float]:
    """A quantile estimate for one histogram family (labels summed)."""
    buckets: dict[str, float] = {}
    for s in samples:
        if s.name != f"{base}_bucket":
            continue
        if not all(s.labels.get(k) == v for k, v in labels.items()):
            continue
        le = s.labels.get("le", "+Inf")
        buckets[le] = buckets.get(le, 0.0) + s.value
    count = sample_value(samples, f"{base}_count", **labels)
    if not buckets or count <= 0:
        return None
    return histogram_quantile(buckets, count, q)


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value < 0.001:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def _fmt_count(value: float) -> str:
    if value >= 1e9:
        return f"{value / 1e9:.2f}G"
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k"
    return f"{value:.0f}" if float(value).is_integer() else f"{value:.2f}"


def _route_rows(samples: Sequence[Sample], limit: int = 8) -> list[tuple]:
    by_route: dict[tuple[str, str], float] = {}
    for s in samples:
        if s.name == "repro_http_requests_total":
            key = (s.labels.get("method", "?"), s.labels.get("route", "?"))
            by_route[key] = by_route.get(key, 0.0) + s.value
    rows = []
    for (method, route), count in sorted(
            by_route.items(), key=lambda kv: -kv[1])[:limit]:
        p95 = quantile(samples, "repro_http_request_seconds", 0.95,
                       method=method, route=route)
        rows.append((method, route, count, p95))
    return rows


def render(base_url: str, samples: Sequence[Sample], stats: dict,
           color: bool = True) -> str:
    """One full dashboard frame (no cursor control; caller clears)."""
    bold = _BOLD if color else ""
    dim = _DIM if color else ""
    reset = _RESET if color else ""
    jobs = stats.get("jobs", {})
    counters = stats.get("counters", {})
    orphans = (counters.get("orphans_requeued", 0)
               + counters.get("orphans_failed", 0))
    now = time.strftime("%Y-%m-%d %H:%M:%S")
    lines = [
        f"{bold}repro top{reset} {dim}{base_url}   {now}{reset}",
        "",
        (f"{bold}jobs{reset}     "
         + "   ".join(f"{state} {_fmt_count(jobs.get(state, 0))}"
                      for state in ("queued", "running", "succeeded",
                                    "failed", "cancelled"))),
        (f"{bold}workers{reset}  alive "
         f"{_fmt_count(sample_value(samples, 'repro_workers_alive'))}"
         f"   http in-flight "
         f"{_fmt_count(sample_value(samples, 'repro_http_requests_in_flight'))}"
         f"   sse streams "
         f"{_fmt_count(sample_value(samples, 'repro_sse_streams_active'))}"
         f"   stalest beat "
         f"{_fmt_seconds(stats.get('stalest_heartbeat_seconds'))}"),
        (f"{bold}cells{reset}    executed "
         f"{_fmt_count(stats.get('cells_executed', 0))}"
         f"   cached {_fmt_count(stats.get('cells_cached', 0))}"
         f"   hit-ratio {stats.get('cache_hit_ratio', 0.0):.1%}"
         f"   events/sec {_fmt_count(stats.get('events_per_sec', 0.0))}"),
        (f"{bold}latency{reset}  claim p50 "
         f"{_fmt_seconds(quantile(samples, 'repro_claim_latency_seconds', 0.5))}"
         f" p95 "
         f"{_fmt_seconds(quantile(samples, 'repro_claim_latency_seconds', 0.95))}"
         f"   cell p50 "
         f"{_fmt_seconds(quantile(samples, 'repro_cell_wall_seconds', 0.5))}"
         f" p95 "
         f"{_fmt_seconds(quantile(samples, 'repro_cell_wall_seconds', 0.95))}"),
        (f"{bold}counters{reset} submitted "
         f"{_fmt_count(counters.get('jobs_submitted', 0))}"
         f"   deduped {_fmt_count(counters.get('jobs_deduped', 0))}"
         f"   retries {_fmt_count(counters.get('job_retries', 0))}"
         f"   orphans {_fmt_count(orphans)}"
         f"   torn lines {_fmt_count(counters.get('torn_trace_lines', 0))}"),
        "",
        f"{bold}{'METHOD':<7} {'ROUTE':<22} {'COUNT':>8} {'P95':>9}{reset}",
    ]
    for method, route, count, p95 in _route_rows(samples):
        lines.append(f"{method:<7} {route:<22} {_fmt_count(count):>8}"
                     f" {_fmt_seconds(p95):>9}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def top_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro top",
        description="Live terminal dashboard over a running repro service.")
    parser.add_argument("--url", default=DEFAULT_URL,
                        help=f"service base URL (default: {DEFAULT_URL})")
    parser.add_argument("--interval", type=float, default=DEFAULT_INTERVAL,
                        metavar="SECONDS",
                        help=f"refresh cadence (default: {DEFAULT_INTERVAL})")
    parser.add_argument("--once", action="store_true",
                        help="render a single frame and exit")
    parser.add_argument("--no-color", action="store_true",
                        help="plain output (no ANSI escapes)")
    args = parser.parse_args(argv)
    color = not args.no_color and sys.stdout.isatty()
    while True:
        try:
            samples, stats = scrape(args.url)
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"repro top: cannot scrape {args.url}: {exc}",
                  file=sys.stderr)
            if args.once:
                return 1
            time.sleep(max(0.1, args.interval))
            continue
        frame = render(args.url, samples, stats, color=color)
        if args.once:
            print(frame)
            return 0
        sys.stdout.write((_CLEAR if color else "\n") + frame + "\n")
        sys.stdout.flush()
        try:
            time.sleep(max(0.1, args.interval))
        except KeyboardInterrupt:
            return 0


def metrics_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro metrics",
        description="Fetch, snapshot, or lint a service's /metrics "
                    "exposition.")
    parser.add_argument("--url", default=DEFAULT_URL,
                        help=f"service base URL (default: {DEFAULT_URL})")
    parser.add_argument("--snapshot", action="store_true",
                        help="emit the scrape as JSON samples instead of "
                             "raw exposition text")
    parser.add_argument("--lint", action="store_true",
                        help="validate the exposition format; non-zero "
                             "exit on problems")
    parser.add_argument("--record", default=None, metavar="FILE",
                        help="append the scrape to a JSONL time-series "
                             "store")
    args = parser.parse_args(argv)
    try:
        text = _fetch(args.url.rstrip("/") + "/metrics")
    except (urllib.error.URLError, OSError) as exc:
        print(f"repro metrics: cannot scrape {args.url}: {exc}",
              file=sys.stderr)
        return 1
    if args.record:
        from repro.obs.tsdb import TimeSeriesStore, samples_row

        store = TimeSeriesStore(args.record)
        store.append("metrics", samples_row(parse_exposition(text)))
        print(f"repro metrics: scrape appended to {args.record} "
              f"({len(store)} rows)", file=sys.stderr)
    if args.lint:
        problems = lint_exposition(text)
        for problem in problems:
            print(f"repro metrics: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"ok: {len(parse_exposition(text))} samples, "
              "exposition format valid")
        return 0
    if args.snapshot:
        samples = parse_exposition(text)
        grouped: dict[str, list] = {}
        for s in samples:
            grouped.setdefault(s.name, []).append(
                {"labels": s.labels, "value": s.value})
        print(json.dumps(grouped, indent=2, sort_keys=True))
        return 0
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(top_main())
