"""Streaming JSONL trace sink and manifest files.

One trace file holds one run. Records are single-line JSON objects
discriminated by ``"t"``:

``{"t": "meta", ...}``
    First line: probe names, interval, and the run label.
``{"t": "sample", "cycle": C, "values": {probe: value, ...}}``
    One probe sweep, taken every ``probe_interval`` cycles.
``{"t": "decision", "cycle": C, "line": L, "technique": "fwb",
   "granted": true, "credits": {...}}``
    One steering decision (subject to the event sampling stride).

The run manifest is written next to the trace as ``<stem>.manifest.json``
(plain JSON, not JSONL, so dashboards can grab it without parsing the
trace).
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path
from typing import Iterator, Optional, Union

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")

#: Records between explicit flushes of a :class:`TraceWriter` handle, so
#: a crashing run still leaves an almost-complete, readable trace behind.
DEFAULT_FLUSH_EVERY = 256


def safe_stem(label: str) -> str:
    """A filesystem-safe stem for a cell label like ``mcf/dap``."""
    return _SAFE.sub("_", label).strip("_") or "run"


def trace_paths(trace_dir: Union[str, Path], label: str) -> tuple[Path, Path]:
    """``(trace.jsonl, manifest.json)`` paths for one labelled run."""
    stem = safe_stem(label)
    root = Path(trace_dir)
    return root / f"{stem}.trace.jsonl", root / f"{stem}.manifest.json"


class TraceWriter:
    """Append-only JSONL writer; one instance per run.

    The handle is flushed every ``flush_every`` records (and on
    :meth:`close`), so an interrupted run loses at most the last batch —
    and the final line a crash does tear is tolerated by
    :func:`iter_trace` / :func:`read_trace`.
    """

    def __init__(self, path: Union[str, Path],
                 flush_every: int = DEFAULT_FLUSH_EVERY) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w", encoding="utf-8")
        self._flush_every = max(1, flush_every)
        self.records_written = 0

    def write(self, record: dict) -> None:
        json.dump(record, self._handle, separators=(",", ":"))
        self._handle.write("\n")
        self.records_written += 1
        if self.records_written % self._flush_every == 0:
            self._handle.flush()

    def write_meta(self, label: str, probes: list[str], interval: int) -> None:
        self.write({"t": "meta", "label": label, "probes": probes,
                    "probe_interval": interval})

    def write_sample(self, cycle: int, values: dict) -> None:
        self.write({"t": "sample", "cycle": cycle, "values": values})

    def write_decision(self, record: dict) -> None:
        self.write({"t": "decision", **record})

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def iter_trace(path: Union[str, Path],
               kind: Optional[str] = None,
               stats: Optional[dict] = None) -> Iterator[dict]:
    """Stream a JSONL trace one record at a time (constant memory).

    Optionally filters to one record ``kind`` (the ``"t"`` field). A
    truncated/partial *final* line — the signature of a run interrupted
    mid-write — is tolerated but **counted**: when the caller passes a
    ``stats`` dict, the drop increments its ``"torn_lines"`` entry — so
    the data loss is visible in ``repro analyze`` reports instead of
    silent.  An unparsable line anywhere else means the file is corrupt
    and raises ``json.JSONDecodeError``.
    """
    if stats is not None:
        stats.setdefault("torn_lines", 0)
    with open(path, "r", encoding="utf-8") as handle:
        pending_error: Optional[json.JSONDecodeError] = None
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if pending_error is not None:
                # The bad line was *not* the last one: real corruption.
                raise pending_error
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                pending_error = exc
                continue
            if kind is None or record.get("t") == kind:
                yield record
        if pending_error is not None and stats is not None:
            stats["torn_lines"] += 1


def read_trace(path: Union[str, Path],
               kind: Optional[str] = None) -> list[dict]:
    """Load a JSONL trace, optionally filtered to one record kind.

    Shares :func:`iter_trace`'s tolerance of a torn final line; prefer
    the generator itself for long traces.
    """
    return list(iter_trace(path, kind))


def write_manifest(path: Union[str, Path], manifest: dict) -> str:
    """Write a run manifest as pretty JSON; returns the path written.

    Atomic: the manifest lands in a *uniquely named* temp file first and
    is installed with ``os.replace``.  A fixed temp name would let two
    workers producing the same manifest interleave writes into one temp
    file — and a worker killed mid-write would leave a half-written temp
    for the survivor to install — poisoning the shared sidecar for every
    other worker.  Unique names + replace mean readers only ever see a
    complete manifest, and a kill mid-write leaves the target untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent,
                               prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)  # readers see old or new, never torn
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return str(path)
