"""Incremental tailing of telemetry JSONL traces for live progress.

A :class:`TraceTailer` watches a trace directory while a run is in
flight and yields each *complete* new JSONL record exactly once,
tolerating files that appear mid-run and lines that are only partially
flushed (a record is consumed only once its trailing newline exists).
The simulation service points one at a job's trace directory and
forwards a sampled stream of records to the job's SSE progress feed;
``repro analyze`` stays the offline, post-hoc consumer of the same
files.

The tailer is read-only and stateless on disk: it keeps per-file byte
offsets in memory, so it never perturbs the run it observes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Union

__all__ = ["TraceTailer"]


class TraceTailer:
    """Poll a directory of ``*.trace.jsonl`` files for new records.

    Each :meth:`poll` returns the records appended (across all trace
    files, oldest file first) since the previous poll, as
    ``(trace_stem, record)`` pairs.  ``sample`` keeps every Nth
    ``sample`` record per file — SSE consumers rarely want the full
    probe cadence — while non-sample records (meta, decisions) always
    pass through.
    """

    def __init__(self, trace_dir: Union[str, Path], sample: int = 1) -> None:
        self.trace_dir = Path(trace_dir)
        self.sample = max(1, sample)
        self._offsets: dict[Path, int] = {}
        self._partial: dict[Path, str] = {}
        self._sample_seen: dict[Path, int] = {}

    def _files(self) -> list[Path]:
        if not self.trace_dir.is_dir():
            return []
        return sorted(self.trace_dir.rglob("*.trace.jsonl"))

    def poll(self) -> list[tuple[str, dict]]:
        """All complete records appended since the last poll."""
        return list(self.iter_new())

    def iter_new(self) -> Iterator[tuple[str, dict]]:
        for path in self._files():
            stem = path.name[: -len(".trace.jsonl")]
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    handle.seek(self._offsets.get(path, 0))
                    chunk = handle.read()
                    self._offsets[path] = handle.tell()
            except OSError:
                continue  # vanished or unreadable mid-poll; retry later
            if not chunk:
                continue
            text = self._partial.pop(path, "") + chunk
            lines = text.split("\n")
            # The final split element is everything after the last
            # newline: an incomplete record still being written (or ""
            # when the chunk ended exactly on a boundary). Hold it back.
            if lines[-1]:
                self._partial[path] = lines[-1]
            for line in lines[:-1]:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn mid-file line; skip, keep tailing
                if record.get("t") == "sample":
                    seen = self._sample_seen.get(path, 0)
                    self._sample_seen[path] = seen + 1
                    if seen % self.sample:
                        continue
                yield stem, record

    def drain(self) -> list[tuple[str, dict]]:
        """Final poll after the run finished (no more writers)."""
        return self.poll()
