"""Append-only, retention-bounded JSONL store for observability rows.

The service's ``/metrics`` endpoint answers "what is the state *now*";
the tsdb keeps the history without running a real database.  Rows are
one JSON object per line::

    {"ts": 1754650000.0, "kind": "metrics", "data": {...}}

Appends are O(1) file appends; retention is enforced by an occasional
atomic rewrite that drops rows beyond ``max_rows`` (oldest first) or
older than ``max_age_seconds``.  Readers tolerate a torn final line
(same contract as the telemetry trace reader), so a crash mid-append
never poisons the store.

Two row builders cover the standard producers: :func:`metrics_row`
flattens a metrics-registry snapshot to scalars (the service worker's
sampler) and :func:`samples_row` flattens a parsed ``/metrics`` scrape
(``repro metrics --record``).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Iterable, Optional, Union

__all__ = ["TimeSeriesStore", "metrics_row", "samples_row"]

DEFAULT_MAX_ROWS = 20000


class TimeSeriesStore:
    """One JSONL file of timestamped rows with bounded retention."""

    def __init__(self, path: Union[str, Path],
                 max_rows: int = DEFAULT_MAX_ROWS,
                 max_age_seconds: Optional[float] = None) -> None:
        if max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {max_rows}")
        self.path = Path(path)
        self.max_rows = max_rows
        self.max_age_seconds = max_age_seconds
        self._count: Optional[int] = None  # lazy; maintained across appends

    # -- writing --------------------------------------------------------

    def append(self, kind: str, data: dict,
               ts: Optional[float] = None) -> dict:
        """Append one row (and enforce retention when over budget)."""
        row = {"ts": float(ts if ts is not None else time.time()),
               "kind": str(kind), "data": data}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
        if self._count is None:
            self._count = self._scan_count()
        else:
            self._count += 1
        # Rewrite lazily at 25% overshoot so steady-state appends stay O(1).
        if self._count > self.max_rows * 1.25:
            self.prune(now=row["ts"])
        return row

    def prune(self, now: Optional[float] = None) -> int:
        """Drop rows beyond the retention bounds; returns rows dropped."""
        rows = list(self.rows())
        kept = rows
        if self.max_age_seconds is not None:
            horizon = (now if now is not None else time.time())
            horizon -= self.max_age_seconds
            kept = [row for row in kept if row["ts"] >= horizon]
        if len(kept) > self.max_rows:
            kept = kept[-self.max_rows:]
        dropped = len(rows) - len(kept)
        if dropped > 0:
            fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    for row in kept:
                        handle.write(json.dumps(row, sort_keys=True) + "\n")
                os.replace(tmp, self.path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        self._count = len(kept)
        return dropped

    # -- reading --------------------------------------------------------

    def rows(self, kind: Optional[str] = None,
             limit: Optional[int] = None) -> list:
        """Rows oldest-first, optionally filtered by kind / last ``limit``."""
        out = []
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        row = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn final line from a crashed appender
                    if not isinstance(row, dict) or "ts" not in row:
                        continue
                    if kind is not None and row.get("kind") != kind:
                        continue
                    out.append(row)
        except OSError:
            return []
        if limit is not None:
            out = out[-limit:]
        return out

    def series(self, kind: str, key: str) -> list:
        """``[(ts, value), ...]`` for one numeric data key, oldest first."""
        points = []
        for row in self.rows(kind=kind):
            value = row.get("data", {}).get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                points.append((row["ts"], value))
        return points

    def _scan_count(self) -> int:
        try:
            with open(self.path, "rb") as handle:
                return sum(1 for line in handle if line.strip())
        except OSError:
            return 0

    def __len__(self) -> int:
        if self._count is None:
            self._count = self._scan_count()
        return self._count


# ----------------------------------------------------------------------
# Row builders
# ----------------------------------------------------------------------

def metrics_row(snapshot: dict) -> dict:
    """Flatten a :meth:`MetricsRegistry.snapshot` to scalar series.

    Counters/gauges sum across label children under the family name;
    histograms contribute ``<name>_count`` and ``<name>_sum``.
    """
    flat: dict = {}
    for name, children in snapshot.items():
        for child in children:
            if "value" in child:
                flat[name] = flat.get(name, 0.0) + child["value"]
            else:
                flat[f"{name}_count"] = (
                    flat.get(f"{name}_count", 0.0) + child.get("count", 0))
                flat[f"{name}_sum"] = (
                    flat.get(f"{name}_sum", 0.0) + child.get("sum", 0.0))
    return flat


def samples_row(samples: Iterable) -> dict:
    """Flatten parsed exposition samples (``parse_exposition``) likewise."""
    flat: dict = {}
    for sample in samples:
        name = sample.name
        if name.endswith("_bucket"):
            continue  # cumulative buckets are not a useful scalar series
        flat[name] = flat.get(name, 0.0) + sample.value
    return flat

