"""Machine-readable simulator-performance trajectory (``BENCH_*.json``).

Every instrumented run already measures itself (per-cell wall time and
event counts in :class:`~repro.experiments.cellcache.ExecStats`); this
module turns that into a committed performance trajectory so a slowdown
in the simulator itself cannot ship silently:

- :func:`build_bench_record` reduces a run's per-experiment
  :class:`ExecStats` to the ``BENCH`` schema — run id, git SHA, per
  experiment events/sec and wall time, aggregate throughput;
- :func:`latest_bench` finds the most recent ``BENCH_<n>.json``
  committed at the repo root;
- :func:`compare_bench` judges a fresh record against a previous one
  (events/sec per experiment plus aggregate, relative threshold).

``repro experiment ... --bench FILE`` and ``scripts/smoke.py --bench``
write records; ``repro analyze bench`` validates and compares them.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path
from typing import Optional, Union

from repro.errors import ConfigError
from repro.experiments.cellcache import ExecStats
from repro.obs.manifest import git_sha

#: Schema 2 adds per-cell throughput (``cell_rates``); schema-1 records
#: stay loadable. Some committed schema-2 records also carry
#: ``backend``/``numpy_version`` provenance keys; they are ignored.
BENCH_SCHEMA = 2
_KNOWN_SCHEMAS = (1, 2)

#: Only experiments that actually simulated this many events participate
#: in throughput comparison (cache-served sweeps measure nothing).
MIN_COMPARABLE_EVENTS = 10_000

#: Default relative events/sec drop treated as a regression. Generous,
#: because wall-clock throughput is hardware- and load-dependent.
DEFAULT_BENCH_THRESHOLD = 0.5

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")


# ----------------------------------------------------------------------
# Record construction
# ----------------------------------------------------------------------

def _experiment_entry(stats: ExecStats) -> dict:
    wall = sum(p.wall for p in stats.profile)
    events = sum(p.events for p in stats.profile)
    return {
        "cells": stats.total,
        "executed": stats.executed,
        "cache_hits": stats.cache_hits,
        "wall_seconds": round(wall, 6),
        "events": events,
        "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
        "slowest_cell": (max(stats.profile, key=lambda p: p.wall).label
                         if stats.profile else None),
        "cell_rates": {p.label: round(p.events_per_sec, 1)
                       for p in sorted(stats.profile, key=lambda p: p.label)
                       if p.events},
    }


def build_bench_record(
    run_id: str,
    per_experiment: dict[str, ExecStats],
    scale: Optional[str] = None,
    created_unix: Optional[float] = None,
) -> dict:
    """The BENCH schema: one performance sample of the simulator."""
    experiments = {name: _experiment_entry(stats)
                   for name, stats in sorted(per_experiment.items())}
    wall = sum(e["wall_seconds"] for e in experiments.values())
    events = sum(e["events"] for e in experiments.values())
    return {
        "schema": BENCH_SCHEMA,
        "run_id": run_id,
        "git_sha": git_sha(),
        "created_unix": round(created_unix if created_unix is not None
                              else time.time(), 3),
        "scale": scale,
        "total_wall_seconds": round(wall, 6),
        "total_events": events,
        "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
        "experiments": experiments,
    }


def validate_bench(record: dict) -> dict:
    """Schema check; returns the record or raises ``ConfigError``."""
    if not isinstance(record, dict):
        raise ConfigError("bench record must be a JSON object")
    if record.get("schema") not in _KNOWN_SCHEMAS:
        raise ConfigError(
            f"bench schema {record.get('schema')!r} not in {_KNOWN_SCHEMAS}")
    for key in ("run_id", "total_wall_seconds", "events_per_sec",
                "experiments"):
        if key not in record:
            raise ConfigError(f"bench record missing {key!r}")
    if not isinstance(record["experiments"], dict):
        raise ConfigError("bench 'experiments' must be an object")
    for name, entry in record["experiments"].items():
        for key in ("wall_seconds", "events", "events_per_sec"):
            if key not in entry:
                raise ConfigError(f"bench experiment {name!r} missing {key!r}")
    return record


# ----------------------------------------------------------------------
# I/O and discovery
# ----------------------------------------------------------------------

def write_bench(path: Union[str, Path], record: dict) -> str:
    validate_bench(record)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return str(path)


def load_bench(path: Union[str, Path]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return validate_bench(json.load(handle))
    except FileNotFoundError:
        raise ConfigError(f"no bench record at {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"unreadable bench record {path}: {exc}") from None


def latest_bench(repo_dir: Union[str, Path]) -> Optional[Path]:
    """The highest-numbered ``BENCH_<n>.json`` at the repo root."""
    numbered: list[tuple[int, Path]] = []
    for path in Path(repo_dir).glob("BENCH_*.json"):
        match = _BENCH_NAME.match(path.name)
        if match:
            numbered.append((int(match.group(1)), path))
    return max(numbered)[1] if numbered else None


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------

def compare_bench(
    current: dict,
    previous: dict,
    threshold: float = DEFAULT_BENCH_THRESHOLD,
) -> tuple[list[str], list[str]]:
    """``(regressions, notes)`` for a current record vs a previous one.

    A regression is an experiment (or the aggregate) whose events/sec
    dropped by more than ``threshold`` relative to the previous record;
    entries that simulated almost nothing are skipped as incomparable.
    """
    regressions: list[str] = []
    notes: list[str] = []
    pairs = [("aggregate", current, previous)]
    prev_experiments = previous.get("experiments", {})
    for name, entry in current.get("experiments", {}).items():
        if name in prev_experiments:
            pairs.append((name, entry, prev_experiments[name]))
        else:
            notes.append(f"{name}: no previous sample")
    for name, cur, prev in pairs:
        cur_events = cur.get("total_events", cur.get("events", 0))
        prev_events = prev.get("total_events", prev.get("events", 0))
        if (cur_events < MIN_COMPARABLE_EVENTS
                or prev_events < MIN_COMPARABLE_EVENTS):
            notes.append(f"{name}: too few simulated events to compare "
                         f"({cur_events} vs {prev_events})")
            continue
        cur_rate, prev_rate = cur["events_per_sec"], prev["events_per_sec"]
        if prev_rate <= 0:
            continue
        change = (cur_rate - prev_rate) / prev_rate
        line = (f"{name}: {prev_rate:,.0f} -> {cur_rate:,.0f} events/s "
                f"({change:+.1%})")
        if change < -threshold:
            regressions.append(line)
        else:
            notes.append(line)
    return regressions, notes
