"""What a run needs to know to instrument itself.

Split from :mod:`repro.obs.telemetry` (which re-exports every name
here) so that the CLI and :mod:`repro.api` can offer the telemetry
options without loading the probe hub: only a run that is traced
imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError

DEFAULT_PROBE_INTERVAL = 10_000
DEFAULT_BUFFER_SAMPLES = 4096
DEFAULT_EVENT_SAMPLE = 1


@dataclass(frozen=True)
class TelemetryConfig:
    """Everything a run needs to know to instrument itself.

    Picklable (so cells can carry it across process-pool workers) and
    deliberately *not* part of any cell cache key: telemetry never
    changes simulation results, only observes them.
    """

    probe_interval: int = DEFAULT_PROBE_INTERVAL  # cycles between samples
    trace_dir: Optional[str] = None   # stream JSONL here (None = memory only)
    events: bool = True               # record per-decision DAP events
    event_sample: int = DEFAULT_EVENT_SAMPLE  # keep every Nth decision
    buffer_samples: int = DEFAULT_BUFFER_SAMPLES  # ring bound per series

    def __post_init__(self) -> None:
        if self.probe_interval <= 0:
            raise ConfigError(
                f"probe_interval must be positive, got {self.probe_interval}")
        if self.event_sample <= 0:
            raise ConfigError(
                f"event_sample must be positive, got {self.event_sample}")
        if self.buffer_samples <= 0:
            raise ConfigError(
                f"buffer_samples must be positive, got {self.buffer_samples}")
