"""The probe framework: a sampling hub with bounded in-memory series.

A :class:`Telemetry` hub owns a set of named *probes* — zero-argument
callables returning one scalar — and samples all of them every
``probe_interval`` simulated cycles by scheduling itself on the event
queue. Samples land in per-probe :class:`Series` ring buffers (bounded,
so arbitrarily long runs use constant memory) and, when a sink is
attached, stream to a JSONL trace as they are taken.

Sampling is read-only and self-terminating: the sampler only reschedules
while other events remain in the queue, so an instrumented run drains to
completion exactly like an uninstrumented one, and probe callbacks never
mutate component state — enabling telemetry cannot change ``cycles`` or
any CAS count.

The hub doubles as the *decision observer* for steering policies: each
DAP grant/deny call reports through :meth:`Telemetry.decision`, which
applies a deterministic 1-in-N sampling stride before materializing the
(comparatively expensive) credit snapshot.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ConfigError
from repro.obs.telemetry_config import (  # noqa: F401 — re-exported
    DEFAULT_BUFFER_SAMPLES,
    DEFAULT_EVENT_SAMPLE,
    DEFAULT_PROBE_INTERVAL,
    TelemetryConfig,
)

if TYPE_CHECKING:
    from repro.engine.event_queue import Simulator

Probe = Callable[[], float]

DEFAULT_EVENT_BUFFER = 65_536


class Series:
    """One probe's bounded time series of ``(cycle, value)`` samples."""

    __slots__ = ("name", "_samples")

    def __init__(self, name: str, maxlen: int = DEFAULT_BUFFER_SAMPLES) -> None:
        self.name = name
        self._samples: deque[tuple[int, float]] = deque(maxlen=maxlen)

    def append(self, cycle: int, value: float) -> None:
        self._samples.append((cycle, value))

    def cycles(self) -> list[int]:
        return [cycle for cycle, _ in self._samples]

    def values(self) -> list[float]:
        return [value for _, value in self._samples]

    def samples(self) -> list[tuple[int, float]]:
        return list(self._samples)

    def last(self) -> Optional[tuple[int, float]]:
        return self._samples[-1] if self._samples else None

    @property
    def maxlen(self) -> int:
        return self._samples.maxlen or 0

    def __len__(self) -> int:
        return len(self._samples)

    def __repr__(self) -> str:
        return f"Series({self.name!r}, n={len(self)})"


class Telemetry:
    """Samples registered probes on a simulated-cycle cadence.

    Parameters
    ----------
    sim:
        The simulator whose event queue drives sampling.
    interval:
        Cycles between samples (the ``--probe-interval`` knob).
    buffer_samples:
        Ring-buffer bound of every series.
    sink:
        Optional :class:`~repro.obs.trace.TraceWriter`; samples and
        decision events stream to it as they occur.
    events / event_sample:
        Whether to record per-decision events, and the 1-in-N stride.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: int = DEFAULT_PROBE_INTERVAL,
        buffer_samples: int = DEFAULT_BUFFER_SAMPLES,
        sink=None,
        events: bool = True,
        event_sample: int = DEFAULT_EVENT_SAMPLE,
        event_buffer: int = DEFAULT_EVENT_BUFFER,
    ) -> None:
        if interval <= 0:
            raise ConfigError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.interval = interval
        self.buffer_samples = buffer_samples
        self.sink = sink
        self.events_enabled = events
        self.event_sample = max(1, event_sample)
        self._probes: dict[str, Probe] = {}
        self._series: dict[str, Series] = {}
        # (name, probe, series.append) triples, rebuilt on registration:
        # the sampler walks this flat plan instead of re-resolving the
        # probe and series dicts every interval.
        self._plan: Optional[list[tuple[str, Probe, Callable]]] = None
        self.decisions: deque[dict] = deque(maxlen=event_buffer)
        self.samples_taken = 0
        self.decisions_seen = 0
        self.decisions_recorded = 0
        self._started = False

    @classmethod
    def from_config(cls, sim: Simulator, config: TelemetryConfig,
                    sink=None) -> "Telemetry":
        return cls(
            sim, interval=config.probe_interval,
            buffer_samples=config.buffer_samples, sink=sink,
            events=config.events, event_sample=config.event_sample,
        )

    # ------------------------------------------------------------------
    # Probe registration
    # ------------------------------------------------------------------
    def register(self, name: str, probe: Probe) -> None:
        """Register a named probe; duplicate names are rejected."""
        if name in self._probes:
            raise ConfigError(f"probe {name!r} already registered")
        self._probes[name] = probe
        self._series[name] = Series(name, maxlen=self.buffer_samples)
        self._plan = None

    def probe_names(self) -> list[str]:
        return list(self._probes)

    def series(self, name: str) -> Series:
        return self._series[name]

    def all_series(self) -> dict[str, Series]:
        return dict(self._series)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the first sample one interval from now."""
        if self._started:
            return
        self._started = True
        self.sim.schedule(self.interval, self._sample)

    def _sample(self) -> None:
        plan = self._plan
        if plan is None:
            plan = self._plan = [
                (name, probe, self._series[name].append)
                for name, probe in self._probes.items()
            ]
        sim = self.sim
        now = sim.now
        if self.sink is not None:
            values: dict[str, float] = {}
            for name, probe, append in plan:
                value = float(probe())
                values[name] = value
                append(now, value)
            self.sink.write_sample(now, values)
        else:
            for _name, probe, append in plan:
                append(now, float(probe()))
        self.samples_taken += 1
        # Self-terminating: only keep sampling while the simulation still
        # has work queued; an idle queue means the run is over.
        if sim.pending:
            sim.schedule(self.interval, self._sample)

    # ------------------------------------------------------------------
    # Decision observer (called by the DAP steering policies)
    # ------------------------------------------------------------------
    def decision(self, now: int, line: int, technique: str, granted: bool,
                 policy=None) -> None:
        """Record one steering decision, subject to the sampling stride.

        ``policy`` (when given) supplies ``credit_state()`` — snapshotted
        only for the decisions that survive the stride, so full-rate runs
        stay cheap even at ``event_sample=100``.
        """
        if not self.events_enabled:
            return
        self.decisions_seen += 1
        if (self.decisions_seen - 1) % self.event_sample:
            return
        credits = policy.credit_state() if policy is not None else {}
        record = {
            "cycle": now,
            "line": line,
            "technique": technique,
            "granted": granted,
            "credits": credits,
        }
        self.decisions.append(record)
        self.decisions_recorded += 1
        if self.sink is not None:
            self.sink.write_decision(record)

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Manifest-ready accounting of what was observed."""
        return {
            "probe_interval": self.interval,
            "probes": len(self._probes),
            "samples": self.samples_taken,
            "decisions_seen": self.decisions_seen,
            "decisions_recorded": self.decisions_recorded,
            "event_sample": self.event_sample,
        }

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()
