"""Dependency-free service metrics: counters, gauges, histograms.

The simulation's *in-run* telemetry (probes, JSONL traces) observes what
happens inside one simulated system; this module observes the **service
around it** — request rates, queue depth, claim latency, cache-hit and
dedupe counters, job wall-time distributions.  It is a minimal
Prometheus-client workalike built on the stdlib:

- :class:`MetricsRegistry` holds metric *families* (``counter``,
  ``gauge``, ``histogram``), each optionally labelled; families and
  their children are process-global singletons, touched only by the
  service (``repro.service``) at job/request granularity — the engine
  and the simulator never import this module;
- :meth:`MetricsRegistry.render` emits the Prometheus **text exposition
  format v0.0.4** (``GET /metrics`` serves it verbatim), atomically:
  one lock guards every update and the snapshot, so a scrape never sees
  a histogram whose bucket counts disagree with its ``_count``;
- :func:`parse_exposition` / :func:`lint_exposition` re-parse and
  validate exposition text (CI lints the live scrape with them, and
  the ``/metrics`` render tests check against the parser).

Everything is observation-only: no simulation state is read or written,
and the default registry can be :meth:`reset <MetricsRegistry.reset>`
between tests.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

__all__ = [
    "DEFAULT_BUCKETS",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sample",
    "lint_exposition",
    "parse_exposition",
]

#: Default histogram buckets (seconds): spans sub-ms request handling
#: through multi-minute simulation cells.
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
                   2.5, 5.0, 10.0, 30.0, 60.0, 120.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_suffix(labelnames: Sequence[str], labelvalues: Sequence[str],
                   extra: Sequence[tuple[str, str]] = ()) -> str:
    pairs = [(n, v) for n, v in zip(labelnames, labelvalues)]
    pairs += list(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{n}="{_escape_label(v)}"' for n, v in pairs)
    return "{" + inner + "}"


# ----------------------------------------------------------------------
# Metric children (one per label combination)
# ----------------------------------------------------------------------

class Counter:
    """Monotonically increasing value.  ``inc`` only."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go anywhere: ``set``/``inc``/``dec``."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics)."""

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.RLock,
                 buckets: Sequence[float]) -> None:
        self._lock = lock
        self.buckets = tuple(buckets)
        self._counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            # Per-bucket counts; cumulated lazily at render time.
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1
                    break

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def cumulative(self) -> list[int]:
        """Cumulative per-bucket counts (``le`` semantics, no +Inf)."""
        with self._lock:
            total, out = 0, []
            for c in self._counts:
                total += c
                out.append(total)
            return out


# ----------------------------------------------------------------------
# Metric families
# ----------------------------------------------------------------------

_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric with zero or more label dimensions.

    A family with no ``labelnames`` proxies ``inc``/``set``/``observe``
    straight to its single child, so unlabelled metrics read naturally:
    ``REGISTRY.counter("x_total", "...").inc()``.
    """

    def __init__(self, name: str, help_text: str, kind: str,
                 labelnames: Sequence[str], lock: threading.RLock,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets)
        self._lock = lock
        self._children: dict[tuple, object] = {}

    def labels(self, *values, **kv):
        """The child for one label-value combination (created on first use)."""
        if kv:
            if values:
                raise ValueError("pass label values positionally or by "
                                 "keyword, not both")
            try:
                values = tuple(str(kv[n]) for n in self.labelnames)
            except KeyError as exc:
                raise ValueError(
                    f"{self.name}: missing label {exc}") from None
            if set(kv) - set(self.labelnames):
                raise ValueError(
                    f"{self.name}: unknown label(s) "
                    f"{sorted(set(kv) - set(self.labelnames))}")
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {values}")
        with self._lock:
            child = self._children.get(values)
            if child is None:
                if self.kind == "histogram":
                    child = Histogram(self._lock, self.buckets)
                else:
                    child = _CHILD_TYPES[self.kind](self._lock)
                self._children[values] = child
        return child

    # Unlabelled conveniences -------------------------------------------
    def _solo(self):
        if self.labelnames:
            raise ValueError(f"{self.name} is labelled "
                             f"{self.labelnames}; use .labels(...)")
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    # Rendering ---------------------------------------------------------
    def render_into(self, lines: list[str]) -> None:
        """Append this family's exposition block (caller holds the lock)."""
        if not self._children:
            return
        lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for values in sorted(self._children):
            child = self._children[values]
            if self.kind == "histogram":
                cumulative = child.cumulative()
                for bound, count in zip(child.buckets, cumulative):
                    suffix = _labels_suffix(
                        self.labelnames, values,
                        extra=[("le", _format_value(bound))])
                    lines.append(
                        f"{self.name}_bucket{suffix} {count}")
                suffix = _labels_suffix(self.labelnames, values,
                                        extra=[("le", "+Inf")])
                lines.append(f"{self.name}_bucket{suffix} {child.count}")
                suffix = _labels_suffix(self.labelnames, values)
                lines.append(
                    f"{self.name}_sum{suffix} {_format_value(child.sum)}")
                lines.append(f"{self.name}_count{suffix} {child.count}")
            else:
                suffix = _labels_suffix(self.labelnames, values)
                lines.append(
                    f"{self.name}{suffix} {_format_value(child.value)}")


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------

class MetricsRegistry:
    """Process-wide collection of metric families.

    One re-entrant lock guards registration, every child update, and
    :meth:`render`, which makes the exposition an **atomic snapshot**:
    no torn output, and each histogram's bucket counts always sum
    consistently with its ``_count`` within one scrape.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, MetricFamily] = {}
        self._scrape_hooks: list[Callable[[], None]] = []

    # Registration ------------------------------------------------------
    def _family(self, name: str, help_text: str, kind: str,
                labelnames: Sequence[str],
                buckets: Sequence[float] = DEFAULT_BUCKETS) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"bad label name {label!r} on {name}")
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if (existing.kind != kind
                        or existing.labelnames != tuple(labelnames)):
                    raise ValueError(
                        f"metric {name} re-registered as {kind}"
                        f"{tuple(labelnames)}; was {existing.kind}"
                        f"{existing.labelnames}")
                return existing
            family = MetricFamily(name, help_text, kind, labelnames,
                                  self._lock, buckets=buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str,
                labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, help_text, "counter", labelnames)

    def gauge(self, name: str, help_text: str,
              labelnames: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, help_text, "gauge", labelnames)

    def histogram(self, name: str, help_text: str,
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> MetricFamily:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name}: buckets must be "
                             "non-empty and ascending")
        return self._family(name, help_text, "histogram", labelnames,
                            buckets=buckets)

    def on_scrape(self, hook: Callable[[], None]) -> None:
        """Register a callback run before each render (gauge refresh)."""
        with self._lock:
            self._scrape_hooks.append(hook)

    # Output ------------------------------------------------------------
    def render(self) -> str:
        """The Prometheus text exposition v0.0.4 for every family."""
        for hook in list(self._scrape_hooks):
            hook()  # outside the lock: hooks may query SQLite etc.
        lines: list[str] = []
        with self._lock:
            for name in sorted(self._families):
                self._families[name].render_into(lines)
        return "\n".join(lines) + "\n" if lines else "\n"

    def value(self, name: str, labels: Optional[dict] = None) -> float:
        """One child's current value (0.0 when it never existed)."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return 0.0
            key = tuple(str((labels or {}).get(n, ""))
                        for n in family.labelnames)
            child = family._children.get(key)
            if child is None:
                return 0.0
            if family.kind == "histogram":
                return float(child.count)
            return child.value

    def reset(self) -> None:
        """Drop every family and hook (test isolation)."""
        with self._lock:
            self._families.clear()
            self._scrape_hooks.clear()


#: The process-global default registry every subsystem instruments.
REGISTRY = MetricsRegistry()


# ----------------------------------------------------------------------
# Exposition parsing and linting (pure python, used by CI and the tests)
# ----------------------------------------------------------------------

@dataclass
class Sample:
    """One exposition line: ``name{labels} value``."""

    name: str
    labels: dict = field(default_factory=dict)
    value: float = 0.0


_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*'
    r'"(?P<value>(?:[^"\\]|\\.)*)"\s*')


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    return float(text)


def _unescape_label(value: str) -> str:
    return (value.replace("\\n", "\n").replace('\\"', '"')
            .replace("\\\\", "\\"))


def _parse_sample_line(line: str, lineno: int) -> Sample:
    """One ``name{labels} value [timestamp]`` line.

    Labels are scanned pair-by-pair (not with one bracket-bounded
    regex) because quoted label *values* may legally contain ``}`` —
    e.g. a route template like ``route="/jobs/{id}"``.
    """
    name_match = re.match(r"[a-zA-Z_:][a-zA-Z0-9_:]*", line)
    if not name_match:
        raise ValueError(f"line {lineno}: unparsable sample {line!r}")
    name = name_match.group(0)
    pos = name_match.end()
    labels: dict[str, str] = {}
    if pos < len(line) and line[pos] == "{":
        pos += 1
        if pos < len(line) and line[pos] == "}":
            pos += 1  # empty label set: "name{} value"
        else:
            while True:
                pair = _LABEL_PAIR_RE.match(line, pos)
                if not pair:
                    raise ValueError(
                        f"line {lineno}: bad label syntax in {line!r}")
                key = pair.group("name")
                if key in labels:
                    raise ValueError(
                        f"line {lineno}: duplicate label {key!r}")
                labels[key] = _unescape_label(pair.group("value"))
                pos = pair.end()
                if pos >= len(line):
                    raise ValueError(
                        f"line {lineno}: unterminated labels in {line!r}")
                if line[pos] == ",":
                    pos += 1
                    continue
                if line[pos] == "}":
                    pos += 1
                    break
                raise ValueError(
                    f"line {lineno}: bad label syntax in {line!r}")
    rest = line[pos:].split()
    if len(rest) not in (1, 2):
        raise ValueError(f"line {lineno}: unparsable sample {line!r}")
    if len(rest) == 2 and not re.fullmatch(r"-?\d+", rest[1]):
        raise ValueError(f"line {lineno}: bad timestamp in {line!r}")
    try:
        value = _parse_value(rest[0])
    except ValueError:
        raise ValueError(f"line {lineno}: bad value {rest[0]!r}") from None
    return Sample(name, labels, value)


def parse_exposition(text: str) -> list[Sample]:
    """Parse Prometheus text exposition v0.0.4; raises ValueError on
    malformed lines.  Comment lines (``# HELP``/``# TYPE``/other) are
    validated for shape but not returned."""
    samples: list[Sample] = []
    types: dict[str, str] = {}
    seen_sample_for: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                name = parts[2]
                if not _NAME_RE.match(name):
                    raise ValueError(
                        f"line {lineno}: bad metric name {name!r}")
                if parts[1] == "TYPE":
                    if len(parts) < 4 or parts[3] not in (
                            "counter", "gauge", "histogram", "summary",
                            "untyped"):
                        raise ValueError(
                            f"line {lineno}: bad TYPE line {line!r}")
                    if name in types:
                        raise ValueError(
                            f"line {lineno}: duplicate TYPE for {name}")
                    base_seen = {s for s in seen_sample_for
                                 if s == name or s.startswith(name + "_")}
                    if base_seen:
                        raise ValueError(
                            f"line {lineno}: TYPE for {name} after its "
                            "samples")
                    types[name] = parts[3]
            continue
        sample = _parse_sample_line(line, lineno)
        samples.append(sample)
        seen_sample_for.add(sample.name)
    _check_histograms(samples, types)
    return samples


def _histogram_series_key(labels: dict) -> tuple:
    return tuple(sorted((k, v) for k, v in labels.items() if k != "le"))


def _check_histograms(samples: Iterable[Sample],
                      types: dict[str, str]) -> None:
    """Histogram families must be internally consistent: cumulative
    non-decreasing buckets, a +Inf bucket equal to ``_count``."""
    histograms = {name for name, kind in types.items()
                  if kind == "histogram"}
    for base in histograms:
        series: dict[tuple, dict] = {}
        for sample in samples:
            if sample.name == f"{base}_bucket":
                key = _histogram_series_key(sample.labels)
                series.setdefault(key, {"buckets": [], "count": None,
                                        "sum": None})
                series[key]["buckets"].append(
                    (_parse_value(sample.labels.get("le", "+Inf")),
                     sample.value))
            elif sample.name == f"{base}_count":
                key = _histogram_series_key(sample.labels)
                series.setdefault(key, {"buckets": [], "count": None,
                                        "sum": None})
                series[key]["count"] = sample.value
            elif sample.name == f"{base}_sum":
                key = _histogram_series_key(sample.labels)
                series.setdefault(key, {"buckets": [], "count": None,
                                        "sum": None})
                series[key]["sum"] = sample.value
        for key, data in series.items():
            buckets = sorted(data["buckets"])
            if not buckets or buckets[-1][0] != math.inf:
                raise ValueError(
                    f"histogram {base}{dict(key)}: missing +Inf bucket")
            counts = [c for _, c in buckets]
            if any(b > a for b, a in zip(counts, counts[1:])):
                raise ValueError(
                    f"histogram {base}{dict(key)}: bucket counts "
                    "decrease with increasing le")
            if data["count"] is None or data["sum"] is None:
                raise ValueError(
                    f"histogram {base}{dict(key)}: missing _sum/_count")
            if counts[-1] != data["count"]:
                raise ValueError(
                    f"histogram {base}{dict(key)}: +Inf bucket "
                    f"{counts[-1]} != _count {data['count']}")


def lint_exposition(text: str) -> list[str]:
    """Validate exposition text; returns problems (empty == clean)."""
    try:
        parse_exposition(text)
    except ValueError as exc:
        return [str(exc)]
    return []
