"""Stdlib sampling profiler with per-cell attribution.

A :class:`SamplingProfiler` runs a background daemon thread that wakes
at a configurable rate, snapshots every *tracked* thread's Python stack
via :func:`sys._current_frames`, and counts the stacks in a
:class:`Profile`.  Nothing is instrumented: the profiled code runs the
exact bytecode it runs unprofiled, no trace hooks are installed, and the
profiler never touches seeded RNG state — so profiled simulations stay
bit-identical to unprofiled ones (the determinism golden enforces it).

Samples are attributed to the *cell* a thread registered with
(:meth:`SamplingProfiler.track`), matching the engine's per-cell
execution model: the engine starts one profiler around each executed
cell, so pool workers and the serial path profile identically.

The on-disk format is collapsed stacks — one ``frame;frame;... count``
line per distinct stack, root first, the standard input of every
flamegraph tool — with two repo-specific conventions:

- comment headers ``# key: value`` carry metadata (hz, duration,
  sample count) and are ignored by standard tooling;
- the root frame ``cell:<label>`` carries cell attribution, so
  per-cell breakdowns survive merging whole-run profiles.

Lines are emitted sorted, so identical sample multisets serialize to
identical bytes.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Iterable, Optional, Tuple

__all__ = [
    "DEFAULT_HZ",
    "Profile",
    "SamplingProfiler",
    "merge_collapsed",
    "top_symbols",
]

#: Default sample rate. Prime, so sampling never phase-locks with
#: periodic work; ~100 Hz keeps overhead well under the 5% budget
#: (measured in PERFORMANCE.md) while resolving cells that run for
#: tens of milliseconds.
DEFAULT_HZ = 101

#: Stacks deeper than this keep their leaf-most frames under a
#: ``<truncated>`` root (recursion guard for the collapsed format).
MAX_DEPTH = 120

_CELL_PREFIX = "cell:"

# Frame separators and the count separator may not appear inside a
# symbol; translate them to harmless stand-ins once, at sample time.
_SANITIZE = str.maketrans({";": ":", " ": "_", "\t": "_", "\n": "_"})


def _symbol(code) -> str:
    """``module.qualname`` for one code object, collapsed-format safe."""
    qualname = getattr(code, "co_qualname", None) or code.co_name
    module = Path(code.co_filename).stem or "?"
    return f"{module}.{qualname}".translate(_SANITIZE)


def _stack_of(frame) -> Tuple[str, ...]:
    """Root-first symbol tuple for a live frame (leaf = last element)."""
    symbols = []
    depth = 0
    while frame is not None and depth < MAX_DEPTH + 1:
        symbols.append(_symbol(frame.f_code))
        frame = frame.f_back
        depth += 1
    symbols.reverse()
    if len(symbols) > MAX_DEPTH:
        symbols = ["<truncated>"] + symbols[-MAX_DEPTH:]
    return tuple(symbols)


class Profile:
    """A multiset of ``(cell, stack)`` samples plus metadata."""

    def __init__(self, meta: Optional[dict] = None) -> None:
        #: ``(cell_label, root-first stack tuple) -> sample count``.
        self.samples: Counter = Counter()
        self.meta: dict = dict(meta or {})

    # -- accumulation ---------------------------------------------------

    def add(self, cell: str, stack: Tuple[str, ...], count: int = 1) -> None:
        self.samples[(cell, stack)] += count

    def merge(self, other: "Profile", cell: Optional[str] = None) -> None:
        """Fold ``other`` in, optionally re-attributing its samples."""
        for (other_cell, stack), count in other.samples.items():
            self.add(cell if cell is not None else other_cell, stack, count)
        for key in ("duration_seconds", "samples_dropped"):
            if key in other.meta:
                self.meta[key] = self.meta.get(key, 0) + other.meta[key]
        if "hz" in other.meta:
            # Adopted on first merge; "mixed" when folded profiles were
            # sampled at different rates.
            hz = other.meta["hz"]
            self.meta["hz"] = hz if self.meta.get("hz", hz) == hz else "mixed"

    # -- views ----------------------------------------------------------

    @property
    def total_samples(self) -> int:
        return sum(self.samples.values())

    def cells(self) -> list:
        return sorted({cell for cell, _ in self.samples})

    def per_cell(self) -> dict:
        """Split into one :class:`Profile` per cell label."""
        split: dict = {}
        for (cell, stack), count in self.samples.items():
            split.setdefault(cell, Profile()).add(cell, stack, count)
        return split

    def by_symbol(self, cell: Optional[str] = None) -> dict:
        """``symbol -> {"self": n, "total": n}`` sample counts.

        ``total`` counts samples where the symbol appears anywhere on
        the stack (once per sample, however deep the recursion);
        ``self`` counts samples where it is the leaf.  Restrict to one
        cell with ``cell=``; ``None`` aggregates the whole run.
        """
        stats: dict = {}
        for (sample_cell, stack), count in self.samples.items():
            if cell is not None and sample_cell != cell:
                continue
            if not stack:
                continue
            for symbol in set(stack):
                entry = stats.setdefault(symbol, {"self": 0, "total": 0})
                entry["total"] += count
            stats[stack[-1]]["self"] += count
        return stats

    # -- collapsed-stack serialization ----------------------------------

    def collapsed(self) -> str:
        """Deterministic collapsed-stack text (sorted lines, ``#`` meta)."""
        lines = ["# repro-profile: 1"]
        for key in sorted(self.meta):
            lines.append(f"# {key}: {self.meta[key]}")
        body = []
        for (cell, stack), count in self.samples.items():
            frames = ((_CELL_PREFIX + cell.translate(_SANITIZE),) if cell
                      else ()) + stack
            body.append(f"{';'.join(frames)} {count}")
        lines.extend(sorted(body))
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "Profile":
        """Inverse of :meth:`collapsed`; tolerant of foreign collapsed files."""
        profile = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                comment = line.lstrip("#").strip()
                key, sep, value = comment.partition(":")
                if sep and key.strip() and key.strip() != "repro-profile":
                    profile.meta[key.strip()] = _coerce(value.strip())
                continue
            stack_text, _, count_text = line.rpartition(" ")
            if not stack_text:
                continue
            try:
                count = int(count_text)
            except ValueError:
                continue
            frames = tuple(stack_text.split(";"))
            cell = ""
            if frames and frames[0].startswith(_CELL_PREFIX):
                cell = frames[0][len(_CELL_PREFIX):]
                frames = frames[1:]
            profile.add(cell, frames, count)
        return profile


def _coerce(value: str):
    for caster in (int, float):
        try:
            return caster(value)
        except ValueError:
            continue
    return value


def merge_collapsed(texts: Iterable[str]) -> str:
    """Merge collapsed profiles (e.g. per-cell sidecars) into one text."""
    merged = Profile()
    for text in texts:
        merged.merge(Profile.parse(text))
    return merged.collapsed()


def top_symbols(profile: Profile, n: int = 10,
                cell: Optional[str] = None) -> list:
    """``[(symbol, self, total), ...]`` hottest-first (by self samples)."""
    stats = profile.by_symbol(cell=cell)
    ranked = sorted(stats.items(),
                    key=lambda item: (-item[1]["self"], -item[1]["total"],
                                      item[0]))
    return [(symbol, entry["self"], entry["total"])
            for symbol, entry in ranked[:n]]


class SamplingProfiler:
    """Background-thread sampler over :func:`sys._current_frames`.

    Observation-only by construction: the sampler reads other threads'
    frames under the GIL and touches nothing else.  Only *tracked*
    threads are sampled — the engine tracks the thread running a cell,
    tagged with the cell's label — so unrelated service threads never
    pollute a profile.
    """

    def __init__(self, hz: int = DEFAULT_HZ) -> None:
        if hz <= 0:
            raise ValueError(f"hz must be positive, got {hz}")
        self.hz = hz
        self.profile = Profile(meta={"hz": hz})
        self._tracked: dict = {}  # thread ident -> cell label
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None

    # -- thread registry ------------------------------------------------

    def track(self, cell: str = "", ident: Optional[int] = None) -> None:
        """Sample thread ``ident`` (default: caller), attributed to ``cell``."""
        with self._lock:
            self._tracked[ident or threading.get_ident()] = cell

    def untrack(self, ident: Optional[int] = None) -> None:
        with self._lock:
            self._tracked.pop(ident or threading.get_ident(), None)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> Profile:
        """Stop sampling and return the finished :class:`Profile`."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        if self._started_at is not None:
            elapsed = time.perf_counter() - self._started_at
            self.profile.meta["duration_seconds"] = round(
                self.profile.meta.get("duration_seconds", 0.0) + elapsed, 6)
            self._started_at = None
        self.profile.meta["samples"] = self.profile.total_samples
        return self.profile

    def __enter__(self) -> "SamplingProfiler":
        self.track()
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- the sampling loop ----------------------------------------------

    def _run(self) -> None:
        interval = 1.0 / self.hz
        own = threading.get_ident()
        wait = self._stop.wait
        while not wait(interval):
            frames = sys._current_frames()
            with self._lock:
                tracked = list(self._tracked.items())
            for ident, cell in tracked:
                if ident == own:
                    continue
                frame = frames.get(ident)
                if frame is not None:
                    self.profile.add(cell, _stack_of(frame))
            del frames  # drop live-frame references promptly
