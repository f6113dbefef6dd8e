"""Alloy cache array: direct-mapped, tag-and-data (TAD) fused in DRAM.

Each set holds exactly one 64-byte block whose tag travels with the data
as a 72-byte TAD unit (three HBM channel cycles instead of two). This
module models the functional array; TAD bandwidth accounting and the
hit/miss predictor live in :mod:`repro.hierarchy.msc_alloy`.

Encoding: the sets are an int64 view of one anonymous private ``mmap``
of ``num_sets`` entries. With ``tag, idx = divmod(line, num_sets)`` and
``key = tag + 1``, the block ``line`` lives in set ``idx`` as
``key << 1 | dirty``, and zero is an empty set: ``entry >> 1 == key`` is
the tag match (an empty set never matches) and ``entry & 1`` the dirty
bit, so the victim of a set holds line
``((entry >> 1) - 1) * num_sets + idx``. The kernel
maps the zero pages on first touch, so construction writes nothing and
the pages of sets a run never fills cost no resident memory: of the
2,048 pages (8 MiB) that a smoke-scale cache's 1 Mi sets span, a
``parboil-lbm`` rate-8 Alloy run fills 816; a paper-scale 4 GiB cache
(64 Mi sets, 512 MiB of address space) costs only the pages it fills.

Warmup installs a step-1 run a slice at a time: the lines of a run that
does not wrap around the sets share one tag, so the slice is written
from bytes, the run's dirty flags translated into each entry's low
byte (see :meth:`AlloyCacheArray.warm_many`).
"""

from __future__ import annotations

import mmap
import sys
from array import array
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError

# 72-byte TAD occupies 3 HBM channel cycles (burst 2 covers 64 bytes).
TAD_BURST_DEVICE_CYCLES = 3

# Sets per bulk warm write, which bounds each slice's copies to 32 KiB,
# and the bytes of an empty slice.
_WARM_CHUNK = 1 << 12
_EMPTY_SLICE = bytes(8 * _WARM_CHUNK)
# Offset of an entry's low byte (the dirty bit's) within its 8 bytes.
_LOW_BYTE = 0 if sys.byteorder == "little" else 7


def _slice_evictions(old: bytes, clean: int) -> Optional[int]:
    """Evictions from writing lines of ``clean``'s tag over the entries
    ``old``, or None when ``old`` already holds such a line (a refill,
    whose dirty bit merges)."""
    if old == _EMPTY_SLICE[:len(old)]:
        return 0
    entries = array("q")
    entries.frombytes(old)
    if entries.count(clean) or entries.count(clean | 1):
        return None
    return len(entries) - entries.count(0)


@dataclass(frozen=True)
class AlloyEviction:
    line: int
    dirty: bool


class AlloyCacheArray:
    """Direct-mapped cache keyed by 64-byte line address."""

    def __init__(self, name: str, capacity_bytes: int, line_bytes: int = 64) -> None:
        for field_name, value in (("capacity_bytes", capacity_bytes),
                                  ("line_bytes", line_bytes)):
            if value <= 0:
                raise ConfigError(
                    f"{name}: {field_name} must be positive, not {value!r}")
        if capacity_bytes % line_bytes != 0:
            raise ConfigError(f"{name}: capacity not a multiple of the line size")
        self.name = name
        self.num_sets = capacity_bytes // line_bytes
        # set index -> key << 1 | dirty, or 0 (empty); zero-filled
        # by the kernel a page at a time, on first touch.
        self._sets = memoryview(mmap.mmap(
            -1, self.num_sets * 8, flags=mmap.MAP_PRIVATE)).cast("q")

        self.read_hits = 0
        self.read_misses = 0
        self.write_hits = 0
        self.write_misses = 0
        self.evictions = 0

    def set_index(self, line: int) -> int:
        return line % self.num_sets

    # ------------------------------------------------------------------
    def probe(self, line: int) -> bool:
        num_sets = self.num_sets
        return self._sets[line % num_sets] >> 1 == line // num_sets + 1

    def is_dirty(self, line: int) -> bool:
        num_sets = self.num_sets
        return (self._sets[line % num_sets]
                == (line // num_sets + 1) << 1 | 1)

    def set_is_dirty(self, set_index: int) -> bool:
        """Dirty bit of whatever block occupies a set (DBC's source)."""
        if not 0 <= set_index < self.num_sets:
            return False
        return self._sets[set_index] & 1 == 1

    def read(self, line: int) -> bool:
        hit = self.probe(line)
        if hit:
            self.read_hits += 1
        else:
            self.read_misses += 1
        return hit

    def write(self, line: int) -> bool:
        """Demand write; the block becomes resident and dirty on hit.

        Returns True on hit. On miss the caller decides whether to
        allocate (Alloy installs the write with a TAD write).
        """
        sets = self._sets
        num_sets = self.num_sets
        idx = line % num_sets
        key = line // num_sets + 1
        if sets[idx] >> 1 == key:
            sets[idx] = key << 1 | 1
            self.write_hits += 1
            return True
        self.write_misses += 1
        return False

    def fill(self, line: int, dirty: bool = False) -> Optional[AlloyEviction]:
        """Install a block, returning the displaced victim (if any)."""
        sets = self._sets
        num_sets = self.num_sets
        idx = line % num_sets
        key = line // num_sets + 1
        old = sets[idx]
        if old >> 1 == key:
            # Refill of the resident block merges dirtiness.
            if dirty:
                sets[idx] = old | 1
            return None
        sets[idx] = key << 1 | 1 if dirty else key << 1
        if not old:
            return None
        self.evictions += 1
        return AlloyEviction(line=((old >> 1) - 1) * num_sets + idx,
                             dirty=old & 1 == 1)

    def warm_many(self, warm_sets) -> int:
        """Batched :meth:`fill` of :class:`~repro.workloads.columns.WarmSet`
        lines (pre-run warmup): the same final state and eviction count,
        without the per-victim :class:`AlloyEviction`. Returns the line
        count.

        A step-1 run is installed a slice of sets at a time, cut where
        it wraps around the sets and every ``_WARM_CHUNK`` sets. A
        slice's lines share one tag, so its entries are written from
        bytes: the tag's clean entry repeated, with the run's dirty
        flags translated into each entry's low byte. The slice's
        evictions are its occupied entries: none when its bytes are all
        zero, else counted with ``array.count``, which also finds any
        entry of the slice's tag. A slice that holds one (a refill,
        whose dirty bit merges) and a stepped run take
        :meth:`_warm_lines`, the per-line loop.
        """
        count = 0
        for warm_set in warm_sets:
            count += len(warm_set)
            flags = memoryview(warm_set.dirty)
            pos = 0
            for run in warm_set.runs:
                length = len(run)
                if run.step == 1:
                    self._warm_slices(run.start, run.stop,
                                      flags[pos:pos + length])
                else:
                    self._warm_lines(run, flags[pos:pos + length])
                pos += length
        return count

    def _warm_slices(self, start: int, stop: int, flags: memoryview) -> None:
        sets = self._sets
        num_sets = self.num_sets
        line = start
        while line < stop:
            tag, idx = divmod(line, num_sets)
            end = min(stop, line + num_sets - idx, line + _WARM_CHUNK)
            span = end - line
            clean = (tag + 1) << 1
            slice_flags = flags[line - start:end - start]
            evictions = _slice_evictions(sets[idx:idx + span].tobytes(), clean)
            if evictions is None:
                self._warm_lines(range(line, end), slice_flags)
            else:
                self.evictions += evictions
                entries = array("q", [clean]) * span
                # Flag byte b becomes the low byte of clean | b.
                low = clean & 0xFF
                memoryview(entries).cast("B")[_LOW_BYTE::8] = \
                    slice_flags.tobytes().translate(bytes([low, low | 1]) * 128)
                sets[idx:idx + span] = entries
            line = end

    def _warm_lines(self, lines: range, flags: memoryview) -> None:
        sets = self._sets
        num_sets = self.num_sets
        evictions = 0
        for line, dirty in zip(lines, flags):
            idx = line % num_sets
            key = line // num_sets + 1
            old = sets[idx]
            if old >> 1 == key:
                if dirty:
                    sets[idx] = old | 1
                continue
            sets[idx] = key << 1 | dirty
            if old:
                evictions += 1
        self.evictions += evictions

    def invalidate(self, line: int) -> bool:
        sets = self._sets
        num_sets = self.num_sets
        idx = line % num_sets
        entry = sets[idx]
        if entry >> 1 == line // num_sets + 1:
            sets[idx] = 0
            return entry & 1 == 1
        return False

    def clean(self, line: int) -> None:
        sets = self._sets
        num_sets = self.num_sets
        idx = line % num_sets
        key = line // num_sets + 1
        if sets[idx] >> 1 == key:
            sets[idx] = key << 1

    # ------------------------------------------------------------------
    @property
    def reads(self) -> int:
        return self.read_hits + self.read_misses

    @property
    def writes(self) -> int:
        return self.write_hits + self.write_misses

    def hit_rate(self) -> float:
        total = self.reads + self.writes
        return (self.read_hits + self.write_hits) / total if total else 0.0
