"""Generic set-associative SRAM cache (functional model).

Used for the L1/L2/L3 hierarchy and, via thin wrappers, for SRAM metadata
structures (tag cache, DBC). Sets are allocated lazily so multi-gigabyte
address spaces cost memory proportional to the touched footprint only.

The model is *functional*: it tracks presence, dirtiness and recency.
Latency and bandwidth accounting belong to the hierarchy layer.

``lookup`` and ``fill`` run a million-plus times per smoke cell (every
reference walks L1→L2→L3), so each set is an ordered dict keyed by
line address — presence is one hash probe instead of a way scan. LRU
— the policy every SRAM instance uses — keeps each set in recency
order (touch = delete + reinsert at the end) and stores just the dirty
bit as the value: the victim is simply the first key, no stamp scan and
no per-line object. This is bit-identical to stamp-based LRU: the
monotone clock hands every touch a unique stamp, so the min-stamp way
is exactly the least recently touched one, which recency order keeps
at the front. Non-LRU policies keep per-line stamp objects, and dict
insertion order evolves exactly like the former list's del+append
order, so their tie-breaking is unchanged.

``fill_pair`` is the allocation-light fill the hierarchy's cascades
use (a ``(line, dirty)`` tuple instead of an :class:`Eviction`).
"""

from __future__ import annotations

from typing import Optional

from repro.cache.replacement import make_policy
from repro.errors import ConfigError

_ABSENT = object()


class _Line:
    """Per-line metadata for non-LRU policies (LRU stores a plain bool)."""

    __slots__ = ("tag", "dirty", "stamp")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.dirty = False
        self.stamp = 0


class Eviction:
    """A victim pushed out by a fill."""

    __slots__ = ("line", "dirty")

    def __init__(self, line: int, dirty: bool) -> None:
        self.line = line      # 64-byte line address of the victim
        self.dirty = dirty

    def __repr__(self) -> str:
        return f"Eviction(line={self.line}, dirty={self.dirty})"


class SRAMCache:
    """Set-associative cache keyed by 64-byte line address.

    Parameters
    ----------
    name:
        Used in stats output.
    size_bytes / assoc / line_bytes:
        Geometry; ``size_bytes`` must be an exact multiple of
        ``assoc * line_bytes``.
    policy:
        'lru' (SRAM hierarchy) or 'nru'.
    """

    __slots__ = (
        "name",
        "assoc",
        "num_sets",
        "_sets",
        "_policy",
        "_on_access",
        "_on_fill",
        "_select_victim",
        "_lru",
        "hits",
        "misses",
        "evictions",
    )

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        line_bytes: int = 64,
        policy: str = "lru",
    ) -> None:
        if size_bytes <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ConfigError(f"bad cache geometry for {name}")
        if size_bytes % (assoc * line_bytes) != 0:
            raise ConfigError(
                f"{name}: size {size_bytes} not a multiple of assoc*line "
                f"({assoc}x{line_bytes})"
            )
        self.name = name
        self.assoc = assoc
        self.num_sets = size_bytes // (assoc * line_bytes)
        # set index -> ordered dict of resident lines. LRU: {line: dirty}
        # in recency order. Other policies: {line: _Line} in fill order.
        self._sets: dict[int, dict] = {}
        self._policy = make_policy(policy)
        self._on_access = self._policy.on_access
        self._on_fill = self._policy.on_fill
        self._select_victim = self._policy.select_victim
        self._lru = policy == "lru"
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def _set_index(self, line: int) -> int:
        return line % self.num_sets

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------
    def lookup(self, line: int, is_write: bool = False) -> bool:
        """Access a line; returns True on hit, updating recency/dirty."""
        ways = self._sets.get(line % self.num_sets)
        if ways is not None:
            if self._lru:
                prev = ways.get(line, _ABSENT)
                if prev is not _ABSENT:
                    self.hits += 1
                    del ways[line]
                    ways[line] = True if is_write else prev
                    return True
            else:
                entry = ways.get(line)
                if entry is not None:
                    self.hits += 1
                    self._on_access(entry)
                    if is_write:
                        entry.dirty = True
                    return True
        self.misses += 1
        return False

    def probe(self, line: int) -> bool:
        """Presence check with no stats or recency side effects."""
        ways = self._sets.get(line % self.num_sets)
        return ways is not None and line in ways

    def is_dirty(self, line: int) -> Optional[bool]:
        """Dirty state of a resident line, or None if absent."""
        ways = self._sets.get(line % self.num_sets)
        if ways is None:
            return None
        entry = ways.get(line, _ABSENT)
        if entry is _ABSENT:
            return None
        return entry if self._lru else entry.dirty

    def fill_pair(self, line: int, dirty: bool = False) -> Optional[tuple]:
        """Insert a line; returns the ``(line, dirty)`` victim, if any.

        Filling a line already present just refreshes it (merging
        dirty). The hot-path twin of :meth:`fill`: no Eviction object.
        """
        sets = self._sets
        idx = line % self.num_sets
        ways = sets.get(idx)
        lru = self._lru
        if ways is None:
            ways = sets[idx] = {}
        elif lru:
            prev = ways.get(line, _ABSENT)
            if prev is not _ABSENT:
                del ways[line]
                ways[line] = prev or dirty
                return None
        else:
            entry = ways.get(line)
            if entry is not None:
                entry.dirty = entry.dirty or dirty
                self._on_fill(entry)
                return None
        victim: Optional[tuple] = None
        if len(ways) >= self.assoc:
            if lru:
                vtag = next(iter(ways))
                victim = (vtag, ways.pop(vtag))
            else:
                vtag = self._select_victim(ways)
                old = ways.pop(vtag)
                victim = (old.tag, old.dirty)
            self.evictions += 1
        if lru:
            ways[line] = dirty
        else:
            entry = _Line(line)
            entry.dirty = dirty
            self._on_fill(entry)
            ways[line] = entry
        return victim

    def fill(self, line: int, dirty: bool = False) -> Optional[Eviction]:
        """Insert a line, returning the eviction it caused (if any)."""
        out = self.fill_pair(line, dirty)
        return None if out is None else Eviction(out[0], out[1])

    def invalidate(self, line: int) -> Optional[bool]:
        """Remove a line; returns its dirty bit, or None if absent."""
        ways = self._sets.get(line % self.num_sets)
        if ways is None:
            return None
        entry = ways.pop(line, _ABSENT)
        if entry is _ABSENT:
            return None
        return entry if self._lru else entry.dirty

    def mark_dirty(self, line: int) -> bool:
        """Set the dirty bit of a resident line; False if absent.

        Pure metadata update: recency is untouched (a plain dict value
        assignment keeps the key's position).
        """
        ways = self._sets.get(line % self.num_sets)
        if ways is None or line not in ways:
            return False
        if self._lru:
            ways[line] = True
        else:
            ways[line].dirty = True
        return True

    def clean(self, line: int) -> bool:
        """Clear the dirty bit of a resident line; False if absent."""
        ways = self._sets.get(line % self.num_sets)
        if ways is None or line not in ways:
            return False
        if self._lru:
            ways[line] = False
        else:
            ways[line].dirty = False
        return True

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets.values())
