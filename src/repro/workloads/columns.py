"""Packed columns: the trace and warm-set representations.

A trace is a stream of ``(gap, is_write, line)`` references. The cores
read it as three parallel columns by an integer cursor
(:class:`~repro.hierarchy.cpu_core.TraceCore`), one :class:`PackedTrace`
chunk at a time:

- synthetic traces are written as columns by the synthesis loop itself
  (:func:`repro.workloads.synthetic.trace_chunks`), one chunk per
  materialized trace or bounded chunks when streaming;
- any other iterable of tuples — a trace file, a test list, a streamed
  generator — is packed by :func:`column_chunks` a chunk at a time, as
  the core's cursor reaches the end of the previous one.

A warm set — the blocks resident in the memory-side cache after warmup —
is a :class:`WarmSet`: ``range`` runs of lines plus one dirty flag per
line, which the cache arrays install a sector at a time.
"""

from __future__ import annotations

from array import array
from itertools import chain, islice
from operator import itemgetter
from struct import pack
from typing import Iterable, Iterator

#: References per chunk when packing a tuple stream (or streaming
#: synthesis): about 0.3 MiB of columns, so a streamed trace's memory
#: stays bounded whatever its length.
CHUNK_REFS = 1 << 14

_GAP = itemgetter(0)
_WRITE = itemgetter(1)
_LINE = itemgetter(2)


def pack_column(code: str, values: list[int]) -> array:
    """``values`` as an ``array(code)``.

    struct converts about twice as fast as array() from a list, and
    raises struct.error on a value outside the column's type instead of
    wrapping it.
    """
    return array(code, pack(f"{len(values)}{code}", *values))


class PackedTrace:
    """A trace as three packed columns: ``array("H")`` gaps, ``bytes``
    write flags (0/1) and ``array("q")`` lines — 11 bytes a reference
    where a list of ``(gap, is_write, line)`` tuples costs about 100.

    The cores index the columns directly. Iterating yields the
    ``(gap, is_write, line)`` tuples back, ``is_write`` as a bool.
    """

    __slots__ = ("gaps", "writes", "lines")

    def __init__(self, refs: Iterable[tuple[int, bool, int]]) -> None:
        refs = list(refs)
        self.gaps = pack_column("H", list(map(_GAP, refs)))
        self.writes = bytes(map(_WRITE, refs))
        self.lines = pack_column("q", list(map(_LINE, refs)))

    @classmethod
    def of_columns(cls, gaps: array, writes: bytes,
                   lines: array) -> "PackedTrace":
        """Wrap columns built elsewhere (equal lengths, not copied)."""
        trace = cls.__new__(cls)
        trace.gaps, trace.writes, trace.lines = gaps, writes, lines
        return trace

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self) -> Iterator[tuple[int, bool, int]]:
        return zip(self.gaps, map(bool, self.writes), self.lines)


def column_chunks(trace: Iterable) -> Iterator[PackedTrace]:
    """The chunks a core reads from ``trace``.

    A :class:`PackedTrace` is its own single chunk. Any other iterable of
    ``(gap, is_write, line)`` tuples is packed :data:`CHUNK_REFS`
    references at a time, lazily, so a stream is never held whole. These
    transient chunks keep gaps as ``array("Q")``: a trace file may carry
    compute gaps beyond the 65,535 a stored trace's ``"H"`` column holds.
    """
    if isinstance(trace, PackedTrace):
        yield trace
        return
    refs = iter(trace)
    while True:
        chunk = list(islice(refs, CHUNK_REFS))
        if not chunk:
            return
        yield PackedTrace.of_columns(pack_column("Q", list(map(_GAP, chunk))),
                                     bytes(map(_WRITE, chunk)),
                                     pack_column("q", list(map(_LINE, chunk))))


class WarmSet:
    """A warm set as line runs plus a dirty-flag column.

    ``runs`` is a tuple of ``range`` objects (free whatever their
    length); ``dirty`` is ``bytes`` with one 0/1 flag per line, in run
    order. ``len()`` is the line count; iterating yields the
    ``(line, dirty)`` pairs, ``dirty`` as a bool.
    """

    __slots__ = ("runs", "dirty")

    def __init__(self, runs: tuple[range, ...], dirty: bytes) -> None:
        if sum(map(len, runs)) != len(dirty):
            raise ValueError(f"{len(dirty)} dirty flags for "
                             f"{sum(map(len, runs))} lines")
        self.runs = runs
        self.dirty = dirty

    def __len__(self) -> int:
        return len(self.dirty)

    def __iter__(self) -> Iterator[tuple[int, bool]]:
        return zip(chain.from_iterable(self.runs), map(bool, self.dirty))
