"""Parameterized synthetic memory-trace generation.

A trace is a deterministic stream of ``(gap, is_write, line)`` tuples.
Each memory reference is drawn from a five-class mixture chosen to
reproduce the steady-state behaviour of the paper's warmed-up
1-billion-instruction snippets:

- **local** — uniform random in a small SRAM-resident region (tens of
  KB): the dominant class; keeps L3 MPKI in the paper's 5-50 band;
- **stream** — sequential walks over the workload's streaming arrays
  (several concurrent streams). The arrays are part of the *warm set*:
  resident in the memory-side cache, as they would be after warmup;
- **hot** — uniform random over a warmed region larger than the L3 but
  comfortably inside the memory-side cache: produces MS$ read hits;
- **fresh** — an ever-advancing cold pointer: compulsory MS$ misses,
  the main-memory demand;
- **sparse** — one line per 4 KB region over a wide (warmed) space:
  hits the MS$ but thrashes sector metadata structures (the tag-cache
  pathology of omnetpp/astar in Fig. 5).

``warm_lines`` enumerates the warm set (stream + hot + sparse regions)
so a run can pre-install it in the memory-side cache, standing in for
the paper's warmup phase. All randomness is a pure function of
(profile, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.errors import WorkloadError

LINE_BYTES = 64
LINES_PER_MB = (1 << 20) // LINE_BYTES
SECTOR_LINES = 64  # 4 KB regions for the sparse class
NUM_STREAMS = 4
LOCAL_REGION_OFFSET = 1 << 28  # keeps the local region away from the warm set


@dataclass(frozen=True)
class AccessMix:
    """Mixture weights of the five access classes (must sum to 1)."""

    local: float
    stream: float
    hot: float
    fresh: float
    sparse: float

    def __post_init__(self) -> None:
        weights = (self.local, self.stream, self.hot, self.fresh, self.sparse)
        if abs(sum(weights) - 1.0) > 1e-6:
            raise WorkloadError(f"access mix must sum to 1, got {sum(weights)}")
        if min(weights) < 0:
            raise WorkloadError("access mix weights must be non-negative")


@dataclass(frozen=True)
class WorkloadProfile:
    """Tunable stand-in for one of the paper's benchmark snippets.

    Region sizes are stated at paper scale (MB); experiments shrink them
    together with the cache capacities. ``local_kb`` is *not* scaled —
    it models the SRAM-resident working set, and the private caches do
    not scale either.
    """

    name: str
    mem_per_kilo: int        # memory references per 1000 instructions
    write_fraction: float
    stream_mb: float         # warmed streaming arrays
    hot_mb: float            # warmed hot region (bigger than the L3)
    mix: AccessMix
    local_kb: int = 24
    stride_lines: int = 1
    sparse_mb: float = 0.0   # warmed sparse space (0 = none)
    hot_sector_burst: int = 10  # consecutive hot accesses per 4 KB sector
    bandwidth_sensitive: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.mem_per_kilo <= 1000:
            raise WorkloadError(f"{self.name}: mem_per_kilo out of range")
        if not 0 <= self.write_fraction < 1:
            raise WorkloadError(f"{self.name}: bad write fraction")
        if self.stream_mb < 0 or self.hot_mb <= 0 or self.sparse_mb < 0:
            raise WorkloadError(f"{self.name}: region sizes must be sensible")
        if self.mix.sparse > 0 and self.sparse_mb <= 0:
            raise WorkloadError(f"{self.name}: sparse accesses need sparse_mb")


@dataclass(frozen=True)
class _Regions:
    """Scaled line-address layout of one workload copy."""

    local_lines: int
    stream_lines: int
    hot_base: int
    hot_lines: int
    sparse_base: int
    sparse_regions: int
    fresh_base: int

    @property
    def warm_lines_count(self) -> int:
        return self.stream_lines + self.hot_lines + self.sparse_regions


def _align(lines: int) -> int:
    """Round a region up to a whole number of 4 KB sectors."""
    return ((lines + SECTOR_LINES - 1) // SECTOR_LINES) * SECTOR_LINES


def _layout(profile: WorkloadProfile, scale: float) -> _Regions:
    stream_lines = _align(int(profile.stream_mb * scale * LINES_PER_MB))
    if profile.mix.stream > 0:
        stream_lines = max(stream_lines, 4 * SECTOR_LINES)
    hot_lines = max(SECTOR_LINES,
                    _align(int(profile.hot_mb * scale * LINES_PER_MB)))
    sparse_regions = (
        max(64, int(profile.sparse_mb * scale * LINES_PER_MB) // SECTOR_LINES)
        if profile.mix.sparse > 0
        else 0
    )
    hot_base = stream_lines
    sparse_base = hot_base + hot_lines
    # Round the fresh space up to a sector boundary past the sparse span.
    fresh_base = sparse_base + sparse_regions * SECTOR_LINES
    fresh_base = (fresh_base // SECTOR_LINES + 1) * SECTOR_LINES
    return _Regions(
        local_lines=max(64, profile.local_kb * 1024 // LINE_BYTES),
        stream_lines=stream_lines,
        hot_base=hot_base,
        hot_lines=hot_lines,
        sparse_base=sparse_base,
        sparse_regions=sparse_regions,
        fresh_base=fresh_base,
    )


def _seed_for(profile: WorkloadProfile, seed: int) -> int:
    name_hash = sum((i + 1) * ord(c) for i, c in enumerate(profile.name))
    return (name_hash & 0xFFFFFFFF) ^ (seed * 0x9E3779B9)


def generate_trace(
    profile: WorkloadProfile,
    num_refs: int,
    base_line: int = 0,
    scale: float = 1.0,
    seed: int = 0,
) -> Iterator[tuple[int, bool, int]]:
    """Yield ``num_refs`` trace entries for one copy of the workload.

    ``base_line`` offsets the copy's address space (rate mode runs
    disjoint copies); ``scale`` shrinks the warmed regions in step with
    the experiment's capacity scaling.
    """
    if num_refs <= 0:
        raise WorkloadError(f"num_refs must be positive, got {num_refs}")
    rng = random.Random(_seed_for(profile, seed))
    regions = _layout(profile, scale)

    mean_gap = max(0, 1000 // profile.mem_per_kilo - 1)
    mix = profile.mix
    t_local = mix.local
    t_stream = t_local + mix.stream
    t_hot = t_stream + mix.hot
    t_fresh = t_hot + mix.fresh

    stride = profile.stride_lines
    stream_pos = [
        regions.stream_lines * i // NUM_STREAMS for i in range(NUM_STREAMS)
    ]
    stream_idx = 0
    fresh_ptr = regions.fresh_base
    local_base = base_line + LOCAL_REGION_OFFSET
    # Hot accesses burst within one 4 KB sector before moving on, the
    # page-level spatial locality real workloads have (keeps the sector
    # metadata / tag-cache working set realistic).
    hot_sectors = max(1, regions.hot_lines // SECTOR_LINES)
    hot_burst = profile.hot_sector_burst
    hot_sector_base = regions.hot_base

    # The loop runs once per reference across every core, so RNG methods
    # and per-draw constants are bound to locals, and each bounded draw
    # inlines CPython's ``_randbelow_with_getrandbits`` rejection loop
    # (k = bound.bit_length(); draw getrandbits(k) until < bound). The
    # draw *sequence* is part of the reproducibility contract: these are
    # the exact getrandbits calls randrange(bound) makes, so the stream
    # is bit-identical — just without two interpreter frames per draw.
    rand = rng.random
    getrandbits = rng.getrandbits
    gap_span = 2 * mean_gap + 1
    gap_bits = gap_span.bit_length()
    local_lines = regions.local_lines
    local_bits = local_lines.bit_length()
    stream_mod = max(1, regions.stream_lines)
    hot_base = regions.hot_base
    hot_bits = hot_sectors.bit_length()
    hot_move = 1.0 / hot_burst
    sector_bits = SECTOR_LINES.bit_length()
    sparse_base = regions.sparse_base
    sparse_regions = regions.sparse_regions
    sparse_bits = sparse_regions.bit_length()
    write_fraction = profile.write_fraction

    for _ in range(num_refs):
        if mean_gap:
            gap = getrandbits(gap_bits)
            while gap >= gap_span:
                gap = getrandbits(gap_bits)
        else:
            gap = 0
        draw = rand()
        if draw < t_local:
            r = getrandbits(local_bits)
            while r >= local_lines:
                r = getrandbits(local_bits)
            line = local_base + r
        elif draw < t_stream:
            pos = stream_pos[stream_idx]
            line = base_line + pos % stream_mod
            stream_pos[stream_idx] = (pos + stride) % stream_mod
            stream_idx = (stream_idx + 1) % NUM_STREAMS
        elif draw < t_hot:
            if rand() < hot_move:
                r = getrandbits(hot_bits)
                while r >= hot_sectors:
                    r = getrandbits(hot_bits)
                hot_sector_base = hot_base + r * SECTOR_LINES
            r = getrandbits(sector_bits)
            while r >= SECTOR_LINES:
                r = getrandbits(sector_bits)
            line = base_line + hot_sector_base + r
        elif draw < t_fresh:
            line = base_line + fresh_ptr
            fresh_ptr += 1
        else:
            r = getrandbits(sparse_bits)
            while r >= sparse_regions:
                r = getrandbits(sparse_bits)
            line = base_line + sparse_base + r * SECTOR_LINES
        is_write = rand() < write_fraction
        yield gap, is_write, line


def warm_lines(
    profile: WorkloadProfile,
    base_line: int = 0,
    scale: float = 1.0,
    seed: int = 0,
) -> Iterator[tuple[int, bool]]:
    """Enumerate the warm set: ``(line, dirty)`` for every block that
    would be resident in the memory-side cache after warmup."""
    rng = random.Random(_seed_for(profile, seed) ^ 0x5A5A5A5A)
    regions = _layout(profile, scale)
    wf = profile.write_fraction
    rand = rng.random
    if profile.mix.stream > 0:
        for line in range(base_line, base_line + regions.stream_lines):
            yield line, rand() < wf
    if profile.mix.hot > 0:
        for line in range(base_line + regions.hot_base,
                          base_line + regions.hot_base + regions.hot_lines):
            yield line, rand() < wf
    sparse_start = base_line + regions.sparse_base
    for region in range(regions.sparse_regions):
        yield sparse_start + region * SECTOR_LINES, rand() < wf


def core_base_line(core_id: int) -> int:
    """Disjoint, set-staggered per-copy address spaces.

    Copies sit ~64 GB apart, offset by an odd number of 4 KB sectors so
    different cores' regions do not alias to the same cache sets (the
    OS's physical page assignment provides this in a real system).
    """
    return core_id * ((1 << 30) + 6529 * SECTOR_LINES)
