"""Replacement policies for set-associative structures.

Policies operate on per-way metadata kept by the caller: each way exposes
an integer ``stamp`` slot the policy is free to interpret (LRU recency
counter, NRU bit). A set is a mapping of key -> way in fill order, and
``select_victim`` returns the key to evict. This keeps cache arrays
policy-agnostic.
"""

from __future__ import annotations

from repro.errors import ConfigError


class LRUPolicy:
    """True LRU using a monotonically increasing access counter."""

    name = "lru"

    __slots__ = ("_clock",)

    def __init__(self) -> None:
        self._clock = 0

    def on_access(self, way) -> None:
        self._clock += 1
        way.stamp = self._clock

    def on_fill(self, way) -> None:
        self.on_access(way)

    def select_victim(self, ways):
        """Key of the way with the oldest stamp (the first on a tie)."""
        victim, best = None, None
        for key, way in ways.items():
            if best is None or way.stamp < best:
                victim, best = key, way.stamp
        return victim


class NRUPolicy:
    """Single-bit not-recently-used, as the paper's DRAM cache uses.

    ``stamp`` is the NRU bit: 1 means recently used. The victim is the
    first way with a clear bit; when every way is recently used, all
    bits are cleared (the classic NRU reset) and the first way goes.
    """

    name = "nru"

    __slots__ = ()

    def on_access(self, way) -> None:
        way.stamp = 1

    def on_fill(self, way) -> None:
        way.stamp = 1

    def select_victim(self, ways):
        """Key of the first way with a clear bit, resetting when none is."""
        first = None
        for key, way in ways.items():
            if way.stamp == 0:
                return key
            if first is None:
                first = key
        for way in ways.values():
            way.stamp = 0
        return first


def make_policy(name: str):
    """Construct a replacement policy by name ('lru' or 'nru')."""
    if name == "lru":
        return LRUPolicy()
    if name == "nru":
        return NRUPolicy()
    raise ConfigError(f"unknown replacement policy {name!r}")
