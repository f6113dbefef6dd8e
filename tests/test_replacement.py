"""Tests for replacement policies."""

import pytest

from repro.cache.replacement import LRUPolicy, NRUPolicy, make_policy
from repro.errors import ConfigError


class FakeWay:
    def __init__(self):
        self.stamp = 0


def _set(n):
    """A set as the cache arrays keep it: key -> way, in fill order."""
    return {f"line{i}": FakeWay() for i in range(n)}


def test_lru_selects_least_recently_used():
    policy = LRUPolicy()
    ways = _set(4)
    for way in ways.values():
        policy.on_fill(way)
    policy.on_access(ways["line0"])  # 0 becomes MRU; 1 is now LRU
    assert policy.select_victim(ways) == "line1"


def test_lru_fill_counts_as_access():
    policy = LRUPolicy()
    ways = _set(2)
    policy.on_fill(ways["line0"])
    policy.on_fill(ways["line1"])
    assert policy.select_victim(ways) == "line0"


def test_nru_victim_is_first_clear_bit():
    policy = NRUPolicy()
    ways = _set(4)
    policy.on_access(ways["line0"])
    policy.on_access(ways["line2"])
    assert policy.select_victim(ways) == "line1"


def test_nru_resets_when_all_set():
    policy = NRUPolicy()
    ways = _set(3)
    for way in ways.values():
        policy.on_access(way)
    victim = policy.select_victim(ways)
    assert victim == "line0"
    # After the reset, all bits were cleared.
    assert [w.stamp for w in ways.values()] == [0, 0, 0]


def test_make_policy():
    assert make_policy("lru").name == "lru"
    assert make_policy("nru").name == "nru"
    with pytest.raises(ConfigError):
        make_policy("random")
