"""Multi-programmed mixes (Section V).

The paper evaluates 44 eight-way mixes: seventeen homogeneous rate-8
mixes (eight copies of one snippet) plus 27 heterogeneous mixes, half of
them combining snippets of *similar* bandwidth sensitivity and half
combining *dissimilar* ones. Mixes here are generated deterministically
from a fixed seed so every experiment sees the same 44 workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.errors import WorkloadError
from repro.workloads.profiles import (
    BANDWIDTH_INSENSITIVE,
    BANDWIDTH_SENSITIVE,
    get_profile,
)
from repro.workloads.synthetic import core_base_line, generate_trace

MIX_SEED = 20170204  # HPCA 2017
NUM_HETEROGENEOUS = 27


@dataclass(frozen=True)
class Mix:
    """An N-way multi-programmed workload."""

    name: str
    members: tuple[str, ...]
    category: str  # "bandwidth-sensitive" | "bandwidth-insensitive" | "heterogeneous"

    @property
    def num_cores(self) -> int:
        return len(self.members)

    def traces(self, refs_per_core: int, scale: float = 1.0) -> list[Iterator]:
        """Build one trace per core with disjoint address spaces."""
        return [
            generate_trace(
                get_profile(member),
                num_refs=refs_per_core,
                base_line=core_base_line(core_id),
                scale=scale,
                seed=core_id,
            )
            for core_id, member in enumerate(self.members)
        ]


def rate_mix(name: str, ways: int = 8) -> Mix:
    """Homogeneous rate-N mix: N copies of one snippet."""
    profile = get_profile(name)  # validates the name
    category = (
        "bandwidth-sensitive" if profile.bandwidth_sensitive
        else "bandwidth-insensitive"
    )
    return Mix(name=f"{name}.rate{ways}", members=(name,) * ways, category=category)


def heterogeneous_mixes(ways: int = 8,
                        count: int = NUM_HETEROGENEOUS) -> list[Mix]:
    """The 27 heterogeneous mixes: ~half similar-, half mixed-sensitivity."""
    rng = random.Random(MIX_SEED)
    mixes: list[Mix] = []
    similar = count // 2 + count % 2  # 14 similar-sensitivity, 13 dissimilar
    for idx in range(count):
        if idx < similar:
            # Similar sensitivity: draw all members from one class
            # (mostly the sensitive class, as in the paper's pool sizes).
            pool = BANDWIDTH_INSENSITIVE if idx % 3 == 2 else BANDWIDTH_SENSITIVE
            members = tuple(rng.choice(pool) for _ in range(ways))
        else:
            # Dissimilar sensitivity: half from each class, shuffled.
            half = ways // 2
            drawn = [rng.choice(BANDWIDTH_SENSITIVE) for _ in range(half)]
            drawn += [rng.choice(BANDWIDTH_INSENSITIVE) for _ in range(ways - half)]
            rng.shuffle(drawn)
            members = tuple(drawn)
        mixes.append(
            Mix(name=f"het{idx + 1:02d}", members=members,
                category="heterogeneous")
        )
    return mixes


def all_mixes(ways: int = 8) -> list[Mix]:
    """The full 44-mix evaluation set (Fig. 12)."""
    sensitive = [rate_mix(name, ways) for name in BANDWIDTH_SENSITIVE]
    insensitive = [rate_mix(name, ways) for name in BANDWIDTH_INSENSITIVE]
    return sensitive + insensitive + heterogeneous_mixes(ways)


def mixes_by_category(category: str, ways: int = 8) -> list[Mix]:
    mixes = [m for m in all_mixes(ways) if m.category == category]
    if not mixes:
        raise WorkloadError(f"unknown mix category {category!r}")
    return mixes
