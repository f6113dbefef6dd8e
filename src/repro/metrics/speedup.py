"""Weighted speedup (the paper's performance metric).

``WS = sum_i IPC_shared,i / IPC_alone,i``; figures report WS of a
configuration normalized to WS of a baseline configuration with the same
alone-run reference, so any consistent alone-IPC reference yields the
same normalized number. Alone IPCs are cells of their own
(:class:`~repro.experiments.exec.AloneIpcCell`), stored in the cell
cache like every other result.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.errors import ConfigError


def weighted_speedup(ipcs: Sequence[float], alone_ipcs: Sequence[float]) -> float:
    """``sum(IPC_i / IPC_alone_i)`` over the mix."""
    if len(ipcs) != len(alone_ipcs):
        raise ConfigError("ipc and alone-ipc lists must have equal length")
    if any(a <= 0 for a in alone_ipcs):
        raise ConfigError("alone IPCs must be positive")
    return sum(ipc / alone for ipc, alone in zip(ipcs, alone_ipcs))


def normalized_weighted_speedup(
    ipcs: Sequence[float],
    baseline_ipcs: Sequence[float],
    alone_ipcs: Optional[Sequence[float]] = None,
) -> float:
    """WS(config) / WS(baseline).

    Without alone-run references (homogeneous rate mixes), every thread
    shares the same reference, which cancels — so unit references are
    used.
    """
    if alone_ipcs is None:
        alone_ipcs = [1.0] * len(ipcs)
    ws = weighted_speedup(ipcs, alone_ipcs)
    ws_base = weighted_speedup(baseline_ipcs, alone_ipcs)
    if ws_base <= 0:
        raise ConfigError("baseline weighted speedup must be positive")
    return ws / ws_base


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's GMEAN bars)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
