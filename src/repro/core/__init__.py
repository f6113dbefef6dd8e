"""DAP — Dynamic Access Partitioning (the paper's contribution).

- :mod:`repro.core.bandwidth_model` — the analytical model of Section III
  (Equations 1-4): delivered bandwidth of multiple sources, the optimal
  access partition, and closed-form curves for Fig. 1.
- :mod:`repro.core.credits` — saturating credit counters (the ~16 bytes
  of hardware), with division-free (K+1)-scaled arithmetic.
- :mod:`repro.core.window` — per-window demand observation.
- :mod:`repro.core.dap` — the per-window solves, one pure function per
  architecture: the Fig. 3 algorithm for sectored DRAM caches (FWB, WB,
  IFRM, SFRM), the Alloy variant (IFRM via the dirty-bit cache +
  opportunistic write-through) and the three-source eDRAM variant
  (Equations 9-12).

The window/credit engine that runs these solves is
:class:`repro.policies.dap.DapPolicy`.
"""

from repro.core.bandwidth_model import (
    delivered_bandwidth,
    max_delivered_bandwidth,
    optimal_fractions,
    optimal_mm_cas_fraction,
    analytic_dram_cache_read_bw,
    analytic_edram_cache_read_bw,
)
from repro.core.credits import CreditCounter, approximate_k
from repro.core.window import WindowStats, EdramWindowStats
from repro.core.dap import (
    AlloyTargets,
    EdramTargets,
    SectoredTargets,
    solve_alloy,
    solve_edram,
    solve_sectored,
)

__all__ = [
    "delivered_bandwidth",
    "max_delivered_bandwidth",
    "optimal_fractions",
    "optimal_mm_cas_fraction",
    "analytic_dram_cache_read_bw",
    "analytic_edram_cache_read_bw",
    "CreditCounter",
    "approximate_k",
    "WindowStats",
    "EdramWindowStats",
    "SectoredTargets",
    "AlloyTargets",
    "EdramTargets",
    "solve_sectored",
    "solve_alloy",
    "solve_edram",
]
