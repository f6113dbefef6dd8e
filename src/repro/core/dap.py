"""DAP's per-window solves, one pure function per architecture.

All three architectures share the same hardware (W-cycle windows,
saturating credit counters, division-free (K+1) arithmetic; see
:class:`repro.policies.dap.DapPolicy`). Only the solve differs: it turns
last window's observed demand into technique budgets for the next one.
Each solve returns its budgets in the order of its architecture's
technique table.

Sectored DRAM caches — the Fig. 3 algorithm
-------------------------------------------

1. **FWB** — ``N_FWB = A_MS$ - K * A_MM`` (Eq. 6), capped by the needed
   partitioning ``A_MS$ - B_MS$*W`` and by the available fills R_m;
2. **WB** — if fills ran out, ``(K+1) * N_WB = A_MS$ - K*A_MM - R_m``
   (Eq. 7), capped at W_m;
3. **IFRM** — if writes ran out too,
   ``(K+1) * N_IFRM = A_MS$ - K*(A_MM + W_m) - R_m - W_m`` (Eq. 8),
   capped by the observed clean hits;
4. **SFRM** — ``N_SFRM = 0.8 * (B_MM*W - A_MM - N_WB - N_IFRM)``,
   leaving 20% of main-memory headroom for bandwidth emergencies.

The Alloy cache (Section IV-B)
------------------------------

The Alloy cache fuses tag and data (TAD), which constrains DAP:

- write bypass on hits would still cost Alloy bandwidth to invalidate
  the line, and fill bypass needs the TAD to know whether a fill is due,
  so neither is a standalone technique;
- **IFRM** works without touching the TAD when the dirty-bit cache (DBC)
  says the accessed set is clean — and if the line turns out to be
  absent, the skipped fill doubles as a fill bypass;
- to keep clean blocks available for IFRM, spare main-memory bandwidth
  is spent on opportunistic **write-through** of Alloy writes
  (``0.8 * (B_MM*W - A_MM)`` per window).

The effective Alloy bandwidth already reflects the TAD bloat: a 72-byte
TAD moves in 3 HBM channel cycles of which only 2 carry data, so
``B_MS$ = (2/3) * peak``.

Sectored eDRAM caches (Section IV-C)
------------------------------------

The eDRAM cache exposes *three* bandwidth sources beyond the SRAM
hierarchy: independent read channels (B_MS$-R), independent write
channels (B_MS$-W), and main memory (B_MM). Tags are on die, so SFRM is
unnecessary; the remaining techniques are chosen by which channel set is
oversubscribed:

(i)   read shortage only  -> IFRM via Eq. 9:
      ``(K+1) * N_IFRM = A_MS$-R - K * A_MM``
(ii)  write shortage only -> FWB via Eq. 10 then WB via Eq. 11:
      ``N_FWB = A_MS$-W - K * A_MM``
      ``(K+1) * N_WB = (A_MS$-W - N_FWB) - K * A_MM``
(iii) both                -> FWB via Eq. 10, then the simultaneous solve
      of Eq. 12:
      ``(2K+1) * N_WB   = (K+1)(A_MS$-W - N_FWB) - K*A_MS$-R - K*A_MM``
      ``(2K+1) * N_IFRM = (K+1)A_MS$-R - K(A_MS$-W - N_FWB) - K*A_MM``

The paper assumes ``B_MS$-R = B_MS$-W = B_MS$`` and
``K = B_MS$ / B_MM``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from repro.core.window import EdramWindowStats, WindowStats

SFRM_HEADROOM = 0.8
TAD_DATA_FRACTION = 2.0 / 3.0


class SectoredTargets(NamedTuple):
    """Per-window technique budgets (in accesses)."""

    n_fwb: float
    n_wb: float
    n_ifrm: float
    n_sfrm: float


class AlloyTargets(NamedTuple):
    """Per-window budgets for the Alloy variant."""

    n_ifrm: float
    n_wt: float


class EdramTargets(NamedTuple):
    n_fwb: float
    n_wb: float
    n_ifrm: float


def solve_sectored(
    stats: WindowStats, bms_w: float, bmm_w: float, k: Fraction,
    kf: Optional[float] = None,
) -> SectoredTargets:
    """Pure per-window solve of the Fig. 3 flowchart.

    ``kf`` lets window-driven callers pass the precomputed ``float(k)``
    (K is fixed per platform; converting the Fraction every window is
    pure overhead).
    """
    ams, amm = stats.a_ms, stats.a_mm
    rm, wm, clean_hits = stats.read_misses, stats.writes, stats.clean_hits
    if kf is None:
        kf = float(k)

    n_fwb = n_wb = n_ifrm = 0.0
    if ams > bms_w:
        n_fwb = ams - kf * amm
        if n_fwb <= 0:
            # Main memory is the bottleneck: exit partitioning.
            n_fwb = 0.0
        else:
            # Never bypass more than the demand overflow, nor more fills
            # than actually exist.
            n_fwb = min(n_fwb, ams - bms_w)
            if n_fwb > rm:
                n_fwb = float(rm)
                wb_scaled = ams - kf * amm - rm          # (K+1) * N_WB
                n_wb = max(0.0, wb_scaled / (1.0 + kf))
                if n_wb > wm:
                    n_wb = float(wm)
                    ifrm_scaled = ams - kf * (amm + wm) - rm - wm
                    n_ifrm = max(0.0, ifrm_scaled / (1.0 + kf))
                    n_ifrm = min(n_ifrm, float(clean_hits))

    n_sfrm = max(0.0, SFRM_HEADROOM * (bmm_w - amm - n_wb - n_ifrm))
    return SectoredTargets(n_fwb=n_fwb, n_wb=n_wb, n_ifrm=n_ifrm, n_sfrm=n_sfrm)


def solve_alloy(
    stats: WindowStats, bms_w: float, bmm_w: float, k: Fraction,
    kf: Optional[float] = None,
) -> AlloyTargets:
    """Per-window solve: Eq. 8 for IFRM plus the write-through budget.

    ``kf`` is the caller's precomputed ``float(k)`` (K is fixed per
    platform); computed from ``k`` when omitted.
    """
    ams, amm = stats.a_ms, stats.a_mm
    if kf is None:
        kf = float(k)
    n_ifrm = 0.0
    if ams > bms_w:
        ifrm_scaled = ams - kf * amm  # (K+1) * N_IFRM
        n_ifrm = max(0.0, ifrm_scaled / (1.0 + kf))
        n_ifrm = min(n_ifrm, float(stats.clean_hits))
    n_wt = max(0.0, SFRM_HEADROOM * (bmm_w - amm - n_ifrm))
    return AlloyTargets(n_ifrm=n_ifrm, n_wt=n_wt)


def solve_edram(
    stats: EdramWindowStats, bms_w: float, bmm_w: float, k: Fraction,
    kf: Optional[float] = None,
) -> EdramTargets:
    """Per-window solve across the paper's three scenarios.

    ``kf`` is the caller's precomputed ``float(k)`` (K is fixed per
    platform); computed from ``k`` when omitted.
    """
    ar, aw, amm = stats.a_ms_read, stats.a_ms_write, stats.a_mm
    rm, wm, clean_hits = stats.read_misses, stats.writes, stats.clean_hits
    if kf is None:
        kf = float(k)
    read_short = ar > bms_w
    write_short = aw > bms_w

    n_fwb = n_wb = n_ifrm = 0.0
    if read_short and not write_short:
        # (i) Eq. 9.
        n_ifrm = max(0.0, (ar - kf * amm) / (1.0 + kf))
    elif write_short and not read_short:
        # (ii) Eq. 10 then Eq. 11.
        n_fwb = max(0.0, aw - kf * amm)
        n_fwb = min(n_fwb, float(rm), aw - bms_w)
        n_wb = max(0.0, ((aw - n_fwb) - kf * amm) / (1.0 + kf))
    elif read_short and write_short:
        # (iii) Eq. 10 then the simultaneous Eq. 12.
        n_fwb = max(0.0, aw - kf * amm)
        n_fwb = min(n_fwb, float(rm))
        denom = 2.0 * kf + 1.0
        n_wb = max(0.0, ((1.0 + kf) * (aw - n_fwb) - kf * ar - kf * amm) / denom)
        n_ifrm = max(0.0, ((1.0 + kf) * ar - kf * (aw - n_fwb) - kf * amm) / denom)

    n_wb = min(n_wb, float(wm))
    n_ifrm = min(n_ifrm, float(clean_hits))
    return EdramTargets(n_fwb=n_fwb, n_wb=n_wb, n_ifrm=n_ifrm)
