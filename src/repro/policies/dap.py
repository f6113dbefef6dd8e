"""DAP — Dynamic Access Partitioning — as steering policies.

The paper's three variants run on the same hardware: W-cycle windows,
~16 bytes of saturating credit counters and division-free (K+1)
arithmetic. :class:`DapPolicy` is that shared engine. Each architecture
adds a technique table, a pure per-window solve
(:mod:`repro.core.dap`) and the ``note_*`` hooks that record its demand.
"""

from __future__ import annotations

from repro.core.credits import CreditCounter, approximate_k
from repro.core.dap import (TAD_DATA_FRACTION, solve_alloy, solve_edram,
                            solve_sectored)
from repro.core.window import EdramWindowStats, WindowStats
from repro.errors import ConfigError
from repro.policies.base import SteeringPolicy

#: Technique-table cost of a technique that moves an access off the
#: cache *and* onto main memory: each application costs K+1 credits, so
#: its counter stores ``(K+1) * N`` and the solve needs no divider.
K_PLUS_1 = "K+1"


class DapPolicy(SteeringPolicy):
    """The window/credit engine shared by every DAP architecture.

    The ``note_*`` hooks record the current window's demand in
    :attr:`stats`. The first technique query of a new window solves the
    previous window's demand into budgets and loads one saturating credit
    counter per row of :attr:`techniques`; during the window each
    technique fires while its counter is non-zero. After an idle gap of
    more than one window the recorded demand is stale, so the solve starts
    from empty stats. Only technique queries roll the window (never
    ``note_*`` or :meth:`tick`), so demand noted after a boundary but
    before the next query counts toward the old window.

    Parameters
    ----------
    b_ms, b_mm:
        Peak bandwidths of the memory-side cache and main memory in
        64-byte accesses per CPU cycle.
    window:
        Window length W in CPU cycles (paper default 64).
    efficiency:
        Assumed bandwidth efficiency E of both sources (paper default
        0.75); effective bandwidth is ``E * peak``.
    """

    #: ``(technique, cost)`` rows in ``decisions`` order; cost is 1 or
    #: :data:`K_PLUS_1`. Row ``t`` becomes the counter attribute ``_t``.
    techniques: tuple[tuple[str, int | str], ...] = ()
    stats_type: type = WindowStats

    def __init__(
        self,
        b_ms: float,
        b_mm: float,
        window: int = 64,
        efficiency: float = 0.75,
    ) -> None:
        super().__init__()
        if window <= 0:
            raise ConfigError(f"window must be positive, got {window}")
        if not 0 < efficiency <= 1:
            raise ConfigError(f"efficiency must be in (0, 1], got {efficiency}")
        self.window = window
        self.efficiency = efficiency
        self.b_ms_eff = b_ms * efficiency
        self.b_mm_eff = b_mm * efficiency
        self.bms_w = self.b_ms_eff * window
        self.bmm_w = self.b_mm_eff * window
        self.k = approximate_k(self.b_ms_eff, self.b_mm_eff)
        self._kf = float(self.k)
        self.stats = self.stats_type()
        self._window_index = 0
        self._counters: list[CreditCounter] = []
        for name, cost in self.techniques:
            counter = CreditCounter(self.k + 1 if cost == K_PLUS_1 else cost)
            setattr(self, f"_{name}", counter)
            self._counters.append(counter)
        #: Applied-decision counts (Fig. 7).
        self.decisions = {name: 0 for name, _ in self.techniques}

    # ------------------------------------------------------------------
    # Windows and credits
    # ------------------------------------------------------------------
    def solve(self, stats):
        """Budgets for the next window, in technique-table order."""
        raise NotImplementedError

    def _advance(self, now: int) -> None:
        """Roll to the window containing cycle ``now``."""
        widx = now // self.window
        if widx == self._window_index:
            return
        stats = self.stats if widx == self._window_index + 1 else self.stats_type()
        self.load_targets(self.solve(stats))
        self.stats.reset()
        self._window_index = widx

    def load_targets(self, targets) -> None:
        """Install a window's budgets, in applications, into the counters."""
        for counter, n in zip(self._counters, targets):
            counter.load(n)

    def _grant(self, now: int, line: int, counter: CreditCounter,
               technique: str) -> bool:
        """Spend one application of ``technique`` if its credit allows."""
        self._advance(now)
        granted = counter.take()
        if granted:
            self.decisions[technique] += 1
        if self.observer is not None:
            self.observer.decision(now, line, technique, granted, self)
        return granted

    def credit_state(self) -> dict[str, float]:
        """Current credit-counter values in whole units."""
        return {name: counter.value
                for (name, _), counter in zip(self.techniques, self._counters)}

    # ------------------------------------------------------------------
    # Demand recording
    # ------------------------------------------------------------------
    def note_ms_access(self, count: int = 1) -> None:
        self.stats.a_ms += count

    def note_mm_access(self, count: int = 1) -> None:
        self.stats.a_mm += count

    def note_read_miss(self) -> None:
        self.stats.read_misses += 1

    def note_write(self) -> None:
        self.stats.writes += 1

    def note_clean_hit(self) -> None:
        self.stats.clean_hits += 1

    # ------------------------------------------------------------------
    def _params(self) -> dict:
        return {"window": self.window, "k": str(self.k)}

    def describe_params(self) -> dict:
        return {**self._params(), **self.decisions}


class DapSectoredPolicy(DapPolicy):
    """DAP on a sectored DRAM cache (FWB + WB + IFRM + SFRM).

    SFRM only applies to architectures whose metadata lives in the DRAM
    array (it hides tag-fetch latency). A disabled technique is refused
    before the window rolls.
    """

    name = "dap"
    techniques = (("fwb", 1), ("wb", K_PLUS_1), ("ifrm", K_PLUS_1),
                  ("sfrm", 1))

    def __init__(
        self,
        b_ms: float,
        b_mm: float,
        window: int = 64,
        efficiency: float = 0.75,
        enable_sfrm: bool = True,
        enable_ifrm: bool = True,
        enable_wb: bool = True,
    ) -> None:
        super().__init__(b_ms, b_mm, window, efficiency)
        self.enable_sfrm = enable_sfrm
        self.enable_ifrm = enable_ifrm
        self.enable_wb = enable_wb

    def solve(self, stats: WindowStats):
        targets = solve_sectored(stats, self.bms_w, self.bmm_w, self.k,
                                 self._kf)
        return targets if self.enable_sfrm else targets._replace(n_sfrm=0)

    # Decisions ---------------------------------------------------------
    def bypass_fill(self, now: int, line: int) -> bool:
        return self._grant(now, line, self._fwb, "fwb")

    def bypass_write(self, now: int, line: int) -> bool:
        if not self.enable_wb:
            return False
        return self._grant(now, line, self._wb, "wb")

    def force_read_miss(self, now: int, line: int, core_id: int = -1) -> bool:
        if not self.enable_ifrm:
            return False
        return self._grant(now, line, self._ifrm, "ifrm")

    def speculative_read(self, now: int, line: int) -> bool:
        if self.enable_sfrm:
            return self._grant(now, line, self._sfrm, "sfrm")
        # Unlike a disabled WB or IFRM, a refused SFRM still reaches the
        # observer: decision traces record every tag-fetch race.
        if self.observer is not None:
            self.observer.decision(now, line, "sfrm", False, self)
        return False

    def _params(self) -> dict:
        # The decision counts of the same names overwrite the three
        # enable flags in describe(); the determinism golden pins that.
        return {
            "window": self.window,
            "efficiency": self.efficiency,
            "sfrm": self.enable_sfrm,
            "ifrm": self.enable_ifrm,
            "wb": self.enable_wb,
        }


class ThreadAwareDapPolicy(DapSectoredPolicy):
    """DAP with thread-aware IFRM (the paper's suggested refinement).

    "A thread-aware IFRM policy would prioritize the clean hits of the
    latency-insensitive threads before the latency-sensitive ones for
    bypassing to the main memory" (Section IV-A). Latency sensitivity is
    learned online: cores issuing many memory-side reads per epoch are
    bandwidth-bound (they overlap misses, tolerating extra latency);
    cores issuing few are latency-bound. IFRM credits are granted freely
    to insensitive cores, but a latency-sensitive core only takes a
    credit while the budget is still plentiful.
    """

    name = "dap-ta"

    def __init__(self, *args, epoch_cycles: int = 50_000, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.epoch_cycles = epoch_cycles
        self._reads_by_core: dict[int, int] = {}
        self._insensitive: set[int] = set()
        self._last_epoch = 0
        self.deferred_ifrm = 0

    def on_read(self, now: int, line: int, core_id: int = -1) -> None:
        if core_id >= 0:
            self._reads_by_core[core_id] = self._reads_by_core.get(core_id, 0) + 1
        if now - self._last_epoch >= self.epoch_cycles:
            self._last_epoch = now
            self._reclassify()

    def _reclassify(self) -> None:
        """Cores above the median read rate are latency-insensitive."""
        if not self._reads_by_core:
            return
        counts = sorted(self._reads_by_core.values())
        median = counts[len(counts) // 2]
        self._insensitive = {
            core for core, count in self._reads_by_core.items()
            if count >= median
        }
        self._reads_by_core.clear()

    def force_read_miss(self, now: int, line: int, core_id: int = -1) -> bool:
        if not self.enable_ifrm:
            return False
        self._advance(now)
        if core_id >= 0 and self._insensitive and core_id not in self._insensitive:
            # A latency-sensitive thread: only spend abundant credits.
            if self._ifrm.value < self._ifrm.max_value * 0.25:
                self.deferred_ifrm += 1
                if self.observer is not None:
                    self.observer.decision(now, line, "ifrm", False, self)
                return False
        return self._grant(now, line, self._ifrm, "ifrm")


class DapAlloyPolicy(DapPolicy):
    """DAP on the Alloy cache (DBC-gated IFRM + opportunistic WT).

    ``b_ms`` is the raw HBM bandwidth in accesses/cycle; the TAD data
    fraction is applied internally.
    """

    name = "dap-alloy"
    techniques = (("ifrm", K_PLUS_1), ("wt", 1))

    def __init__(
        self,
        b_ms: float,
        b_mm: float,
        window: int = 64,
        efficiency: float = 0.75,
    ) -> None:
        super().__init__(b_ms * TAD_DATA_FRACTION, b_mm, window, efficiency)
        # Never counted here: MscStats.fwb_applied is the real count.
        self.decisions["fill_bypass"] = 0

    def solve(self, stats: WindowStats):
        return solve_alloy(stats, self.bms_w, self.bmm_w, self.k, self._kf)

    def force_read_miss(self, now: int, line: int, core_id: int = -1) -> bool:
        return self._grant(now, line, self._ifrm, "ifrm")

    def write_through(self, now: int, line: int) -> bool:
        return self._grant(now, line, self._wt, "wt")


class DapEdramPolicy(DapPolicy):
    """DAP on the three-source sectored eDRAM cache."""

    name = "dap-edram"
    techniques = (("fwb", 1), ("wb", K_PLUS_1), ("ifrm", K_PLUS_1))
    stats_type = EdramWindowStats

    def solve(self, stats: EdramWindowStats):
        return solve_edram(stats, self.bms_w, self.bmm_w, self.k, self._kf)

    def bypass_fill(self, now: int, line: int) -> bool:
        return self._grant(now, line, self._fwb, "fwb")

    def bypass_write(self, now: int, line: int) -> bool:
        return self._grant(now, line, self._wb, "wb")

    def force_read_miss(self, now: int, line: int, core_id: int = -1) -> bool:
        return self._grant(now, line, self._ifrm, "ifrm")

    # Cache demand is recorded per channel set, never as one count.
    note_ms_access = SteeringPolicy.note_ms_access

    def note_ms_read(self, count: int = 1) -> None:
        self.stats.a_ms_read += count

    def note_ms_write(self, count: int = 1) -> None:
        self.stats.a_ms_write += count
