"""Saturating credit counters — DAP's ~16 bytes of hardware state.

The paper stores ``(K+1) * N_WB`` instead of ``N_WB`` so the per-window
solve needs no divider: each applied write bypass simply decrements the
counter by ``K+1``. K itself (the cache/memory bandwidth ratio) is
approximated by a small rational so the multiply is cheap in hardware —
8/3 becomes 11/4 for the default platform.

We mirror that arithmetic exactly: a :class:`CreditCounter` keeps an
integer value in units of ``1/denominator`` of its per-application cost
and saturates at the width the paper budgets (eight bits of whole
units).
"""

from __future__ import annotations

from fractions import Fraction

from repro.errors import ConfigError


def approximate_k(b_cache: float, b_mm: float, denominator: int = 4) -> Fraction:
    """Hardware-friendly approximation of K = B_MS$ / B_MM.

    Rounds K to the nearest multiple of ``1/denominator`` (the paper uses
    quarters: 8/3 -> 11/4).
    """
    if b_cache <= 0 or b_mm <= 0:
        raise ConfigError("bandwidths must be positive")
    if denominator <= 0:
        raise ConfigError("denominator must be positive")
    return Fraction(round(b_cache / b_mm * denominator), denominator)


class CreditCounter:
    """Saturating counter charged a fixed ``cost`` per application.

    The cost (1, or K+1 for techniques that move an access onto main
    memory) is fixed at construction; the counter keeps an integer value
    in units of ``1/cost.denominator`` so spending needs no divider.
    ``load`` installs a window's budget, counted in applications
    (clamped to [0, max]); ``take`` spends one application's cost if any
    credit remains. The paper lets a technique fire while its counter is
    non-zero, so ``take`` succeeds on any positive value and floors at
    zero. ``value`` and ``max_value`` read in whole units, so a (K+1)
    counter holding N applications reads ``(K+1) * N``.
    """

    def __init__(self, cost: Fraction | int = 1, bits: int = 8) -> None:
        cost = Fraction(cost)
        if bits <= 0 or cost <= 0:
            raise ConfigError(
                f"bits and cost must be positive, got bits={bits}, cost={cost}")
        self.denominator = cost.denominator
        self._cost_f = float(cost)
        self._step = cost.numerator  # cost in 1/denominator units
        self._max = ((1 << bits) - 1) * self.denominator
        self._value = 0

    # ------------------------------------------------------------------
    def load(self, n: Fraction | int | float) -> None:
        """Set the counter to a budget of ``n`` applications, saturating."""
        scaled = int(n * self._cost_f * self.denominator)
        self._value = max(0, min(self._max, scaled))

    def take(self) -> bool:
        """Spend one application's cost; True if any credit was available."""
        if self._value <= 0:
            return False
        self._value = max(0, self._value - self._step)
        return True

    # ------------------------------------------------------------------
    @property
    def value(self) -> float:
        """Current credit in whole units."""
        return self._value / self.denominator

    @property
    def max_value(self) -> float:
        return self._max / self.denominator

    def __bool__(self) -> bool:
        return self._value > 0

    def __repr__(self) -> str:
        return f"CreditCounter(value={self.value}, max={self.max_value})"
