"""Standard probe wiring for a built :class:`~repro.hierarchy.system.System`.

:func:`attach_system_probes` registers the series the paper's dynamics
live in:

- **DAP policy** — per-technique credit counters (the Section IV
  ``B_1/f_1 = B_2/f_2`` balancing state), current-window demand fill
  (``a_ms``/``a_mm``/supplies), and cumulative grant counts;
- **DRAM devices** (main memory, cache channels, and the eDRAM write
  channels when present) — queue occupancy, busy fraction, cumulative
  row-hit rate, and delivered GB/s over the last probe window;
- **controller** — outstanding reads and a read-latency EWMA over the
  latencies completed since the previous sample.

All probes are pure reads of existing counters: attaching them cannot
change simulation results. It also installs the hub as the policy's
decision observer, enabling the per-decision event trace.
"""

from __future__ import annotations

import dataclasses

from repro.obs.telemetry import Telemetry
from repro.policies.dap import DapPolicy

#: Smoothing factor of the read-latency EWMA (per probe interval).
LATENCY_EWMA_ALPHA = 0.25


def _register_dap_probes(tel: Telemetry, policy: DapPolicy) -> None:
    for name in policy.credit_state():
        tel.register(f"dap.credits.{name}",
                     lambda p=policy, n=name: p.credit_state()[n])
    stats = policy.stats
    for field in dataclasses.fields(stats):
        tel.register(f"dap.window.{field.name}",
                     lambda s=stats, n=field.name: getattr(s, n))
    decisions = policy.decisions
    for name in decisions:
        tel.register(f"dap.granted.{name}",
                     lambda d=decisions, n=name: d[n])


def _window_gbps_probe(device):
    """Delivered GB/s over the cycles since the previous sample."""
    state = {"cas": 0, "cycle": 0}

    def probe() -> float:
        now = device.sim.now
        cas = device.total_cas()
        d_cas, d_cycles = cas - state["cas"], now - state["cycle"]
        state["cas"], state["cycle"] = cas, now
        if d_cycles <= 0:
            return 0.0
        seconds = d_cycles / (device.cpu_ghz * 1e9)
        return d_cas * 64 / seconds / 1e9

    return probe


def _register_device_probes(tel: Telemetry, prefix: str, device) -> None:
    tel.register(f"{prefix}.read_q", device.read_queue_len)
    tel.register(f"{prefix}.write_q", device.write_queue_len)
    tel.register(f"{prefix}.busy_frac", device.utilization)
    tel.register(f"{prefix}.row_hit_rate", device.row_hit_rate)
    tel.register(f"{prefix}.gbps", _window_gbps_probe(device))


def _latency_ewma_probe(stats):
    """EWMA of the mean read latency completed between samples."""
    state = {"done": 0, "sum": 0, "ewma": 0.0}

    def probe() -> float:
        d_done = stats.reads_done - state["done"]
        d_sum = stats.read_latency_sum - state["sum"]
        state["done"], state["sum"] = stats.reads_done, stats.read_latency_sum
        if d_done > 0:
            window_avg = d_sum / d_done
            if state["ewma"]:
                state["ewma"] += LATENCY_EWMA_ALPHA * (window_avg - state["ewma"])
            else:
                state["ewma"] = window_avg
        return state["ewma"]

    return probe


def attach_system_probes(tel: Telemetry, system) -> Telemetry:
    """Wire the standard probe set into a built system; returns ``tel``."""
    msc = system.msc

    if isinstance(msc.policy, DapPolicy):
        _register_dap_probes(tel, msc.policy)
    msc.policy.observer = tel

    _register_device_probes(tel, "mm", msc.mm_dev)
    _register_device_probes(tel, "cache", msc.cache_dev)
    write_dev = getattr(msc, "cache_write_dev", None)
    if write_dev is not None:
        _register_device_probes(tel, "cache_wr", write_dev)

    tel.register("msc.outstanding_reads",
                 lambda s=msc.stats: s.outstanding_reads)
    tel.register("msc.read_latency_ewma", _latency_ewma_probe(msc.stats))
    return tel
