"""Per-layer host-time ledger for one traced pass over the simulator.

The ledger wraps each layer's entry points at class or module level,
from outside ``src/``, and restores the originals on exit, so untraced
runs never execute a wrapper. Inside ``System.run`` a layer stack
assigns every host nanosecond to exactly one layer: a wrapped call's
self time is its span minus the spans of the other-layer calls it made.
A call into the layer already on top of the stack (same-layer
re-entry) is counted but not timed again, so nothing is counted twice.
Calls made outside ``System.run`` (warmup, kernel cells) pass straight
through.

Inner-loop spans are too many to keep (10^5-10^6 per cell), so they are
aggregated per (layer, entry point) as calls, inclusive ns and self ns.
Phase spans are kept per cell, with the cell span as parent.

An entry point that no longer exists marks its whole layer
``unmeasured``: none of that layer's wrappers are installed, its time
folds into its callers' layers, and the run goes on.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: The event-loop layers, named after modules, with the classes whose
#: methods are their entry points. A class's subclasses belong to the
#: same layer; each name is wrapped wherever a class defines it.
LAYERS = (
    ("engine", "repro.engine.event_queue", "Simulator", ("run",)),
    ("core", "repro.hierarchy.cpu_core", "TraceCore", ("_run",)),
    ("sram", "repro.hierarchy.cache_hierarchy", "CacheHierarchy",
     ("_access", "_line_arrived")),
    ("msc", "repro.hierarchy.msc_base", "MscController",
     ("read", "write", "_finish_read", "_read_resolved", "_metadata_arrived",
      "_miss_data_arrived", "_write_meta_arrived", "_sfrm_mm_done",
      "_miss_after_tad", "_miss_data", "_write_resolved")),
    ("dram", "repro.mem.channel", "DramChannel",
     ("enqueue", "_dispatch", "_complete_next")),
    ("dap", "repro.policies.base", "SteeringPolicy",
     ("tick", "on_read", "on_write", "bypass_fill", "bypass_write",
      "force_read_miss", "speculative_read", "steer_clean_read",
      "write_through", "allow_prefetch", "note_ms_access", "note_ms_read",
      "note_ms_write", "note_mm_access", "note_read_miss", "note_write",
      "note_clean_hit")),
)
LAYER_NAMES = tuple(layer for layer, *_ in LAYERS)

#: Per-cell phases as ``run_mix`` resolves them: (phase, module, owner
#: class or None for a module function, attribute).
PHASES = (
    ("trace", "repro.backends.base", "SimBackend", "mix_traces"),
    ("build", "repro.experiments.common", None, "build_system"),
    ("warm", "repro.experiments.common", None, "warm_system"),
    ("loop", "repro.hierarchy.system", "System", "run"),
    ("collect", "repro.experiments.common", None, "collect_result"),
)

#: Cell-cache reads timed during a warm pass.
CACHE_IO = (
    ("repro.experiments.cellcache", "CellCache", "get"),
    ("repro.experiments.cellcache", None, "decode_result"),
)

# Modules whose import registers every controller and policy subclass.
_SUBCLASS_MODULES = ("repro.hierarchy.system", "repro.flat.controller")


def _family(cls: type) -> list[type]:
    found, todo = [], [cls]
    while todo:
        klass = todo.pop()
        if klass not in found:
            found.append(klass)
            todo.extend(klass.__subclasses__())
    return found


def _resolve(module: str, owner: str | None):
    target = importlib.import_module(module)
    return target if owner is None else getattr(target, owner, None)


@dataclass
class CellRecord:
    """What a traced pass saw of one mix cell."""

    label: str
    start_ns: int
    end_ns: int = 0
    result: object = None
    systems: list = field(default_factory=list)


class Ledger:
    """Wrappers, their counters, and the spans they record.

    ``points`` maps ``(layer, "Class.method")`` to ``[calls, inclusive
    ns, self ns]``; ``layer "phase"`` holds the per-cell phases and
    ``layer "cellcache"`` the warm-pass cache reads.
    """

    def __init__(self) -> None:
        self.points: dict[tuple[str, str], list[int]] = {}
        self.cells: list[CellRecord] = []
        self.spans: list[dict] = []
        self.unmeasured: set[str] = set()
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []
        self._cell: CellRecord | None = None
        self._origin = time.perf_counter_ns()

    # -- installation --------------------------------------------------
    @contextmanager
    def tracing(self):
        """Install the cell, phase and layer wrappers for one pass."""
        for module in _SUBCLASS_MODULES:
            importlib.import_module(module)
        try:
            self._install_cell_span()
            for phase, module, owner, attr in PHASES:
                target = _resolve(module, owner)
                if target is None or not hasattr(target, attr):
                    self.unmeasured.add(f"phase.{phase}")
                elif phase == "loop":
                    self._patch(target, attr, self._loop_wrapper)
                else:
                    self._patch(target, attr,
                                self._timed("phase", f"phase.{phase}"))
            if "phase.loop" in self.unmeasured:
                self.unmeasured.update(LAYER_NAMES)
            else:
                for layer, module, owner, names in LAYERS:
                    self._install_layer(layer, _resolve(module, owner), names)
            yield self
        finally:
            self.restore()

    @contextmanager
    def timing_cache_reads(self):
        """Time cell-cache reads (``cellcache.get_s``) for one pass."""
        try:
            for module, owner, attr in CACHE_IO:
                target = _resolve(module, owner)
                if target is None or not hasattr(target, attr):
                    self.unmeasured.add("cellcache")
                else:
                    self._patch(target, attr, self._timed("cellcache"))
            yield self
        finally:
            self.restore()

    def restore(self) -> None:
        """Put every original back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original, self._key(owner, attr)))

    @staticmethod
    def _key(owner, attr: str) -> str:
        return f"{getattr(owner, '__name__', owner)}.{attr}"

    def _install_layer(self, layer: str, base, names) -> None:
        family = _family(base) if isinstance(base, type) else []
        targets = [(cls, name) for name in names for cls in family
                   if name in cls.__dict__]
        defined = {name for _, name in targets}
        if not family or defined != set(names):
            self.unmeasured.add(layer)
            return
        for cls, name in targets:
            self._patch(cls, name, self._layer_wrapper(layer))

    def _install_cell_span(self) -> None:
        exec_module = importlib.import_module("repro.experiments.exec")
        ledger = self

        def make(original, key):
            def execute(cell):
                record = CellRecord(cell.label, time.perf_counter_ns())
                ledger._cell = record
                try:
                    record.result = original(cell)
                finally:
                    record.end_ns = time.perf_counter_ns()
                    ledger._cell = None
                    ledger.cells.append(record)
                    ledger._record_span(f"cell/{record.label}",
                                        record.start_ns, record.end_ns)
                return record.result
            return execute

        self._patch(exec_module.MixCell, "execute", make)

    # -- wrappers ------------------------------------------------------
    def _point(self, layer: str, key: str) -> list[int]:
        return self.points.setdefault((layer, key), [0, 0, 0])

    def _timed(self, layer: str, span: str | None = None):
        """Inclusive timing of a call that nests nothing measured; with
        ``span``, each call is also kept as a span of the current cell."""
        def make(original, key):
            stat = self._point(layer, span or key)
            ledger = self
            clock = time.perf_counter_ns

            def timed(*args, **kwargs):
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = clock()
                    stat[0] += 1
                    stat[1] += end - start
                    stat[2] += end - start
                    if span is not None:
                        ledger._record_span(span, start, end)
            return timed
        return make

    def _record_span(self, name: str, start: int, end: int) -> None:
        cell = self._cell
        self.spans.append({
            "name": name, "parent": f"cell/{cell.label}" if cell else None,
            "start_ns": start - self._origin, "end_ns": end - self._origin})

    def _loop_wrapper(self, original, key):
        """``System.run``: the phase span and the root of the layer stack.

        Time the root spends outside every wrapped call is the event
        loop's own, so it is booked to the engine layer.
        """
        stat = self._point("phase", "phase.loop")
        root = self._point("engine", key)
        stack = self._stack
        ledger = self
        clock = time.perf_counter_ns

        def run(system, *args, **kwargs):
            frame = ["engine", 0]
            stack.append(frame)
            start = clock()
            try:
                return original(system, *args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed
                root[0] += 1
                root[1] += elapsed
                root[2] += elapsed - frame[1]
                if ledger._cell is not None:
                    ledger._cell.systems.append(system)
                ledger._record_span("phase.loop", start, end)
        return run

    def _layer_wrapper(self, layer: str):
        def make(original, key):
            stat = self._point(layer, key)
            stack = self._stack
            clock = time.perf_counter_ns

            def entry(*args, **kwargs):
                if not stack:
                    return original(*args, **kwargs)
                stat[0] += 1
                parent = stack[-1]
                if parent[0] == layer:
                    return original(*args, **kwargs)
                frame = [layer, 0]
                stack.append(frame)
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stat[1] += elapsed
                    stat[2] += elapsed - frame[1]
                    parent[1] += elapsed
            return entry
        return make

    # -- results -------------------------------------------------------
    def calls(self, layer: str, method: str | None = None) -> int | None:
        if layer in self.unmeasured:
            return None
        return sum(stat[0] for (lay, key), stat in self.points.items()
                   if lay == layer
                   and (method is None or key.endswith("." + method)))

    def self_s(self, layer: str) -> float | None:
        if layer in self.unmeasured:
            return None
        return sum(stat[2] for (lay, _), stat in self.points.items()
                   if lay == layer) / 1e9

    def phase_s(self, phase: str) -> float | None:
        name = f"phase.{phase}"
        if name in self.unmeasured:
            return None
        return self.points.get(("phase", name), [0, 0, 0])[1] / 1e9

    def layers_sum_s(self) -> float:
        """Self time over every loop layer; equals ``phase_s("loop")``."""
        return sum(stat[2] for (lay, _), stat in self.points.items()
                   if lay in LAYER_NAMES) / 1e9


# ----------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ----------------------------------------------------------------------

def _mean(values) -> float | None:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def _ratio(part, whole) -> float | None:
    return part / whole if part is not None and whole else None


def _hit_rate(caches) -> float | None:
    caches = list(caches)
    hits = sum(cache.hits for cache in caches)
    return _ratio(hits, hits + sum(cache.misses for cache in caches))


def _devices(msc) -> list:
    """The controller's bandwidth sources: cache (read, write), memory."""
    return [dev for dev in (msc.cache_dev, getattr(msc, "cache_write_dev",
                                                   None), msc.mm_dev)
            if dev is not None]


def partition_gap(msc) -> float:
    """Distance between the measured and the optimal access partition.

    The total-variation distance between each source's share of CAS
    operations and Eq. 3's optimum (shares proportional to bandwidth),
    as ``repro analyze`` computes it per window.
    """
    from repro.core.bandwidth_model import optimal_fractions

    devices = _devices(msc)
    cas = [dev.total_cas() for dev in devices]
    total = sum(cas)
    if not total:
        return 0.0
    optimum = optimal_fractions([dev.peak_gbps for dev in devices])
    return 0.5 * sum(abs(c / total - o) for c, o in zip(cas, optimum))


def layer_metrics(ledger: Ledger, untraced_loop_s: float,
                  untraced_events: int) -> dict[str, float | None]:
    """Every loop-layer and phase metric of one traced pass.

    Host times come from the ledger; simulated counts come from each
    cell's ``RunResult`` and finished ``System``. ``untraced_*`` are the
    same cells' loop seconds and events without the wrappers.
    """
    records = [c for c in ledger.cells if c.result is not None and c.systems]
    results = [c.result for c in records]
    systems = [c.systems[-1] for c in records]
    dap = [(r, s) for r, s in zip(results, systems)
           if r.policy.startswith("dap")]
    events = sum(s.sim.events_dispatched for s in systems)
    instructions = sum(r.total_instructions for r in results)
    extras = [r.extras for r in results]
    mm_cas = sum(r.mm_cas for r in results)
    cache_cas = sum(r.cache_cas for r in results)
    decisions = {t: sum(r.dap_decisions.get(t, 0) for r in results)
                 for t in ("fwb", "wb", "ifrm", "sfrm")}
    sfrm_issued = sum(e["sfrm_issued"] for e in extras)
    sfrm_wasted = sum(e["sfrm_wasted"] for e in extras)
    loop_s = ledger.phase_s("loop")

    def ns_per(layer: str, count) -> float | None:
        seconds = ledger.self_s(layer)
        return _ratio(seconds * 1e9 if seconds is not None else None, count)

    metrics = {f"phase.{phase}_s": ledger.phase_s(phase)
               for phase, *_ in PHASES}
    metrics.update({
        "engine.events": events,
        "engine.self_s": ledger.self_s("engine"),
        "engine.ns_per_event": ns_per("engine", events),
        "engine.events_per_s": _ratio(untraced_events, untraced_loop_s),
        "core.wakeups": ledger.calls("core"),
        "core.self_s": ledger.self_s("core"),
        "core.ns_per_instr": ns_per("core", instructions),
        "core.instructions": instructions,
        "core.ipc": _mean(ipc for r in results for ipc in r.ipc),
        "sram.accesses": ledger.calls("sram", "_access"),
        "sram.fills": ledger.calls("sram", "_line_arrived"),
        "sram.self_s": ledger.self_s("sram"),
        "sram.ns_per_access": ns_per("sram",
                                     ledger.calls("sram", "_access")),
        "sram.l1_hit_rate": _hit_rate(
            c for s in systems for c in s.hierarchy.l1),
        "sram.l2_hit_rate": _hit_rate(
            c for s in systems for c in s.hierarchy.l2),
        "sram.l3_hit_rate": _hit_rate(s.hierarchy.l3 for s in systems),
        "sram.l3_mpki": _ratio(
            sum(s.hierarchy.total_l3_misses() for s in systems),
            instructions / 1000),
        "msc.reads": ledger.calls("msc", "read"),
        "msc.writes": ledger.calls("msc", "write"),
        "msc.calls": ledger.calls("msc"),
        "msc.self_s": ledger.self_s("msc"),
        "msc.ns_per_call": ns_per("msc", ledger.calls("msc")),
        "msc.served_hit_rate": _mean(r.served_hit_rate for r in results),
        "msc.tag_cache_miss_rate": _mean(
            r.tag_cache_miss_rate for r in results),
        "msc.meta_reads": int(sum(e["meta_reads"] for e in extras)),
        "msc.meta_writes": int(sum(e["meta_writes"] for e in extras)),
        "msc.avg_read_latency_cyc": _mean(
            r.avg_read_latency for r in results),
        "msc.sfrm_useful_ratio": (1 - sfrm_wasted / sfrm_issued
                                  if sfrm_issued else None),
        "dram.requests": ledger.calls("dram", "enqueue"),
        "dram.self_s": ledger.self_s("dram"),
        "dram.ns_per_cas": ns_per("dram", mm_cas + cache_cas),
        "dram.mm_cas": mm_cas,
        "dram.cache_cas": cache_cas,
        "dram.mm_row_hit_rate": _mean(e["mm_row_hit_rate"] for e in extras),
        "dram.cache_row_hit_rate": _mean(
            e["cache_row_hit_rate"] for e in extras),
        "dram.mm_gbps": _mean(e["mm_gbps"] for e in extras),
        "dram.cache_gbps": _mean(
            e["cache_gbps"] + e["cache_write_gbps"] for e in extras),
        "dram.mode_switches": sum(
            channel.stats.mode_switches for s in systems
            for dev in _devices(s.msc) for channel in dev.iter_channels()),
        "dap.calls": ledger.calls("dap"),
        "dap.self_s": ledger.self_s("dap"),
        "dap.ns_per_call": ns_per("dap", ledger.calls("dap")),
        **{f"dap.{t}": count for t, count in decisions.items()},
        "dap.mm_cas_fraction": _mean(r.mm_cas_fraction for r, _ in dap),
        "dap.partition_gap": _mean(partition_gap(s.msc) for _, s in dap),
        "trace.overhead_frac": (loop_s / untraced_loop_s - 1
                                if loop_s is not None and untraced_loop_s
                                else None),
    })
    return metrics
