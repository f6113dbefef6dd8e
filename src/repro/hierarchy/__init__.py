"""System assembly: cores, SRAM hierarchy, memory-side cache controllers.

- :mod:`repro.hierarchy.config` — :class:`SystemConfig` and
  :class:`SramLevels`, plain data that loads no simulator code;
- :mod:`repro.hierarchy.msc_base` — controller base (stats + policy
  services);
- :mod:`repro.hierarchy.msc_sectored` — sectored DRAM cache controller
  (tag cache, SFRM, footprint prefetch, sector eviction maintenance);
- :mod:`repro.hierarchy.msc_alloy` — Alloy cache controller (TAD
  traffic, hit/miss predictor, DBC);
- :mod:`repro.hierarchy.msc_edram` — sectored eDRAM controller
  (separate read/write channel sets, on-die tags);
- :mod:`repro.hierarchy.cpu_core` — trace-driven ROB/MSHR core model;
- :mod:`repro.hierarchy.cache_hierarchy` — L1/L2/L3 with stride
  prefetching and writeback plumbing;
- :mod:`repro.hierarchy.system` — :func:`build_system` and the
  top-level :class:`~repro.hierarchy.system.System` runner.

The package imports none of its submodules: loading the simulator is
left to whoever runs a cell.
"""
