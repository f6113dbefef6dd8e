"""repro — reproduction of "Near-Optimal Access Partitioning for Memory
Hierarchies with Multiple Heterogeneous Bandwidth Sources" (HPCA 2017).

Quickstart::

    from repro import SystemConfig, build_system, collect_result
    from repro.workloads import rate_mix

    mix = rate_mix("mcf")
    config = SystemConfig(policy="dap")
    system = build_system(config, mix.traces(refs_per_core=20_000, scale=1/256))
    system.run()
    print(collect_result(system).mean_ipc)

Subpackages:

- :mod:`repro.core` — the DAP algorithm (bandwidth model, credit
  counters, per-architecture solvers);
- :mod:`repro.mem` — banked DRAM channel/device models;
- :mod:`repro.cache` — SRAM, sectored, Alloy and eDRAM cache arrays;
- :mod:`repro.policies` — baseline, DAP, SBD, BATMAN, BEAR steering;
- :mod:`repro.hierarchy` — cores, SRAM hierarchy, MSC controllers,
  system assembly;
- :mod:`repro.workloads` — synthetic benchmark stand-ins and mixes;
- :mod:`repro.metrics` — weighted speedup and run summaries;
- :mod:`repro.experiments` — one module per paper table/figure.
"""

import importlib

__version__ = "1.0.0"

#: The quickstart names, each resolved from its module on first use
#: (PEP 562), so ``import repro`` loads no simulator code.
_LAZY = {
    "System": "repro.hierarchy.system",
    "SystemConfig": "repro.hierarchy.config",
    "build_system": "repro.hierarchy.system",
    "RunResult": "repro.metrics.stats",
    "collect_result": "repro.metrics.stats",
    "weighted_speedup": "repro.metrics.speedup",
    "normalized_weighted_speedup": "repro.metrics.speedup",
    "geomean": "repro.metrics.speedup",
}

__all__ = [*_LAZY, "__version__"]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
