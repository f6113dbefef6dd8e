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
