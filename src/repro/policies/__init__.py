"""Access-steering policies.

A :class:`~repro.policies.base.SteeringPolicy` plugs into a memory-side
cache controller and decides, per access, whether to redirect traffic
between the cache and main memory. Implementations:

- :mod:`repro.policies.base` — the no-op baseline (traditional
  hit-rate-maximizing operation) and the hook protocol;
- :mod:`repro.policies.dap` — the paper's DAP: one window/credit
  engine driving each architecture's solve (:mod:`repro.core.dap`);
- :mod:`repro.policies.sbd` — Self-Balancing Dispatch (Sim et al.,
  MICRO 2012) and its SBD-WT variant;
- :mod:`repro.policies.batman` — BATMAN set-disabling toward a target
  hit rate (Chou et al., 2015);
- :mod:`repro.policies.bear` — BEAR-style fill bypass for the Alloy
  cache (Chou et al., ISCA 2015);
- :mod:`repro.policies.banshee` — Banshee-style frequency-threshold
  fill admission with tag-update traffic (Yu et al., MICRO 2017);
- :mod:`repro.policies.tuntu` — TUNTU-style selective replacement
  update (Young & Qureshi);
- :mod:`repro.policies.cbp` — CBP-style bandwidth-pressure prefetch
  throttling for the stride prefetcher.
"""
