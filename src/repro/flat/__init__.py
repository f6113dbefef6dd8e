"""OS-visible (flat) heterogeneous memory — the paper's Section II aside.

The paper evaluates the in-package memory as a *cache*, noting that "the
algorithms described can easily be extended to OS-visible
implementations". This subpackage provides that extension: the fast
memory becomes part of the physical address space and a page-placement
policy decides which pages live in it.

- :mod:`repro.flat.placement` — placement policies: first-touch
  (hit-rate-maximizing "traditional wisdom"), bandwidth-ratio
  interleaving (Equation 3's optimum applied to pages), and an adaptive
  migrating policy (the flat-mode analogue of DAP's window learning);
- :mod:`repro.flat.controller` — the flat-memory controller that routes
  requests by placement and charges migration traffic.
"""
