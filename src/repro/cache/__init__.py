"""Cache substrates.

Functional (state-only) models of every cache structure the paper uses:

- :mod:`repro.cache.sram_cache` — generic set-associative SRAM cache
  (L1/L2/L3 and the building block for SRAM metadata structures);
- :mod:`repro.cache.sectored` — sectored (sub-blocked) cache array used by
  both the die-stacked DRAM cache (4 KB sectors) and the eDRAM cache
  (1 KB sectors);
- :mod:`repro.cache.tag_cache` — the 32K-entry SRAM tag cache of the
  optimized baseline;
- :mod:`repro.cache.alloy` — direct-mapped TAD array of the Alloy cache;
- :mod:`repro.cache.dbc` — the dirty-bit cache that enables IFRM on Alloy;
- :mod:`repro.cache.footprint` — footprint prefetcher history table;
- :mod:`repro.cache.replacement` — NRU/LRU policies.

Timing (who pays which DRAM access for what) lives in the controllers
under :mod:`repro.hierarchy`.
"""
