"""Metrics: run results, weighted speedup, CAS fractions."""
