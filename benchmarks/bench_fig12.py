"""Benchmark: regenerate Fig. 12 (all mix categories)."""

from conftest import run_once

from repro.experiments.common import SMOKE


def test_fig12_all_workloads(benchmark):
    # One mix per category at smoke scale; the full 44 run via
    # `repro experiment fig12 --scale small`.
    result = run_once(benchmark, "fig12", scale=SMOKE, max_mixes_per_category=1)
    print()
    result.print()
    gmeans = {row[0]: row[2] for row in result.rows if row[0].startswith("GMEAN")}
    # Insensitive mixes are never significantly hurt.
    assert gmeans["GMEAN-bandwidth-insensitive"] > 0.95
    assert gmeans["GMEAN-all"] > 0.98
