"""Shared benchmark configuration.

Each benchmark regenerates one paper artifact at ``smoke`` scale (a
representative workload subset) and prints the table it produced.
``pytest benchmarks/ --benchmark-only`` therefore doubles as a quick
reproduction pass; run ``repro experiment all --scale small`` for the
full-fidelity version.

Benchmarks resolve experiments by registry id and drive them through
the cell-execution engine serially and uncached, so the numbers measure
simulation work rather than cache I/O.
"""

import pytest

from repro.experiments.exec import run_spec
from repro.experiments.registry import get_spec

# Representative subsets used by most benchmarks: one IFRM-heavy
# workload (mcf), the SFRM star (omnetpp), and a write-heavy FWB/WB
# workload (gcc.expr).
CORE_WORKLOADS = ["mcf", "omnetpp", "gcc.expr"]
TINY_WORKLOADS = ["mcf", "gcc.expr"]


@pytest.fixture
def core_workloads():
    return list(CORE_WORKLOADS)


@pytest.fixture
def tiny_workloads():
    return list(TINY_WORKLOADS)


def run_once(benchmark, experiment, *, scale=None, workloads=None, **options):
    """Run one registered experiment exactly once under benchmark timing.

    ``experiment`` is a registry id (e.g. ``"fig06"``); extra keyword
    arguments become spec options (e.g. fig12's
    ``max_mixes_per_category``).
    """
    spec = get_spec(experiment)
    kwargs = {"scale": scale, "workloads": workloads,
              "options": options or None}
    return benchmark.pedantic(run_spec, args=(spec,), kwargs=kwargs,
                              rounds=1, iterations=1)
