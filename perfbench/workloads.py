"""The benchmark's four workloads and the simulated fingerprint of a cell.

Three workloads are lists of simulation cells run through
``repro.api.run_cells``; the fourth, ``sweep``, is a ``repro`` CLI
invocation. Every cell runs at smoke scale. Why each workload exists is
stated in BENCHMARK.json and README.md.

Seeds. ``--seed 0`` gives the rate-8 mixes named below. Any other seed
pools the same core slots (eight per mix) and deals them out again with
``random.Random(seed)``: each mix becomes a heterogeneous mix of the same
members, so the inputs change while the total simulated work stays put.
Drawing new members from a class per seed would swing host time by the
members' spread (kilo-instructions per host second ranges 256-717 across
the bandwidth-sensitive class), far beyond any regression bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.api import MixCell
from repro.experiments.common import SMOKE, scaled_config
from repro.workloads.mixes import Mix, rate_mix

WAYS = 8

#: Configuration names a cell workload may use, as scaled_config kwargs.
CONFIGS = {
    "baseline": {"policy": "baseline"},
    "dap": {"policy": "dap"},
    "dap-alloy": {"policy": "dap", "msc_kind": "alloy"},
    "dap-edram": {"policy": "dap", "msc_kind": "edram"},
}


@dataclass(frozen=True)
class CellWorkload:
    """Mixes, the configurations each runs under, and how they batch.

    ``mixes`` pairs each mix's seed-0 member with its configurations.
    With ``per_mix_calls`` each mix is one ``run_cells`` call (so its
    cells share their traces); otherwise the whole workload is one call.
    """

    name: str
    mixes: tuple
    per_mix_calls: bool

    def members(self, seed: int) -> list[tuple[str, ...]]:
        slots = [member for member, _ in self.mixes for _ in range(WAYS)]
        if seed:
            random.Random(seed).shuffle(slots)
        return [tuple(slots[i * WAYS:(i + 1) * WAYS])
                for i in range(len(self.mixes))]

    def groups(self, seed: int) -> list[list[MixCell]]:
        """The ``run_cells`` calls of one repeat, in order."""
        groups: list[list[MixCell]] = []
        for index, ((member, configs), members) in enumerate(
                zip(self.mixes, self.members(seed))):
            if seed:
                mix = Mix(name=f"{self.name}.s{seed}.m{index}",
                          members=members, category="heterogeneous")
            else:
                mix = rate_mix(member, WAYS)
            cells = [MixCell(f"{mix.name}/{config}", mix,
                             scaled_config(SMOKE, **CONFIGS[config]), SMOKE)
                     for config in configs]
            if self.per_mix_calls or not groups:
                groups.append(cells)
            else:
                groups[0].extend(cells)
        return groups


@dataclass(frozen=True)
class SweepWorkload:
    """A cold then warm ``repro experiment ... --validate`` invocation."""

    name: str
    experiments: tuple
    workloads: tuple

    def cli_args(self, jobs: int, cache_dir: str, validation_out: str) -> list:
        return ["-m", "repro.cli", "experiment", *self.experiments,
                "--workloads", *self.workloads, "--scale", SMOKE.name,
                "--validate", "--jobs", str(jobs), "--cache-dir", cache_dir,
                "--validation-out", validation_out]


BW_PAIR = ("baseline", "dap")

WORKLOADS = {
    w.name: w for w in (
        CellWorkload("bw-sensitive", (("mcf", BW_PAIR), ("omnetpp", BW_PAIR),
                                      ("libquantum", BW_PAIR)),
                     per_mix_calls=True),
        CellWorkload("sram-bound", (("milc", BW_PAIR), ("cactusADM", BW_PAIR),
                                    ("bwaves", BW_PAIR)),
                     per_mix_calls=True),
        CellWorkload("write-heavy", (("gcc.expr", ("dap",)),
                                     ("parboil-lbm", ("dap",)),
                                     ("parboil-lbm", ("dap-alloy",)),
                                     ("parboil-lbm", ("dap-edram",))),
                     per_mix_calls=False),
        # fig07 is cut to three workloads because the smallest full
        # mix-based sweep (fig07, twelve cells) takes ~9 s cold on two
        # cores, which leaves no room for repeats within one run.
        SweepWorkload("sweep", ("fig01", "flat", "fig07"),
                      ("mcf", "omnetpp", "gcc.expr")),
    )
}


def fingerprint(result) -> dict:
    """The simulated outcome of one cell, as JSON-ready data.

    Any change here is a change in simulated behaviour, never host speed.
    """
    manifest = result.manifest or {}
    return {
        "cycles": result.cycles,
        "instructions": list(result.instructions),
        "mm_cas": result.mm_cas,
        "cache_cas": result.cache_cas,
        "dap_decisions": dict(sorted(result.dap_decisions.items())),
        "events": manifest.get("events"),
    }


def cell_error(label: str, result, reference: Optional[dict]) -> Optional[str]:
    """Why a cell's result is wrong, or None when it is right.

    ``reference`` maps labels to fingerprints; with None, only idle
    cores are checked.
    """
    if any(ipc == 0 for ipc in result.ipc):
        return f"{label}: a core has ipc 0"
    if reference is None:
        return None
    if label not in reference:
        return f"{label}: no reference fingerprint"
    if fingerprint(result) != reference[label]:
        return f"{label}: fingerprint differs from the reference"
    return None
