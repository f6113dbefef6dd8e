"""Self-test of the benchmark harness (not part of the tier-1 suite).

    python3 -m pytest perfbench/test_perf.py

Runs in well under 30 s: every simulation here uses a tiny scale.
"""

from __future__ import annotations

import json
import time

import pytest

import ledger as ledger_module
import run
import workloads
from ledger import Ledger, layer_metrics
from repro.api import run_cells
from repro.experiments.common import Scale
from workloads import CellWorkload, fingerprint

TINY = Scale(name="tiny", capacity_divisor=64, l1_bytes=16 * 1024,
             l2_bytes=64 * 1024, l3_bytes=256 * 1024, refs_per_core=1000,
             kernel_reads=1000)
TINY_WORKLOAD = CellWorkload("tiny", (("mcf", ("baseline", "dap")),),
                             per_mix_calls=True)


@pytest.fixture
def tiny(monkeypatch):
    """The tiny workload, registered and running at the tiny scale."""
    monkeypatch.setattr(workloads, "SMOKE", TINY)
    monkeypatch.setitem(run.WORKLOADS, TINY_WORKLOAD.name, TINY_WORKLOAD)
    return TINY_WORKLOAD


def _busy(ns: int) -> None:
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


def _entry_points() -> dict:
    """Every attribute the ledger may wrap, by (owner, name)."""
    found = {}
    for _, module, owner, names in ledger_module.LAYERS:
        for cls in ledger_module._family(ledger_module._resolve(module, owner)):
            for name in names:
                if name in cls.__dict__:
                    found[(cls, name)] = cls.__dict__[name]
    for _, module, owner, attr in ledger_module.PHASES:
        target = ledger_module._resolve(module, owner)
        found[(target, attr)] = getattr(target, attr)
    for module, owner, attr in ledger_module.CACHE_IO:
        target = ledger_module._resolve(module, owner)
        found[(target, attr)] = getattr(target, attr)
    exec_cls = ledger_module._resolve("repro.experiments.exec", "MixCell")
    found[(exec_cls, "execute")] = exec_cls.__dict__["execute"]
    return found


def test_layer_stack_accounting_on_a_synthetic_call_tree():
    ledger = Ledger()

    def wrap(layer, fn):
        return ledger._layer_wrapper(layer)(fn, f"synthetic.{fn.__name__}")

    dram = wrap("dram", lambda: _busy(300_000))
    msc_inner = wrap("msc", lambda: (_busy(200_000), dram()))

    def msc_outer():
        _busy(200_000)
        msc_inner()          # same-layer re-entry
        dram()

    msc = wrap("msc", msc_outer)
    core = wrap("core", lambda: (_busy(100_000), msc(), msc()))
    loop = ledger._loop_wrapper(lambda system: (core(), _busy(100_000)),
                                "System.run")
    loop(object())

    loop_s = ledger.phase_s("loop")
    assert ledger.layers_sum_s() == pytest.approx(loop_s, rel=1e-9)
    # The re-entered msc call is counted but its time is not booked twice.
    inner = ledger.points[("msc", "synthetic.<lambda>")]
    assert inner[0] == 2 and inner[1] == 0 and inner[2] == 0
    assert ledger.calls("msc") == 4 and ledger.calls("dram") == 4
    # dram: four 0.3 ms calls; msc: two outer calls of 0.4 ms own work.
    assert ledger.self_s("dram") >= 4 * 300e-6
    assert ledger.self_s("msc") >= 2 * 400e-6


def test_wrappers_are_removed_after_a_traced_run(tiny, tmp_path, capsys):
    before = _entry_points()
    run.main(["--workload", tiny.name, "--seed", "0", "--trace", "1",
              "--out", str(tmp_path / "spans.json")])
    capsys.readouterr()
    after = _entry_points()
    assert all(after[key] is before[key] for key in before)
    # Classes first imported during the run carry no wrapper either.
    assert not any(getattr(v, "__module__", None) == "ledger"
                   for v in after.values())
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert {s["name"] for s in spans["spans"]} >= {
        "cell/mcf.rate8/dap", "phase.trace", "phase.loop", "phase.warm"}


def test_missing_entry_point_marks_its_layer_unmeasured(tiny, monkeypatch):
    layers = tuple(
        (layer, module, owner, names + ("_no_such_entry",)
         if layer == "dram" else names)
        for layer, module, owner, names in ledger_module.LAYERS)
    monkeypatch.setattr(ledger_module, "LAYERS", layers)
    ledger = Ledger()
    with ledger.tracing():
        run_cells(tiny.groups(0)[0])
    assert ledger.unmeasured == {"dram"}
    loop_s = ledger.phase_s("loop")
    assert ledger.layers_sum_s() == pytest.approx(loop_s, rel=1e-9)
    metrics = layer_metrics(ledger, loop_s, 1)
    assert metrics["dram.self_s"] is None
    assert metrics["dram.requests"] is None
    assert metrics["msc.self_s"] > 0
    assert metrics["dram.mm_cas"] > 0      # simulated counts still come


def test_perturbed_fingerprint_counts_as_a_failed_op(tiny, tmp_path):
    groups = tiny.groups(0)
    results, _ = run.cells_pass(groups, tmp_path / "a", run.Tally(), None)
    reference = {label: fingerprint(r) for label, r in results.items()}
    tally = run.Tally()
    run.cells_pass(groups, tmp_path / "b", tally, reference)
    assert (tally.attempted, tally.errors) == (2, [])

    label = sorted(reference)[0]
    reference[label] = dict(reference[label],
                            cycles=reference[label]["cycles"] + 1)
    tally = run.Tally()
    run.cells_pass(groups, tmp_path / "c", tally, reference)
    assert tally.attempted == 2
    assert tally.errors == [f"{label}: fingerprint differs from the reference"]


def test_printed_names_match_benchmark_json(tiny, tmp_path, capsys):
    declared = json.loads(run.BENCHMARK.read_text())
    assert set(run.WORKLOADS) - {tiny.name} == {
        w["name"] for w in declared["workloads"]}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        run.main(["--workload", tiny.name, "--seed", "1", "--seconds", "0.1",
                  "--trace", str(trace), "--out", str(tmp_path / "s.json")])
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert list(report) == ["correct", "attempted", "failed", "metrics"]
        assert report["correct"] and report["failed"] == 0
        names = [m["name"] for m in declared[kind]]
        assert list(report["metrics"]) == names
        units = {m["name"]: m["unit"] for m in declared[kind]}
        assert all(report["metrics"][n]["unit"] == units[n] for n in names)
