"""Telemetry: probe cadence, ring bounds, JSONL traces, manifests,
and — most importantly — that observing a run never changes it."""

import json
from dataclasses import replace

import pytest

from repro.engine.event_queue import Simulator
from repro.errors import ConfigError
from repro.experiments.common import SMOKE, run_mix, scaled_config
from repro.obs.telemetry import Series, Telemetry, TelemetryConfig
from repro.obs.trace import read_trace, safe_stem, trace_paths
from repro.workloads.mixes import rate_mix

#: SMOKE with a short trace so instrumented full-system runs stay fast.
TINY = replace(SMOKE, name="smoke", refs_per_core=3_000)


def make_busy_sim(ticks: int, step: int = 100) -> Simulator:
    """A simulator kept busy by a self-rescheduling ticker event."""
    sim = Simulator()
    state = {"left": ticks}

    def tick() -> None:
        state["left"] -= 1
        if state["left"] > 0:
            sim.schedule(step, tick)

    sim.schedule(step, tick)
    return sim


# ----------------------------------------------------------------------
# Probe framework
# ----------------------------------------------------------------------

def test_sampling_cadence_follows_probe_interval():
    sim = make_busy_sim(ticks=100, step=100)  # busy until cycle 10_000
    tel = Telemetry(sim, interval=500)
    tel.register("const", lambda: 7.0)
    tel.start()
    sim.run()
    cycles = tel.series("const").cycles()
    assert cycles, "sampler never fired"
    assert cycles[0] == 500
    assert all(b - a == 500 for a, b in zip(cycles, cycles[1:]))
    assert all(v == 7.0 for v in tel.series("const").values())
    # Self-terminating: the queue drained, so the run actually ended.
    assert sim.pending == 0


def test_sampler_stops_when_simulation_drains():
    sim = make_busy_sim(ticks=5, step=100)  # busy until cycle 500
    tel = Telemetry(sim, interval=200)
    tel.register("zero", lambda: 0.0)
    tel.start()
    sim.run()
    # Samples at 200 and 400 happen amid work; the one scheduled after
    # the last tick fires with an empty queue and does not reschedule.
    assert tel.samples_taken <= 4
    assert sim.pending == 0


def test_ring_buffer_bounds_series_memory():
    sim = make_busy_sim(ticks=400, step=100)  # busy until cycle 40_000
    tel = Telemetry(sim, interval=100, buffer_samples=8)
    tel.register("x", lambda: 1.0)
    tel.start()
    sim.run()
    series = tel.series("x")
    assert tel.samples_taken > 8
    assert len(series) == 8
    assert series.maxlen == 8
    # The ring keeps the *newest* samples.
    assert series.cycles()[-1] == max(series.cycles())
    assert series.last() == series.samples()[-1]


def test_duplicate_probe_names_rejected():
    tel = Telemetry(Simulator())
    tel.register("a", lambda: 0.0)
    with pytest.raises(ConfigError):
        tel.register("a", lambda: 1.0)


def test_decision_stride_keeps_every_nth():
    tel = Telemetry(Simulator(), event_sample=3)
    for i in range(10):
        tel.decision(now=i, line=i, technique="fwb", granted=True)
    assert tel.decisions_seen == 10
    assert tel.decisions_recorded == 4  # decisions 0, 3, 6, 9
    assert [d["cycle"] for d in tel.decisions] == [0, 3, 6, 9]


def test_telemetry_config_validates():
    with pytest.raises(ConfigError):
        TelemetryConfig(probe_interval=0)
    with pytest.raises(ConfigError):
        TelemetryConfig(event_sample=0)
    with pytest.raises(ConfigError):
        TelemetryConfig(buffer_samples=-1)


def test_series_repr_and_empty_last():
    series = Series("s", maxlen=4)
    assert series.last() is None
    assert "s" in repr(series)


# ----------------------------------------------------------------------
# Full-system traces and manifests
# ----------------------------------------------------------------------

def run_traced(tmp_path, policy="dap", interval=2_000):
    config = scaled_config(TINY, policy=policy)
    telemetry = TelemetryConfig(probe_interval=interval,
                                trace_dir=str(tmp_path))
    return run_mix(rate_mix("mcf"), config, TINY, telemetry=telemetry,
                   label=f"mcf/{policy}")


def test_jsonl_trace_round_trip(tmp_path):
    result = run_traced(tmp_path)
    trace_path, manifest_path = trace_paths(tmp_path, "mcf/dap")
    assert trace_path.is_file() and manifest_path.is_file()

    records = read_trace(trace_path)
    assert records[0]["t"] == "meta"
    assert records[0]["label"] == "mcf/dap"
    assert "dap.credits.fwb" in records[0]["probes"]

    samples = read_trace(trace_path, kind="sample")
    assert samples, "no probe samples in the trace"
    values = samples[0]["values"]
    # Credit-counter series and channel-utilization series both present.
    for key in ("dap.credits.fwb", "dap.credits.wb", "dap.credits.ifrm",
                "dap.credits.sfrm", "mm.busy_frac", "cache.busy_frac",
                "mm.gbps", "cache.row_hit_rate", "msc.outstanding_reads",
                "msc.read_latency_ewma"):
        assert key in values, f"missing probe {key}"
    # Sample cadence matches the configured interval.
    cycles = [s["cycle"] for s in samples]
    assert all(b - a == 2_000 for a, b in zip(cycles, cycles[1:]))

    decisions = read_trace(trace_path, kind="decision")
    assert decisions, "DAP made no recorded steering decisions"
    first = decisions[0]
    assert first["technique"] in {"fwb", "wb", "ifrm", "sfrm"}
    assert isinstance(first["granted"], bool)
    assert set(first["credits"]) == {"fwb", "wb", "ifrm", "sfrm"}

    # The sidecar manifest agrees with the embedded one.
    manifest = result.extras["manifest"]
    with open(manifest_path, encoding="utf-8") as handle:
        sidecar = json.load(handle)
    assert sidecar["cycles"] == manifest["cycles"]
    assert sidecar["policy"] == "dap"


def test_manifest_in_result_extras(tmp_path):
    result = run_traced(tmp_path)
    manifest = result.manifest
    assert manifest is result.extras["manifest"]
    assert manifest["schema"] == 1
    assert manifest["label"] == "mcf/dap"
    assert manifest["scale"] == "smoke"
    assert manifest["policy"] == "dap"
    assert manifest["policy_describe"].startswith("dap(")
    assert manifest["config"]["policy"] == "dap"
    assert manifest["cycles"] == result.cycles > 0
    assert manifest["events"] > 0
    assert manifest["wall_seconds"] > 0
    assert manifest["events_per_sec"] > 0
    tel = manifest["telemetry"]
    assert tel["samples"] > 0 and tel["probes"] > 0
    assert tel["probe_interval"] == 2_000


def test_untraced_run_still_carries_manifest():
    result = run_mix(rate_mix("mcf"), scaled_config(TINY, policy="baseline"),
                     TINY)
    manifest = result.manifest
    assert manifest["policy"] == "baseline"
    assert manifest["policy_describe"] == "baseline"
    assert manifest["telemetry"] is None
    assert result.extras["sfrm_issued"] >= 0


def test_telemetry_does_not_change_results(tmp_path):
    config = scaled_config(TINY, policy="dap")
    plain = run_mix(rate_mix("mcf"), config, TINY)
    traced = run_traced(tmp_path, interval=1_000)
    assert traced.cycles == plain.cycles
    assert traced.mm_cas == plain.mm_cas
    assert traced.cache_cas == plain.cache_cas
    assert traced.ipc == plain.ipc


#: The dap.* probe set each architecture registers, in order.
DAP_PROBES = {
    ("dap", "sectored"): [
        "dap.credits.fwb", "dap.credits.wb", "dap.credits.ifrm",
        "dap.credits.sfrm",
        "dap.window.a_ms", "dap.window.a_mm", "dap.window.read_misses",
        "dap.window.writes", "dap.window.clean_hits",
        "dap.granted.fwb", "dap.granted.wb", "dap.granted.ifrm",
        "dap.granted.sfrm"],
    ("dap", "alloy"): [
        "dap.credits.ifrm", "dap.credits.wt",
        "dap.window.a_ms", "dap.window.a_mm", "dap.window.read_misses",
        "dap.window.writes", "dap.window.clean_hits",
        "dap.granted.ifrm", "dap.granted.wt", "dap.granted.fill_bypass"],
    ("dap", "edram"): [
        "dap.credits.fwb", "dap.credits.wb", "dap.credits.ifrm",
        "dap.window.a_ms_read", "dap.window.a_ms_write", "dap.window.a_mm",
        "dap.window.read_misses", "dap.window.writes",
        "dap.window.clean_hits",
        "dap.granted.fwb", "dap.granted.wb", "dap.granted.ifrm"],
    ("baseline", "sectored"): [],
    ("sbd", "sectored"): [],
    ("bear", "alloy"): [],
    ("baseline", "edram"): [],
}


@pytest.mark.parametrize("policy,msc_kind", list(DAP_PROBES))
def test_dap_probe_set_per_architecture(policy, msc_kind):
    from types import SimpleNamespace

    from repro.hierarchy.system import SystemConfig, _build_msc
    from repro.obs.probes import attach_system_probes

    config = SystemConfig(policy=policy, msc_kind=msc_kind,
                          msc_capacity_bytes=(4 << 30) // 64)
    msc = _build_msc(Simulator(), config)
    tel = attach_system_probes(Telemetry(msc.sim),
                               SimpleNamespace(msc=msc))
    names = [n for n in tel.probe_names() if n.startswith("dap.")]
    assert names == DAP_PROBES[policy, msc_kind]
    assert msc.policy.observer is tel
    if names:
        # Probes read live state, not a copy taken at registration.
        msc.policy.note_mm_access(3)
        assert tel._probes["dap.window.a_mm"]() == 3


def test_safe_stem_sanitizes_labels():
    assert safe_stem("mcf/dap") == "mcf_dap"
    assert safe_stem("fig06:mix 2") == "fig06_mix_2"
    assert safe_stem("///") == "run"
