"""The offline trace analyzer: per-window fraction math against
hand-built traces, partition gap vs the bandwidth-model oracle,
truncated-trace tolerance, downsampling, and report rendering."""

import json
from dataclasses import replace

import pytest

from repro.core.bandwidth_model import (
    delivered_bandwidth,
    max_delivered_bandwidth,
    optimal_fractions,
)
from repro.errors import ConfigError
from repro.experiments.common import SMOKE, run_mix, scaled_config
from repro.obs.analysis import (
    analyze_trace,
    bandwidths_from_manifest,
    render_csv,
    render_markdown,
    sparkline,
)
from repro.obs.telemetry import TelemetryConfig
from repro.obs.trace import TraceWriter, iter_trace, read_trace, trace_paths
from repro.workloads.mixes import rate_mix

TINY = replace(SMOKE, name="smoke", refs_per_core=3_000)

#: The paper's default platform: 102.4 GB/s HBM cache, 38.4 GB/s DDR4.
BW = {"cache": 102.4, "mm": 38.4}


def write_synthetic_trace(path, samples, probes=None, interval=1000,
                          decisions=()):
    """A hand-built trace: meta, then (cycle, values) samples, then
    decision records."""
    probes = probes or sorted({k for _, values in samples for k in values})
    with TraceWriter(path) as writer:
        writer.write_meta("synthetic", list(probes), interval)
        for cycle, values in samples:
            writer.write_sample(cycle, values)
        for record in decisions:
            writer.write_decision(record)
    return path


# ----------------------------------------------------------------------
# Per-window fraction math on hand-built traces
# ----------------------------------------------------------------------

def test_measured_fractions_per_window(tmp_path):
    path = write_synthetic_trace(tmp_path / "a.trace.jsonl", [
        (1000, {"cache.gbps": 75.0, "mm.gbps": 25.0}),
        (2000, {"cache.gbps": 40.0, "mm.gbps": 60.0}),
        (3000, {"cache.gbps": 0.0, "mm.gbps": 0.0}),   # idle window
    ])
    analysis = analyze_trace(path, bandwidths=BW)
    assert analysis.sources == ("cache", "mm")
    assert len(analysis.windows) == 3
    assert analysis.windows[0].fractions == {"cache": 0.75, "mm": 0.25}
    assert analysis.windows[1].fractions == {"cache": 0.40, "mm": 0.60}
    assert analysis.windows[2].fractions is None
    assert analysis.windows[2].partition_gap is None
    # Traffic-weighted overall shares: (75+40)/200 and (25+60)/200.
    measured = analysis.measured_fractions()
    assert measured["cache"] == pytest.approx(115 / 200)
    assert measured["mm"] == pytest.approx(85 / 200)


def test_optimal_matches_bandwidth_model_exactly(tmp_path):
    path = write_synthetic_trace(tmp_path / "a.trace.jsonl", [
        (1000, {"cache.gbps": 10.0, "mm.gbps": 10.0}),
    ])
    analysis = analyze_trace(path, bandwidths=BW)
    expected = optimal_fractions([BW["cache"], BW["mm"]])
    assert [analysis.optimal["cache"], analysis.optimal["mm"]] == expected


def test_partition_gap_and_loss_against_oracle(tmp_path):
    # A window exactly at the optimum: zero gap, zero loss.
    opt = optimal_fractions([BW["cache"], BW["mm"]])
    path = write_synthetic_trace(tmp_path / "opt.trace.jsonl", [
        (1000, {"cache.gbps": 100 * opt[0], "mm.gbps": 100 * opt[1]}),
    ])
    analysis = analyze_trace(path, bandwidths=BW)
    window = analysis.windows[0]
    assert window.partition_gap == pytest.approx(0.0, abs=1e-12)
    assert window.loss_gbps == pytest.approx(0.0, abs=1e-9)

    # A skewed window: gap is the TV distance, loss matches Eq. 2.
    path = write_synthetic_trace(tmp_path / "skew.trace.jsonl", [
        (1000, {"cache.gbps": 90.0, "mm.gbps": 10.0}),
    ])
    window = analyze_trace(path, bandwidths=BW).windows[0]
    assert window.fractions == {"cache": 0.9, "mm": 0.1}
    assert window.partition_gap == pytest.approx(abs(0.9 - opt[0]))
    oracle = (max_delivered_bandwidth([BW["cache"], BW["mm"]])
              - delivered_bandwidth([BW["cache"], BW["mm"]], [0.9, 0.1]))
    assert window.loss_gbps == pytest.approx(oracle)


def test_grant_deltas_and_decision_accounting(tmp_path):
    probes = ["cache.gbps", "mm.gbps", "dap.granted.fwb"]
    path = write_synthetic_trace(
        tmp_path / "d.trace.jsonl",
        [
            (1000, {"cache.gbps": 1.0, "mm.gbps": 1.0,
                    "dap.granted.fwb": 5}),
            (2000, {"cache.gbps": 1.0, "mm.gbps": 1.0,
                    "dap.granted.fwb": 12}),
        ],
        probes=probes,
        decisions=[
            {"cycle": 10, "line": 1, "technique": "fwb", "granted": True,
             "credits": {"fwb": 4.0}},
            {"cycle": 20, "line": 2, "technique": "fwb", "granted": False,
             "credits": {"fwb": 0.0}},
            {"cycle": 30, "line": 3, "technique": "wb", "granted": True,
             "credits": {"wb": 2.0}},
        ],
    )
    analysis = analyze_trace(path, bandwidths=BW)
    assert analysis.windows[0].grants == {"fwb": 5}
    assert analysis.windows[1].grants == {"fwb": 7}
    assert analysis.decisions["fwb"] == {"granted": 1, "denied": 1}
    assert analysis.decisions["wb"] == {"granted": 1, "denied": 0}
    assert analysis.grant_rates() == {"fwb": 0.5, "wb": 1.0}
    assert analysis.credits["fwb"]["mean"] == pytest.approx(2.0)
    assert analysis.credits["fwb"]["exhausted_frac"] == pytest.approx(0.5)


def test_missing_bandwidth_source_rejected(tmp_path):
    path = write_synthetic_trace(tmp_path / "a.trace.jsonl", [
        (1000, {"cache.gbps": 1.0, "mm.gbps": 1.0}),
    ])
    with pytest.raises(ConfigError):
        analyze_trace(path, bandwidths={"cache": 102.4})


def test_analysis_without_bandwidths_still_measures(tmp_path):
    path = write_synthetic_trace(tmp_path / "a.trace.jsonl", [
        (1000, {"cache.gbps": 30.0, "mm.gbps": 10.0}),
    ])
    analysis = analyze_trace(path)  # no manifest, no bandwidths
    assert analysis.optimal is None
    assert analysis.windows[0].fractions == {"cache": 0.75, "mm": 0.25}
    assert analysis.windows[0].partition_gap is None


# ----------------------------------------------------------------------
# Constant-memory downsampling
# ----------------------------------------------------------------------

def test_windows_downsample_past_bound(tmp_path):
    samples = [(1000 * (i + 1), {"cache.gbps": float(i % 7),
                                 "mm.gbps": 1.0}) for i in range(100)]
    path = write_synthetic_trace(tmp_path / "long.trace.jsonl", samples)
    analysis = analyze_trace(path, bandwidths=BW, max_windows=16)
    assert analysis.samples == 100
    assert len(analysis.windows) <= 17
    # Weights cover every raw sample exactly once.
    assert sum(w.weight for w in analysis.windows) == 100
    # Cycles stay monotonic after merging.
    cycles = [w.cycle for w in analysis.windows]
    assert cycles == sorted(cycles)


# ----------------------------------------------------------------------
# Truncated / corrupt traces
# ----------------------------------------------------------------------

def test_truncated_final_line_tolerated(tmp_path):
    path = write_synthetic_trace(tmp_path / "t.trace.jsonl", [
        (1000, {"cache.gbps": 1.0, "mm.gbps": 1.0}),
        (2000, {"cache.gbps": 2.0, "mm.gbps": 2.0}),
    ])
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"t": "sample", "cycle": 3000, "values": {"cache.g')
    records = read_trace(path)
    assert [r["t"] for r in records] == ["meta", "sample", "sample"]
    assert len(list(iter_trace(path, kind="sample"))) == 2
    analysis = analyze_trace(path, bandwidths=BW)
    assert analysis.samples == 2


def test_mid_file_corruption_still_raises(tmp_path):
    path = tmp_path / "bad.trace.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"t": "meta", "probes": [], "probe_interval": 1}\n')
        handle.write("{not json at all\n")
        handle.write('{"t": "sample", "cycle": 1, "values": {}}\n')
    with pytest.raises(json.JSONDecodeError):
        read_trace(path)


def test_torn_final_line_is_counted_not_silent(tmp_path):
    path = write_synthetic_trace(tmp_path / "t.trace.jsonl", [
        (1000, {"cache.gbps": 1.0, "mm.gbps": 1.0}),
        (2000, {"cache.gbps": 2.0, "mm.gbps": 2.0}),
    ])
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"t": "sample", "cycle": 3000, "values": {"torn')

    # iter_trace surfaces the drop via its stats dict.
    stats: dict = {}
    assert len(list(iter_trace(path, stats=stats))) == 3
    assert stats["torn_lines"] == 1

    # analyze_trace carries it into the report's metrics and markdown.
    analysis = analyze_trace(path, bandwidths=BW)
    assert analysis.torn_lines == 1
    assert analysis.metrics()["torn_lines"] == 1.0
    assert "torn final line" in render_markdown(analysis)

    # An intact trace reports zero and renders no warning.
    clean = analyze_trace(write_synthetic_trace(
        tmp_path / "clean.trace.jsonl",
        [(1000, {"cache.gbps": 1.0, "mm.gbps": 1.0})]), bandwidths=BW)
    assert clean.torn_lines == 0
    assert "torn" not in render_markdown(clean)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def test_sparkline_shape_and_gaps():
    assert sparkline([]) == ""
    assert sparkline([1.0, None, 3.0]) == "▁ █"
    assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"
    long = sparkline(list(range(1000)), width=40)
    assert len(long) == 40
    assert long[0] == "▁" and long[-1] == "█"


def test_render_markdown_reports_optimum(tmp_path):
    path = write_synthetic_trace(tmp_path / "a.trace.jsonl", [
        (1000, {"cache.gbps": 75.0, "mm.gbps": 25.0}),
        (2000, {"cache.gbps": 60.0, "mm.gbps": 40.0}),
    ])
    text = render_markdown(analyze_trace(path, bandwidths=BW))
    opt = optimal_fractions([102.4, 38.4])
    assert f"{opt[0]:.4f}" in text      # optimal cache fraction
    assert f"{opt[1]:.4f}" in text      # optimal mm fraction
    assert "mean partition gap" in text
    assert "frac.cache" in text


def test_render_csv_has_one_row_per_window(tmp_path):
    path = write_synthetic_trace(tmp_path / "a.trace.jsonl", [
        (1000, {"cache.gbps": 75.0, "mm.gbps": 25.0}),
        (2000, {"cache.gbps": 60.0, "mm.gbps": 40.0}),
    ])
    text = render_csv(analyze_trace(path, bandwidths=BW))
    lines = text.strip().splitlines()
    assert len(lines) == 3  # header + 2 windows
    header = lines[0].split(",")
    assert "fraction.cache" in header and "optimal.mm" in header
    assert "partition_gap" in header and "loss_gbps" in header


# ----------------------------------------------------------------------
# Against a real instrumented run
# ----------------------------------------------------------------------

def test_analyze_real_traced_run(tmp_path):
    config = scaled_config(TINY, policy="dap")
    telemetry = TelemetryConfig(probe_interval=2_000,
                                trace_dir=str(tmp_path))
    result = run_mix(rate_mix("mcf"), config, TINY, telemetry=telemetry,
                     label="mcf/dap")
    trace_path, _ = trace_paths(tmp_path, "mcf/dap")
    analysis = analyze_trace(trace_path)

    # Bandwidths reconstructed from the manifest match the platform.
    assert analysis.bandwidths["cache"] == pytest.approx(102.4)
    assert analysis.bandwidths["mm"] == pytest.approx(38.4)
    expected = optimal_fractions([102.4, 38.4])
    assert analysis.optimal["cache"] == expected[0]
    assert analysis.optimal["mm"] == expected[1]

    assert analysis.samples > 0 and analysis.windows
    assert analysis.decision_records > 0
    measured = analysis.measured_fractions()
    assert measured and 0 < measured["mm"] < 1

    # The analyzer's overall fractions agree with the run's own
    # device-level accounting (RunResult extras, same CAS underlying).
    assert measured["mm"] == pytest.approx(
        result.extras["mm_access_fraction"], abs=0.05)

    metrics = analysis.metrics()
    assert metrics["cycles"] == result.cycles
    assert "mean_partition_gap" in metrics
    assert metrics["mean_delivered_gbps"] > 0


def test_bandwidths_from_manifest_edram():
    manifest = {"config": {
        "msc_kind": "edram",
        "mm_dram": {
            "name": "DDR4-2400", "num_channels": 2, "device_ghz": 1.2,
            "banks_per_channel": 16, "row_bytes": 2048,
            "timing": {"t_cas": 15, "t_rcd": 15, "t_rp": 15, "t_ras": 39,
                       "burst": 4, "turnaround": 8, "extra_io": 10,
                       "t_refi": 0, "t_rfc": 0},
        },
    }}
    bw = bandwidths_from_manifest(manifest)
    assert bw["cache"] == pytest.approx(51.2)
    assert bw["cache_wr"] == pytest.approx(51.2)
    assert bw["mm"] == pytest.approx(38.4)
