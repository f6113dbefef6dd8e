"""``repro analyze`` CLI smoke tests: report/compare subcommands,
exit codes, and the crash-safety path of the trace writer."""

from dataclasses import replace

import pytest

from repro.experiments.common import SMOKE, run_mix, scaled_config
from repro.hierarchy.system import System
from repro.obs.cli import main
from repro.obs.telemetry import TelemetryConfig
from repro.obs.trace import TraceWriter, iter_trace, write_manifest
from repro.workloads.mixes import rate_mix

BW = "cache=102.4,mm=38.4"


def write_run(root, stem, gbps_pairs, policy="dap"):
    with TraceWriter(root / f"{stem}.trace.jsonl") as writer:
        writer.write_meta(stem, ["cache.gbps", "mm.gbps"], 1000)
        for i, (cache, mm) in enumerate(gbps_pairs):
            writer.write_sample(1000 * (i + 1),
                                {"cache.gbps": cache, "mm.gbps": mm})
    write_manifest(root / f"{stem}.manifest.json", {
        "schema": 1, "label": stem, "scale": "smoke", "policy": policy,
        "cycles": 1000 * len(gbps_pairs), "events": 5000,
        "wall_seconds": 0.5, "config": {"policy": policy},
        "git_sha": None, "telemetry": None,
    })


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------

def test_report_markdown_to_stdout(tmp_path, capsys):
    write_run(tmp_path, "mcf_dap", [(72.0, 28.0)] * 4)
    assert main(["report", str(tmp_path), "--bandwidths", BW]) == 0
    out = capsys.readouterr().out
    assert "Access partitioning" in out
    assert "0.7273" in out  # optimal_fractions([102.4, 38.4])[0]
    assert "mcf_dap" in out


def test_report_csv_to_file(tmp_path, capsys):
    write_run(tmp_path, "run", [(70.0, 30.0)] * 3)
    out_file = tmp_path / "out" / "report.csv"
    assert main(["report", str(tmp_path), "--format", "csv",
                 "--out", str(out_file), "--bandwidths", BW]) == 0
    rows = out_file.read_text().strip().splitlines()
    assert rows[0].startswith("cycle,")
    assert len(rows) == 1 + 3  # header + one row per window


def test_report_missing_path_exits_2(capsys):
    assert main(["report", "/nonexistent/trace.jsonl"]) == 2
    assert "error:" in capsys.readouterr().err


def test_report_bad_bandwidths_exits_2(tmp_path, capsys):
    write_run(tmp_path, "run", [(1.0, 1.0)])
    assert main(["report", str(tmp_path), "--bandwidths", "junk"]) == 2


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def test_compare_identical_dirs_exit_0(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        write_run(d, "mcf_dap", [(72.0, 28.0)] * 4)
    assert main(["compare", str(a), str(b)]) == 0
    assert "overall: ok" in capsys.readouterr().out


def test_compare_regression_exit_1_and_no_fail(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    write_run(a, "run", [(70.0, 30.0)] * 4)
    # Candidate simulates 2x the cycles: the cycles gate must trip.
    write_run(b, "run", [(70.0, 30.0)] * 8)
    assert main(["compare", str(a), str(b)]) == 1
    assert "REGRESSED" in capsys.readouterr().out
    assert main(["compare", str(a), str(b), "--no-fail"]) == 0
    # A loose explicit override un-trips the gate.
    assert main(["compare", str(a), str(b), "--threshold",
                 "cycles=2.0"]) == 0


def test_compare_single_files(tmp_path, capsys):
    write_run(tmp_path, "a", [(70.0, 30.0)] * 3)
    write_run(tmp_path, "b", [(70.0, 30.0)] * 3)
    assert main(["compare", str(tmp_path / "a.trace.jsonl"),
                 str(tmp_path / "b.trace.jsonl")]) == 0
    assert "verdict: ok" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Crash safety: traces must survive a run that dies mid-simulation
# ----------------------------------------------------------------------

def test_trace_writer_flushes_before_close(tmp_path):
    path = tmp_path / "t.trace.jsonl"
    writer = TraceWriter(path, flush_every=4)
    writer.write_meta("t", ["mm.gbps"], 100)
    for i in range(8):
        writer.write_sample(100 * (i + 1), {"mm.gbps": 1.0})
    # Never closed — but the periodic flush makes records visible.
    visible = list(iter_trace(path))
    assert len(visible) >= 5  # meta + at least the first flush batch
    writer.close()
    assert len(list(iter_trace(path))) == 9


def test_run_mix_closes_trace_on_crash(tmp_path, monkeypatch):
    """A cell that dies mid-run must still leave a readable trace."""
    scale = replace(SMOKE, name="smoke", refs_per_core=2_000)
    config = scaled_config(scale, policy="dap")

    real_run = System.run

    def exploding_run(self):
        real_run(self)
        raise RuntimeError("simulated crash after the run loop")

    monkeypatch.setattr(System, "run", exploding_run)
    telemetry = TelemetryConfig(probe_interval=500, trace_dir=str(tmp_path))
    with pytest.raises(RuntimeError):
        run_mix(rate_mix("mcf"), config, scale, label="crash",
                telemetry=telemetry)
    (trace_path,) = tmp_path.rglob("*.trace.jsonl")
    records = list(iter_trace(trace_path))
    kinds = {r["t"] for r in records}
    assert "meta" in kinds and "sample" in kinds
