"""Tests for the run-report, trace-file, and planner utilities."""

from fractions import Fraction

import pytest

from repro.backends.base import SimBackend
from repro.core.planner import PartitionPlan, plan
from repro.errors import ConfigError, WorkloadError
from repro.hierarchy.cache_hierarchy import SramLevels
from repro.hierarchy.system import SystemConfig, build_system
from repro.metrics.report import run_report
from repro.workloads.mixes import rate_mix
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace
from repro.workloads.tracefile import read_trace, trace_summary, write_trace


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------

def test_plan_default_platform():
    p = plan(102.4, 38.4)
    assert p.k_exact == pytest.approx(8 / 3)
    assert p.k_hardware == Fraction(11, 4)
    assert p.optimal_mm_fraction == pytest.approx(0.2727, abs=1e-3)
    assert p.max_bandwidth_gbps == pytest.approx(140.8)
    # B_MS$ * W = 0.4 * 0.75 * 64 = 19.2 accesses per window.
    assert p.cache_accesses_per_window == pytest.approx(19.2)
    assert p.mm_accesses_per_window == pytest.approx(7.2)
    assert p.breakeven_hit_rate == pytest.approx(0.625)


def test_plan_describe_mentions_key_constants():
    text = plan(102.4, 38.4).describe()
    assert "11/4" in text
    assert "140.8" in text


def test_plan_validation():
    with pytest.raises(ConfigError):
        plan(0, 38.4)
    with pytest.raises(ConfigError):
        PartitionPlan(b_cache_gbps=100, b_mm_gbps=40, window=0,
                      efficiency=0.75, cpu_ghz=4.0)
    with pytest.raises(ConfigError):
        plan(100, 40, efficiency=2.0)


def test_planner_cli(capsys):
    from repro.core.planner import main

    assert main(["102.4", "38.4"]) == 0
    out = capsys.readouterr().out
    assert "optimal split" in out


# ----------------------------------------------------------------------
# Trace files
# ----------------------------------------------------------------------

def test_trace_roundtrip(tmp_path):
    profile = get_profile("mcf")
    entries = list(generate_trace(profile, num_refs=500, scale=1 / 64))
    path = str(tmp_path / "mcf.trace")
    assert write_trace(path, entries, header="mcf sample") == 500
    back = list(read_trace(path))
    assert back == entries


def test_trace_roundtrip_gzip(tmp_path):
    entries = [(3, False, 100), (0, True, 0xABCDEF)]
    path = str(tmp_path / "t.trace.gz")
    write_trace(path, entries)
    assert list(read_trace(path)) == entries


def test_trace_summary(tmp_path):
    entries = [(9, False, 1), (9, True, 2), (9, False, 1)]
    path = str(tmp_path / "s.trace")
    write_trace(path, entries)
    summary = trace_summary(path)
    assert summary["refs"] == 3
    assert summary["writes"] == 1
    assert summary["footprint_lines"] == 2
    assert summary["instructions"] == 30
    assert summary["mem_per_kilo"] == pytest.approx(100.0)


def test_trace_read_errors(tmp_path):
    with pytest.raises(WorkloadError):
        list(read_trace(str(tmp_path / "missing.trace")))
    bad = tmp_path / "bad.trace"
    bad.write_text("1 X ff\n")
    with pytest.raises(WorkloadError):
        list(read_trace(str(bad)))
    bad.write_text("-1 R ff\n")
    with pytest.raises(WorkloadError):
        list(read_trace(str(bad)))
    bad.write_text("zz R ff\n")
    with pytest.raises(WorkloadError):
        list(read_trace(str(bad)))


def test_trace_comments_and_blanks_skipped(tmp_path):
    path = tmp_path / "c.trace"
    path.write_text("# header\n\n5 R a\n")
    assert list(read_trace(str(path))) == [(5, False, 10)]


def test_loaded_trace_drives_a_system(tmp_path):
    profile = get_profile("gcc.expr")
    path = str(tmp_path / "w.trace")
    write_trace(path, generate_trace(profile, num_refs=800, scale=1 / 64))
    config = SystemConfig(
        num_cores=1, msc_capacity_bytes=(4 << 30) // 64,
        tag_cache_entries=2048,
        sram=SramLevels(l1_bytes=16 * 1024, l2_bytes=64 * 1024,
                        l3_bytes=256 * 1024),
    )
    system = build_system(config, [read_trace(path)])
    system.run()
    assert system.cores[0].done
    assert system.cores[0].ipc > 0


def test_trace_file_with_long_gaps_drives_a_system(tmp_path):
    # Compute gaps past a stored trace's 16-bit gap column must still
    # run. The figures were recorded with a core that read the tuples
    # unpacked, so packing must not move them.
    entries = list(generate_trace(get_profile("gcc.expr"), num_refs=400,
                                  scale=1 / 64))
    entries[200] = (70_000, False, entries[200][2])
    entries[300] = (123_456, True, entries[300][2])
    path = str(tmp_path / "long.trace")
    write_trace(path, entries)
    config = SystemConfig(
        num_cores=1, msc_capacity_bytes=(4 << 30) // 64,
        tag_cache_entries=2048,
        sram=SramLevels(l1_bytes=16 * 1024, l2_bytes=64 * 1024,
                        l3_bytes=256 * 1024),
    )
    system = build_system(config, [read_trace(path)])
    system.run()
    core = system.cores[0]
    assert (core.instr_count, core.finish_cycle) == (194_687, 50_693)
    assert (core.loads, core.stores, core.l3_miss_loads) == (235, 165, 134)
    assert system.sim.events_dispatched == 1_456


# ----------------------------------------------------------------------
# Run report
# ----------------------------------------------------------------------

def test_run_report_sections():
    mix = rate_mix("mcf", ways=2)
    config = SystemConfig(
        num_cores=2, policy="dap", msc_capacity_bytes=(4 << 30) // 64,
        tag_cache_entries=2048,
        sram=SramLevels(l1_bytes=16 * 1024, l2_bytes=64 * 1024,
                        l3_bytes=256 * 1024),
    )
    system = build_system(config, mix.traces(refs_per_core=2500, scale=1 / 64))
    system.msc.warm_many(SimBackend().warm_sets(mix, 1 / 64))
    system.run()
    report = run_report(system)
    assert "run report" in report
    assert "cores:" in report
    assert "memory-side cache:" in report
    assert "main-memory" in report
    assert "dap decisions" in report
    assert "demand_read" in report
