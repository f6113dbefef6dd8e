"""End-to-end integration tests on small full systems."""

from dataclasses import replace

import pytest

from repro import SystemConfig, collect_result
from repro.backends.base import SimBackend
from repro.cache.dbc import DirtyBitCache
from repro.cache.footprint import FootprintPredictor
from repro.errors import ConfigError
from repro.experiments.common import SMOKE, run_mix, scaled_config
from repro.hierarchy.cache_hierarchy import SramLevels
from repro.hierarchy.system import build_system as build
from repro.mem.configs import ddr4_2400
from repro.workloads.mixes import rate_mix

REFS = 3_000


def tiny_config(policy="baseline", **overrides):
    overrides.setdefault("msc_capacity_bytes", (4 << 30) // 64)
    overrides.setdefault("tag_cache_entries", 2048)
    overrides.setdefault(
        "sram", SramLevels(l1_bytes=16 * 1024, l2_bytes=64 * 1024,
                           l3_bytes=256 * 1024))
    return SystemConfig(policy=policy, **overrides)


def run_tiny(policy="baseline", workload="mcf", **overrides):
    mix = rate_mix(workload)
    system = build(tiny_config(policy, **overrides),
                   mix.traces(refs_per_core=REFS, scale=1 / 64))
    system.msc.warm_many(SimBackend().warm_sets(mix, 1 / 64))
    system.run()
    return collect_result(system)


def test_all_cores_complete_and_report_ipc():
    result = run_tiny()
    assert len(result.ipc) == 8
    assert all(ipc > 0 for ipc in result.ipc)
    assert result.cycles > 0
    assert result.total_instructions > 0


def test_run_is_deterministic():
    a = run_tiny()
    b = run_tiny()
    assert a.cycles == b.cycles
    assert a.ipc == b.ipc
    assert a.mm_cas == b.mm_cas and a.cache_cas == b.cache_cas


def test_warmed_run_has_realistic_hit_rate():
    result = run_tiny()
    assert 0.3 < result.served_hit_rate < 1.0  # short traces lower it


def test_mpki_in_plausible_band():
    result = run_tiny(workload="mcf")
    assert 10 < result.mean_mpki < 120


def test_dap_changes_partitioning():
    base = run_tiny("baseline")
    dap = run_tiny("dap")
    assert dap.mm_cas_fraction > base.mm_cas_fraction
    assert sum(dap.dap_decisions.values()) > 0


def test_all_policies_run_to_completion():
    for policy in ("baseline", "dap", "dap-fwb-wb", "sbd", "sbd-wt", "batman"):
        result = run_tiny(policy)
        assert result.cycles > 0, policy


def test_alloy_system_runs():
    result = run_tiny("dap", msc_kind="alloy")
    assert result.cycles > 0
    assert result.served_hit_rate > 0.2


def test_edram_system_runs():
    result = run_tiny("dap", msc_kind="edram", msc_assoc=16,
                      sector_bytes=1024,
                      msc_capacity_bytes=(256 << 20) // 64)
    assert result.cycles > 0


def test_bear_rejected_outside_alloy():
    mix = rate_mix("mcf")
    with pytest.raises(ConfigError):
        build(tiny_config("bear"),  # sectored + bear is invalid
              mix.traces(refs_per_core=10, scale=1 / 64))


def test_mismatched_trace_count_rejected():
    mix = rate_mix("mcf", ways=4)
    with pytest.raises(ConfigError):
        build(tiny_config(), mix.traces(refs_per_core=100, scale=1 / 64))


@pytest.mark.parametrize("field", ["rob_entries", "width", "mshrs"])
@pytest.mark.parametrize("value", [0, -1])
def test_core_without_progress_rejected(field, value):
    # Such a core cannot make progress: with no MSHR it would report
    # IPC 0 having run nothing, and a zero width divides by zero.
    with pytest.raises(ConfigError, match=rf"{field} must be at least 1, "
                                          rf"got {value}"):
        SystemConfig(**{field: value})


# (SystemConfig field, value, the array parameter the error names).
_BAD_GEOMETRY = [
    ("msc_capacity_bytes", -(1 << 20), "capacity_bytes"),
    ("msc_capacity_bytes", 0, "capacity_bytes"),
    ("msc_assoc", 0, "assoc"),
    ("msc_assoc", -4, "assoc"),
    ("sector_bytes", 0, "sector_bytes"),
    ("sector_bytes", -4096, "sector_bytes"),
]


@pytest.mark.parametrize("kind", ["sectored", "alloy", "edram"])
@pytest.mark.parametrize("field, value, param", _BAD_GEOMETRY)
def test_impossible_msc_geometry_rejected(kind, field, value, param):
    # Such a cache has no sets: a negative capacity used to run on a
    # negative set count, and a zero divided by zero.
    config = tiny_config(msc_kind=kind, num_cores=1, **{field: value})
    if kind == "alloy" and param != "capacity_bytes":
        # Alloy is direct-mapped with 64-byte blocks and reads neither.
        assert build(config, [()]).msc.array.num_sets > 0
        return
    with pytest.raises(ConfigError,
                       match=rf"{param} must be positive, not {value}$"):
        build(config, [()])


# (constructor, the message's end): each names the parameter and value.
_BAD_MEMORY_SIDE = [
    (lambda: replace(ddr4_2400(), device_ghz=0),
     "device_ghz must be positive, not 0"),
    (lambda: replace(ddr4_2400(), device_ghz=-1.2),
     "device_ghz must be positive, not -1.2"),
    (lambda: replace(ddr4_2400(), num_channels=0),
     "num_channels must be positive, not 0"),
    (lambda: replace(ddr4_2400(), banks_per_channel=-16),
     "banks_per_channel must be positive, not -16"),
    (lambda: replace(ddr4_2400(), row_bytes=32),
     r"row_bytes must be at least 64 \(one line\), not 32"),
    (lambda: FootprintPredictor(0), "capacity must be positive, not 0"),
    (lambda: DirtyBitCache(group_sets=0),
     "group_sets must be positive, not 0"),
]


@pytest.mark.parametrize("make, message", _BAD_MEMORY_SIDE)
def test_impossible_memory_side_parameters_rejected(make, message):
    # Each used to build and fail later: a zero clock divided by zero in
    # peak_gbps, a row shorter than a line was caught only when a
    # channel was built, a zero-entry footprint table raised
    # StopIteration on its first record, and zero-set DBC groups
    # divided by zero.
    with pytest.raises(ConfigError, match=rf"{message}$"):
        make()


def test_config_key_stability():
    a, b = tiny_config(), tiny_config()
    assert a.key() == b.key()
    c = tiny_config(msc_capacity_bytes=(2 << 30) // 64)
    assert c.key() != a.key()


def test_run_mix_helper_and_scaled_config():
    mix = rate_mix("gcc.expr")
    config = scaled_config(SMOKE, policy="baseline")
    # Shorten the run by reusing the helper at a tiny ref count.
    from dataclasses import replace as dreplace

    scale = dreplace(SMOKE, refs_per_core=REFS)
    result = run_mix(mix, config, scale)
    assert result.cycles > 0
    assert result.policy == "baseline"


def test_streaming_kernel_can_saturate_combined_bandwidth():
    """Section V: the cores must be able to demand the combined cache +
    memory bandwidth. A pure-stream workload should push total delivered
    bandwidth well past what main memory alone could give."""
    result = run_tiny(workload="parboil-lbm")
    assert result.delivered_gbps > 25  # far beyond one workload's MM share
