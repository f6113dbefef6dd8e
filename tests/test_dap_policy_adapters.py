"""Tests for the DAP steering policies' hook wiring."""

import pytest

from repro.core.dap import SectoredTargets
from repro.policies.base import BaselinePolicy, SteeringPolicy
from repro.policies.dap import (
    DapAlloyPolicy,
    DapEdramPolicy,
    DapSectoredPolicy,
)


def make_sectored(**kwargs):
    return DapSectoredPolicy(b_ms=0.4, b_mm=0.15, window=10**9, **kwargs)


def test_baseline_policy_never_partitions():
    policy = BaselinePolicy()
    assert not policy.bypass_fill(0, 1)
    assert not policy.bypass_write(0, 1)
    assert not policy.force_read_miss(0, 1)
    assert not policy.speculative_read(0, 1)
    assert not policy.write_through(0, 1)
    assert not policy.steer_clean_read(0, 1)
    # Recording hooks are harmless no-ops.
    policy.note_ms_access()
    policy.note_mm_access()
    policy.note_read_miss()
    policy.note_write()
    policy.note_clean_hit()
    assert policy.describe() == "baseline"


def test_steering_policy_defaults_are_inherited():
    class Custom(SteeringPolicy):
        name = "custom"

    policy = Custom()
    assert not policy.bypass_fill(0, 1)
    assert policy.describe() == "custom"


def test_sectored_adapter_delegates_notes_to_engine():
    policy = make_sectored()
    policy.note_ms_access(3)
    policy.note_mm_access(2)
    policy.note_read_miss()
    policy.note_write()
    policy.note_clean_hit()
    stats = policy.stats
    assert stats.a_ms == 3
    assert stats.a_mm == 2
    assert stats.read_misses == 1
    assert stats.writes == 1
    assert stats.clean_hits == 1


def test_sectored_adapter_decisions_consume_engine_credits():
    policy = make_sectored()
    policy.load_targets(SectoredTargets(1, 1, 1, 1))
    assert policy.bypass_fill(0, 1)
    assert not policy.bypass_fill(0, 2)       # exhausted
    assert policy.bypass_write(0, 3)
    assert policy.force_read_miss(0, 4)
    assert policy.speculative_read(0, 5)
    assert policy.describe().startswith("dap(")


def test_sectored_disable_flags():
    policy = make_sectored(enable_ifrm=False, enable_wb=False)
    policy.load_targets(SectoredTargets(5, 5, 5, 5))
    assert not policy.force_read_miss(0, 1)
    assert not policy.bypass_write(0, 1)
    assert policy.bypass_fill(0, 1)  # FWB unaffected


def test_sfrm_disabled_adapter():
    policy = DapSectoredPolicy(b_ms=0.4, b_mm=0.15, window=10**9,
                               enable_sfrm=False)
    policy.load_targets(SectoredTargets(0, 0, 0, 5))
    assert not policy.speculative_read(0, 1)


def test_alloy_adapter_round_trip():
    policy = DapAlloyPolicy(b_ms=0.4, b_mm=0.15, window=10**9)
    policy.note_ms_access(20)
    policy.note_mm_access(1)
    policy.note_clean_hit()
    assert policy.stats.a_ms == 20
    policy._ifrm.load(5)
    policy._wt.load(2)
    assert policy.force_read_miss(0, 1)
    assert policy.write_through(0, 1)


def test_edram_adapter_round_trip():
    policy = DapEdramPolicy(b_ms=0.2, b_mm=0.15, window=10**9)
    policy.note_ms_read(4)
    policy.note_ms_write(3)
    policy.note_mm_access(2)
    policy.note_read_miss()
    policy.note_write()
    policy.note_clean_hit()
    stats = policy.stats
    assert (stats.a_ms_read, stats.a_ms_write, stats.a_mm) == (4, 3, 2)
    policy._fwb.load(1)
    policy._wb.load(1)
    policy._ifrm.load(1)
    assert policy.bypass_fill(0, 1)
    assert policy.bypass_write(0, 1)
    assert policy.force_read_miss(0, 1)


def test_policy_bind_sets_controller():
    policy = make_sectored()

    class FakeController:
        pass

    ctrl = FakeController()
    policy.bind(ctrl)
    assert policy.controller is ctrl


@pytest.mark.parametrize("policy_name", [
    "baseline", "dap", "dap-ta", "dap-fwb", "dap-fwb-wb", "dap-no-sfrm",
    "sbd", "sbd-wt", "batman",
])
def test_policy_factory_produces_each_policy(policy_name):
    from repro.engine import Simulator
    from repro.hierarchy.system import SystemConfig, _build_msc

    config = SystemConfig(policy=policy_name,
                          msc_capacity_bytes=(4 << 30) // 64)
    msc = _build_msc(Simulator(), config)
    assert msc.policy is not None
    assert msc.policy.controller is msc


def test_bear_factory_on_alloy():
    from repro.engine import Simulator
    from repro.hierarchy.system import SystemConfig, _build_msc

    config = SystemConfig(policy="bear", msc_kind="alloy",
                          msc_capacity_bytes=(4 << 30) // 64)
    msc = _build_msc(Simulator(), config)
    assert msc.policy.name == "bear"
