"""Tests for the thread-aware IFRM extension (Section IV-A refinement)."""

from repro.backends.base import SimBackend
from repro.core.dap import SectoredTargets
from repro.policies.dap import ThreadAwareDapPolicy


def make_policy(**kwargs):
    return ThreadAwareDapPolicy(b_ms=0.4, b_mm=0.15, window=10**9,
                                epoch_cycles=100, **kwargs)


def classify(policy, heavy_core=0, light_core=1):
    """Feed an epoch of reads: heavy core reads 10x more."""
    for i in range(100):
        policy.on_read(now=i, line=i, core_id=heavy_core)
    for i in range(10):
        policy.on_read(now=i, line=i, core_id=light_core)
    policy.on_read(now=200, line=0, core_id=heavy_core)  # epoch rollover
    return policy


def test_reclassification_marks_heavy_core_insensitive():
    policy = classify(make_policy())
    assert 0 in policy._insensitive
    assert 1 not in policy._insensitive


def test_insensitive_core_gets_ifrm_freely():
    policy = classify(make_policy())
    policy.load_targets(SectoredTargets(0, 0, n_ifrm=2, n_sfrm=0))
    assert policy.force_read_miss(now=300, line=5, core_id=0)


def test_sensitive_core_deferred_when_credits_scarce():
    policy = classify(make_policy())
    # Scarce budget: 2 credits out of a 255 max -> below the 25% floor.
    policy.load_targets(SectoredTargets(0, 0, n_ifrm=2, n_sfrm=0))
    assert not policy.force_read_miss(now=300, line=5, core_id=1)
    assert policy.deferred_ifrm == 1
    # The credit was NOT consumed: the insensitive core can still use it.
    assert policy.force_read_miss(now=300, line=5, core_id=0)


def test_sensitive_core_allowed_when_credits_plentiful():
    policy = classify(make_policy())
    policy.load_targets(SectoredTargets(0, 0, n_ifrm=200, n_sfrm=0))
    assert policy.force_read_miss(now=300, line=5, core_id=1)


def test_unknown_core_treated_normally():
    policy = classify(make_policy())
    policy.load_targets(SectoredTargets(0, 0, n_ifrm=2, n_sfrm=0))
    assert policy.force_read_miss(now=300, line=5, core_id=-1)


def test_no_classification_before_first_epoch():
    policy = make_policy()
    policy.load_targets(SectoredTargets(0, 0, n_ifrm=2, n_sfrm=0))
    # Without history every core is treated normally.
    assert policy.force_read_miss(now=1, line=5, core_id=3)


def test_policy_name_and_registration():
    from repro.hierarchy.system import POLICY_NAMES, SystemConfig

    assert "dap-ta" in POLICY_NAMES
    SystemConfig(policy="dap-ta")  # does not raise


def test_full_system_run_with_dap_ta():
    from repro.hierarchy.cache_hierarchy import SramLevels
    from repro.hierarchy.system import SystemConfig, build_system
    from repro.metrics.stats import collect_result
    from repro.workloads.mixes import heterogeneous_mixes

    mix = heterogeneous_mixes()[20]  # a dissimilar-sensitivity mix
    config = SystemConfig(
        policy="dap-ta", msc_capacity_bytes=(4 << 30) // 64,
        tag_cache_entries=2048,
        sram=SramLevels(l1_bytes=16 * 1024, l2_bytes=64 * 1024,
                        l3_bytes=256 * 1024),
    )
    system = build_system(config, mix.traces(refs_per_core=3000, scale=1 / 64))
    system.msc.warm_many(SimBackend().warm_sets(mix, 1 / 64))
    system.run()
    result = collect_result(system)
    assert result.cycles > 0
    assert all(ipc > 0 for ipc in result.ipc)
