"""The shared DAP window/credit engine, pinned across all three
architectures: ``describe()`` strings, decision-key order, window
rollover and constructor validation."""

import re

import pytest

from repro.engine import Simulator
from repro.errors import ConfigError
from repro.hierarchy.system import SystemConfig, _build_msc
from repro.policies.dap import DapAlloyPolicy, DapEdramPolicy, DapSectoredPolicy

#: (policy, msc_kind) -> the describe() string after one granted
#: decision. The sectored string keeps a known quirk: the sfrm/ifrm/wb
#: enable flags are overwritten by the decision counts of the same name.
DESCRIBE = {
    ("dap", "sectored"):
        "dap(window=64, efficiency=0.75, sfrm=0, ifrm=0, wb=0, fwb=1)",
    ("dap-ta", "sectored"):
        "dap-ta(window=64, efficiency=0.75, sfrm=0, ifrm=0, wb=0, fwb=1)",
    ("dap-fwb", "sectored"):
        "dap(window=64, efficiency=0.75, sfrm=0, ifrm=0, wb=0, fwb=1)",
    ("dap-fwb-wb", "sectored"):
        "dap(window=64, efficiency=0.75, sfrm=0, ifrm=0, wb=0, fwb=1)",
    ("dap-no-sfrm", "sectored"):
        "dap(window=64, efficiency=0.75, sfrm=0, ifrm=0, wb=0, fwb=1)",
    ("dap", "alloy"):
        "dap-alloy(window=64, k=7/4, ifrm=1, wt=0, fill_bypass=0)",
    ("dap", "edram"):
        "dap-edram(window=64, k=5/4, fwb=0, wb=0, ifrm=1)",
}

W = 64

DECISION_KEYS = {
    "sectored": ["fwb", "wb", "ifrm", "sfrm"],
    "alloy": ["ifrm", "wt", "fill_bypass"],
    "edram": ["fwb", "wb", "ifrm"],
}


def build_policy(policy: str, msc_kind: str):
    config = SystemConfig(policy=policy, msc_kind=msc_kind,
                          msc_capacity_bytes=(4 << 30) // 64)
    return _build_msc(Simulator(), config).policy


def note_heavy(policy, msc_kind: str) -> None:
    """One window of demand that over-subscribes the cache."""
    if msc_kind == "edram":
        policy.note_ms_read(40)
    else:
        policy.note_ms_access(40)
    policy.note_mm_access(1)
    for _ in range(20):
        policy.note_read_miss()
        policy.note_clean_hit()


def query(policy, msc_kind: str, now: int) -> bool:
    """The architecture's first technique query (FWB, else IFRM)."""
    if msc_kind == "sectored":
        return policy.bypass_fill(now, 0)
    return policy.force_read_miss(now, 0)


@pytest.mark.parametrize("policy,msc_kind", sorted(DESCRIBE))
def test_describe_and_decision_keys_are_pinned(policy, msc_kind):
    dap = build_policy(policy, msc_kind)
    assert list(dap.decisions) == DECISION_KEYS[msc_kind]
    note_heavy(dap, msc_kind)
    assert query(dap, msc_kind, W + 1)
    assert dap.describe() == DESCRIBE[policy, msc_kind]
    assert list(dap.decisions) == DECISION_KEYS[msc_kind]


# ----------------------------------------------------------------------
# Window rollover and constructor validation, on the policies directly
# ----------------------------------------------------------------------

#: One policy per architecture on the default platform.
POLICIES = {
    "sectored": lambda **kw: DapSectoredPolicy(b_ms=0.4, b_mm=0.15, **kw),
    "alloy": lambda **kw: DapAlloyPolicy(b_ms=0.4, b_mm=0.15, **kw),
    "edram": lambda **kw: DapEdramPolicy(b_ms=0.2, b_mm=0.15, **kw),
}


@pytest.mark.parametrize("msc_kind", sorted(POLICIES))
def test_window_rolls_only_on_queries(msc_kind):
    make = POLICIES[msc_kind]
    fresh = make()
    assert not query(fresh, msc_kind, W + 1)  # one empty window

    # An idle gap of two or more windows solves from empty stats.
    for gap in (2, 5):
        stale = make()
        note_heavy(stale, msc_kind)
        assert not query(stale, msc_kind, gap * W + 1)
        assert stale.credit_state() == fresh.credit_state()
        assert stale.stats == stale.stats_type()

    # Demand noted after a boundary but before the next query (tick
    # included) lands in the previous window's solve.
    late = make()
    assert not query(late, msc_kind, 1)
    late.tick(W + 1)
    note_heavy(late, msc_kind)
    assert late.stats.a_mm == 1
    assert query(late, msc_kind, W + 1)
    assert late.stats == late.stats_type()


@pytest.mark.parametrize("flag,method", [
    ("enable_sfrm", "speculative_read"),
    ("enable_ifrm", "force_read_miss"),
    ("enable_wb", "bypass_write"),
])
def test_disabled_technique_does_not_roll_the_window(flag, method):
    policy = POLICIES["sectored"](**{flag: False})
    note_heavy(policy, "sectored")
    assert not getattr(policy, method)(W + 1, 0)
    assert policy.stats.a_ms == 40
    assert policy.bypass_fill(W + 1, 0)  # solves the unrolled window
    assert policy.decisions == {"fwb": 1, "wb": 0, "ifrm": 0, "sfrm": 0}


@pytest.mark.parametrize("msc_kind", sorted(POLICIES))
@pytest.mark.parametrize("kwargs,message", [
    ({"window": 0}, "window must be positive, got 0"),
    ({"window": -64}, "window must be positive, got -64"),
    ({"efficiency": 0}, "efficiency must be in (0, 1], got 0"),
    ({"efficiency": -0.5}, "efficiency must be in (0, 1], got -0.5"),
    ({"efficiency": 1.5}, "efficiency must be in (0, 1], got 1.5"),
])
def test_constructor_rejects_bad_window_and_efficiency(msc_kind, kwargs,
                                                       message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        POLICIES[msc_kind](**kwargs)
    POLICIES[msc_kind](window=1, efficiency=1.0)  # both bounds inclusive
