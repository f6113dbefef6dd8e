"""Tests for the three DAP per-window solvers and the policies' window
and credit state.

The default platform throughout: B_MS$ = 0.4 accesses/cycle (102.4 GB/s),
B_MM = 0.15 accesses/cycle (38.4 GB/s), W = 64, E = 0.75, so
B_MS$*W = 19.2 and B_MM*W = 7.2 effective accesses per window, K = 11/4.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dap import solve_alloy, solve_edram, solve_sectored
from repro.core.window import EdramWindowStats, WindowStats
from repro.errors import ConfigError
from repro.policies.dap import DapAlloyPolicy, DapEdramPolicy, DapSectoredPolicy

B_MS = 0.4
B_MM = 0.15


def make_dap(**kwargs):
    return DapSectoredPolicy(b_ms=B_MS, b_mm=B_MM, **kwargs)


def stats(a_ms=0, a_mm=0, rm=0, wm=0, clean=0):
    return WindowStats(a_ms=a_ms, a_mm=a_mm, read_misses=rm, writes=wm,
                       clean_hits=clean)


# ----------------------------------------------------------------------
# Sectored solver
# ----------------------------------------------------------------------

def test_no_partitioning_when_demand_below_cache_bandwidth():
    dap = make_dap()
    t = solve_sectored(stats(a_ms=10, a_mm=2, rm=3), dap.bms_w, dap.bmm_w, dap.k)
    assert t.n_fwb == 0 and t.n_wb == 0 and t.n_ifrm == 0


def test_no_partitioning_when_main_memory_is_bottleneck():
    # A_MS$ - K*A_MM < 0: the MM already has more than its share.
    dap = make_dap()
    t = solve_sectored(stats(a_ms=25, a_mm=20, rm=20), dap.bms_w, dap.bmm_w, dap.k)
    assert t.n_fwb == 0 and t.n_wb == 0 and t.n_ifrm == 0


def test_fwb_only_when_fills_suffice():
    dap = make_dap()
    # Demand 30 on cache, 2 on MM; target N_FWB = 30 - 2.75*2 = 24.5,
    # capped by overflow 30 - 19.2 = 10.8, fills available = 12.
    t = solve_sectored(stats(a_ms=30, a_mm=2, rm=12), dap.bms_w, dap.bmm_w, dap.k)
    assert t.n_fwb == pytest.approx(10.8)
    assert t.n_wb == 0 and t.n_ifrm == 0


def test_wb_engages_when_fills_run_out():
    dap = make_dap()
    # N_FWB would be 24.5 but only 4 fills exist -> FWB = 4, then
    # (K+1)*N_WB = 30 - 2.75*2 - 4 = 20.5 -> N_WB = 20.5/3.75 ~ 5.47 <= W_m.
    t = solve_sectored(stats(a_ms=30, a_mm=2, rm=4, wm=10), dap.bms_w, dap.bmm_w, dap.k)
    assert t.n_fwb == 4
    assert t.n_wb == pytest.approx(20.5 / 3.75)
    assert t.n_ifrm == 0


def test_ifrm_engages_when_writes_run_out():
    dap = make_dap()
    # fills 2, writes 2: FWB=2, WB capped at 2, then Eq. 8:
    # (K+1)*N_IFRM = 30 - 2.75*(2+2) - 2 - 2 = 15 -> N_IFRM = 4.
    t = solve_sectored(stats(a_ms=30, a_mm=2, rm=2, wm=2, clean=100),
                       dap.bms_w, dap.bmm_w, dap.k)
    assert t.n_fwb == 2
    assert t.n_wb == 2
    assert t.n_ifrm == pytest.approx(15 / 3.75)


def test_ifrm_capped_by_clean_hits():
    dap = make_dap()
    t = solve_sectored(stats(a_ms=30, a_mm=2, rm=2, wm=2, clean=1),
                       dap.bms_w, dap.bmm_w, dap.k)
    assert t.n_ifrm == 1


def test_sfrm_uses_spare_mm_bandwidth():
    dap = make_dap()
    # Quiet window: B_MM*W - A_MM = 7.2 - 2 = 5.2 -> SFRM = 0.8*5.2.
    t = solve_sectored(stats(a_ms=10, a_mm=2), dap.bms_w, dap.bmm_w, dap.k)
    assert t.n_sfrm == pytest.approx(0.8 * 5.2)


def test_sfrm_zero_when_mm_saturated():
    dap = make_dap()
    t = solve_sectored(stats(a_ms=10, a_mm=10), dap.bms_w, dap.bmm_w, dap.k)
    assert t.n_sfrm == 0


def test_sfrm_accounts_for_wb_and_ifrm_traffic():
    dap = make_dap()
    t = solve_sectored(stats(a_ms=30, a_mm=2, rm=2, wm=2, clean=100),
                       dap.bms_w, dap.bmm_w, dap.k)
    expected = max(0.0, 0.8 * (dap.bmm_w - 2 - t.n_wb - t.n_ifrm))
    assert t.n_sfrm == pytest.approx(expected)


@given(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=100),
)
@settings(max_examples=200, deadline=None)
def test_solver_invariants(a_ms, a_mm, rm, wm, clean):
    """Property: budgets are non-negative and respect their supplies."""
    dap = make_dap()
    t = solve_sectored(stats(a_ms, a_mm, rm, wm, clean), dap.bms_w, dap.bmm_w, dap.k)
    assert t.n_fwb >= 0 and t.n_wb >= 0 and t.n_ifrm >= 0 and t.n_sfrm >= 0
    assert t.n_fwb <= rm + 1e-9
    assert t.n_wb <= wm + 1e-9
    assert t.n_ifrm <= clean + 1e-9
    if a_ms <= dap.bms_w:
        assert t.n_fwb == t.n_wb == t.n_ifrm == 0
    # SFRM never plans beyond 80% of the memory headroom.
    assert t.n_sfrm <= 0.8 * dap.bmm_w + 1e-9


def test_partition_moves_toward_bandwidth_ratio():
    """After applying the budgets, the residual demand ratio approaches K."""
    dap = make_dap()
    s = stats(a_ms=40, a_mm=4, rm=8, wm=10, clean=50)
    t = solve_sectored(s, dap.bms_w, dap.bmm_w, dap.k)
    new_ms = s.a_ms - t.n_fwb - t.n_wb - t.n_ifrm
    new_mm = s.a_mm + t.n_wb + t.n_ifrm
    before = s.a_ms / (s.a_mm or 1)
    after = new_ms / new_mm
    k = float(dap.k)
    assert abs(after - k) < abs(before - k)


# ----------------------------------------------------------------------
# Sectored policy (windows + credits)
# ----------------------------------------------------------------------

def test_controller_learns_from_previous_window():
    dap = make_dap(window=64)
    # Window 0: heavy cache demand, some fills.
    for _ in range(30):
        dap.note_ms_access()
    for _ in range(12):
        dap.note_read_miss()
    dap.note_mm_access(2)
    # Cross into window 1: FWB credits should be loaded.
    assert dap.bypass_fill(now=70, line=0)
    assert dap.decisions["fwb"] == 1


def test_controller_drops_partitioning_after_idle_windows():
    dap = make_dap(window=64)
    for _ in range(30):
        dap.note_ms_access()
    for _ in range(12):
        dap.note_read_miss()
    # Jump several windows ahead: stale demand must not partition.
    assert not dap.bypass_fill(now=64 * 5 + 1, line=0)


def test_controller_credits_exhaust():
    dap = make_dap(window=64)
    for _ in range(30):
        dap.note_ms_access()
    dap.note_mm_access(2)
    for _ in range(12):
        dap.note_read_miss()
    grants = sum(dap.bypass_fill(now=70, line=0) for _ in range(50))
    # Budget was min(30 - 2.75*2, 30-19.2, 12) = 10.8 -> 10 integer grants
    # (credits floor at zero mid-take for the 11th).
    assert 10 <= grants <= 11
    assert not dap.bypass_fill(now=70, line=0)


def test_sfrm_disabled_flag():
    dap = make_dap(enable_sfrm=False)
    dap.note_ms_access(5)
    assert not dap.speculative_read(now=70, line=0)


def test_efficiency_scales_window_budget():
    full = DapSectoredPolicy(b_ms=B_MS, b_mm=B_MM, efficiency=1.0)
    eff = DapSectoredPolicy(b_ms=B_MS, b_mm=B_MM, efficiency=0.75)
    assert full.bms_w == pytest.approx(25.6)
    assert eff.bms_w == pytest.approx(19.2)


def test_invalid_parameters():
    with pytest.raises(ConfigError):
        DapSectoredPolicy(b_ms=B_MS, b_mm=B_MM, window=0)
    with pytest.raises(ConfigError):
        DapSectoredPolicy(b_ms=B_MS, b_mm=B_MM, efficiency=0)


# ----------------------------------------------------------------------
# Alloy solver
# ----------------------------------------------------------------------

def test_alloy_effective_bandwidth_is_two_thirds():
    dap = DapAlloyPolicy(b_ms=B_MS, b_mm=B_MM, efficiency=1.0)
    assert dap.b_ms_eff == pytest.approx(B_MS * 2 / 3)


def test_alloy_ifrm_budget():
    dap = DapAlloyPolicy(b_ms=B_MS, b_mm=B_MM)
    # bms_w = 0.4*(2/3)*0.75*64 = 12.8; K = 0.2/0.1125 ~ 7/4.
    s = stats(a_ms=20, a_mm=2, clean=50)
    t = solve_alloy(s, dap.bms_w, dap.bmm_w, dap.k)
    kf = float(dap.k)
    assert t.n_ifrm == pytest.approx((20 - kf * 2) / (1 + kf))


def test_alloy_no_partitioning_below_bandwidth():
    dap = DapAlloyPolicy(b_ms=B_MS, b_mm=B_MM)
    t = solve_alloy(stats(a_ms=5, a_mm=1, clean=50), dap.bms_w, dap.bmm_w, dap.k)
    assert t.n_ifrm == 0
    assert t.n_wt > 0  # spare MM bandwidth still drives write-through


def test_alloy_controller_flow():
    dap = DapAlloyPolicy(b_ms=B_MS, b_mm=B_MM)
    dap.note_ms_access(20)
    dap.note_mm_access(1)
    for _ in range(20):
        dap.note_clean_hit()
    assert dap.force_read_miss(now=70, line=0)
    assert dap.decisions["ifrm"] == 1
    # Never counted by the policy: MscStats.fwb_applied is the real count.
    assert dap.decisions["fill_bypass"] == 0


def test_alloy_write_through_in_quiet_window():
    dap = DapAlloyPolicy(b_ms=B_MS, b_mm=B_MM)
    dap.note_ms_access(5)  # below bms_w: no IFRM, but WT budget exists
    dap.note_mm_access(1)
    assert not dap.force_read_miss(now=70, line=0)
    assert dap.write_through(now=70, line=0)
    assert dap.decisions["wt"] == 1


# ----------------------------------------------------------------------
# eDRAM solver
# ----------------------------------------------------------------------

def edram_stats(ar=0, aw=0, amm=0, rm=0, wm=0, clean=0):
    return EdramWindowStats(a_ms_read=ar, a_ms_write=aw, a_mm=amm,
                            read_misses=rm, writes=wm, clean_hits=clean)


def make_edap():
    # B_MS$-R = B_MS$-W = 51.2 GB/s = 0.2 acc/cyc; B_MM = 0.15.
    return DapEdramPolicy(b_ms=0.2, b_mm=B_MM)


def test_edram_read_shortage_uses_ifrm_only():
    dap = make_edap()  # bms_w = 0.2*0.75*64 = 9.6
    s = edram_stats(ar=20, aw=2, amm=1, clean=50)
    t = solve_edram(s, dap.bms_w, dap.bmm_w, dap.k)
    kf = float(dap.k)
    assert t.n_ifrm == pytest.approx((20 - kf * 1) / (1 + kf))
    assert t.n_fwb == 0 and t.n_wb == 0


def test_edram_write_shortage_uses_fwb_then_wb():
    dap = make_edap()
    s = edram_stats(ar=2, aw=20, amm=1, rm=4, wm=12)
    t = solve_edram(s, dap.bms_w, dap.bmm_w, dap.k)
    kf = float(dap.k)
    assert t.n_fwb == pytest.approx(min(20 - kf * 1, 4, 20 - dap.bms_w))
    expected_wb = ((20 - t.n_fwb) - kf * 1) / (1 + kf)
    assert t.n_wb == pytest.approx(min(expected_wb, 12))
    assert t.n_ifrm == 0


def test_edram_dual_shortage_solves_simultaneously():
    dap = make_edap()
    s = edram_stats(ar=20, aw=20, amm=1, rm=4, wm=20, clean=50)
    t = solve_edram(s, dap.bms_w, dap.bmm_w, dap.k)
    kf = float(dap.k)
    aw_adj = 20 - t.n_fwb
    denom = 2 * kf + 1
    assert t.n_wb == pytest.approx(((1 + kf) * aw_adj - kf * 20 - kf * 1) / denom)
    assert t.n_ifrm == pytest.approx(((1 + kf) * 20 - kf * aw_adj - kf * 1) / denom)


def test_edram_no_shortage_no_partitioning():
    dap = make_edap()
    t = solve_edram(edram_stats(ar=3, aw=3, amm=1), dap.bms_w, dap.bmm_w, dap.k)
    assert t.n_fwb == t.n_wb == t.n_ifrm == 0


@given(
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=50),
)
@settings(max_examples=200, deadline=None)
def test_edram_solver_invariants(ar, aw, amm, rm, wm, clean):
    dap = make_edap()
    t = solve_edram(edram_stats(ar, aw, amm, rm, wm, clean),
                    dap.bms_w, dap.bmm_w, dap.k)
    assert t.n_fwb >= 0 and t.n_wb >= 0 and t.n_ifrm >= 0
    assert t.n_fwb <= rm + 1e-9
    assert t.n_wb <= wm + 1e-9
    assert t.n_ifrm <= clean + 1e-9


def test_edram_controller_window_cycle():
    dap = make_edap()
    dap.note_ms_read(20)
    dap.note_mm_access(1)
    for _ in range(20):
        dap.note_clean_hit()
    assert dap.force_read_miss(now=70, line=0)
    assert not dap.bypass_fill(now=70, line=0)
