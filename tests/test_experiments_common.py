"""Tests for the experiment harness plumbing."""

import pytest

from repro.errors import ConfigError, ReproError
from repro.experiments.common import (
    PAPER,
    SMALL,
    SMOKE,
    ExperimentResult,
    get_scale,
    scaled_config,
)
from repro.api import run_experiment
from repro.experiments.runner import EXPERIMENTS
from repro.metrics.speedup import (
    geomean,
    normalized_weighted_speedup,
    weighted_speedup,
)


def test_scales_are_consistent():
    for scale in (SMOKE, SMALL, PAPER):
        assert scale.footprint_scale == pytest.approx(1 / scale.capacity_divisor)
        assert scale.l3_bytes > scale.l2_bytes > 0
    assert PAPER.msc_capacity(4 << 30) == 4 << 30
    assert SMOKE.msc_capacity(4 << 30) == (4 << 30) // 64


def test_get_scale_by_name_and_env(monkeypatch):
    assert get_scale("paper") is PAPER
    monkeypatch.setenv("REPRO_SCALE", "small")
    assert get_scale() is SMALL
    with pytest.raises(ConfigError):
        get_scale("huge")


def test_scaled_config_shrinks_metadata_structures():
    config = scaled_config(SMOKE)
    assert config.msc_capacity_bytes == (4 << 30) // 64
    assert config.tag_cache_entries < 32 * 1024
    assert config.sram.l3_bytes == SMOKE.l3_bytes
    paper_cfg = scaled_config(PAPER)
    assert paper_cfg.tag_cache_entries == 32 * 1024


def test_experiment_result_rendering():
    result = ExperimentResult(experiment="demo", headers=["name", "value"])
    result.add("alpha", 1.2345)
    result.add("beta", 2)
    text = result.render()
    assert "demo" in text
    assert "1.234" in text or "1.235" in text
    assert result.column(0) == ["alpha", "beta"]


def test_runner_registry_covers_all_artifacts():
    expected = {"fig01", "fig02", "fig04", "fig05", "fig06", "fig07", "fig08",
                "table1", "fig09", "fig10", "fig11", "fig12", "fig13",
                "fig14", "fig15", "ablation", "flat", "baselines", "prefetch"}
    assert set(EXPERIMENTS) == expected


def test_experiment_result_csv_roundtrip(tmp_path):
    result = ExperimentResult(experiment="demo", headers=["name", "value"])
    result.add("alpha", 1.25)
    path = result.to_csv(str(tmp_path), "demo")
    content = open(path).read().strip().splitlines()
    assert content[0] == "name,value"
    assert content[1] == "alpha,1.25"


def test_runner_rejects_unknown_experiment():
    with pytest.raises(ReproError):
        run_experiment("fig99")


# ----------------------------------------------------------------------
# Speedup metrics
# ----------------------------------------------------------------------

def test_weighted_speedup():
    assert weighted_speedup([1.0, 2.0], [1.0, 1.0]) == 3.0
    assert weighted_speedup([0.5, 0.5], [1.0, 0.5]) == pytest.approx(1.5)
    with pytest.raises(ConfigError):
        weighted_speedup([1.0], [1.0, 2.0])
    with pytest.raises(ConfigError):
        weighted_speedup([1.0], [0.0])


def test_normalized_weighted_speedup():
    assert normalized_weighted_speedup([2.0, 2.0], [1.0, 1.0]) == 2.0
    # With alone references the ratio weights by per-thread slowdown.
    value = normalized_weighted_speedup([1.0, 4.0], [1.0, 2.0],
                                        alone_ipcs=[1.0, 4.0])
    assert value == pytest.approx((1 + 1) / (1 + 0.5))


def test_geomean():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([]) == 0.0
    assert geomean([2.0]) == 2.0
