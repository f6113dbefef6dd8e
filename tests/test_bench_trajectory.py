"""BENCH_*.json performance-trajectory records: build, validate,
discover the latest committed record, and compare for regressions."""

import json

import pytest

from repro.errors import ConfigError
from repro.experiments.cellcache import CellProfile, ExecStats
from repro.obs.bench import (
    BENCH_SCHEMA,
    MIN_COMPARABLE_EVENTS,
    build_bench_record,
    compare_bench,
    latest_bench,
    load_bench,
    validate_bench,
    write_bench,
)


def stats_with(events, wall, cells=2):
    """ExecStats whose profile sums to the given events/wall."""
    stats = ExecStats(total=cells, executed=cells)
    per_cell_wall = wall / cells
    per_cell_events = events // cells
    stats.profile = [
        CellProfile(label=f"cell{i}", wall=per_cell_wall,
                    events=per_cell_events, cycles=per_cell_events * 2)
        for i in range(cells)
    ]
    return stats


def make_record(rate=100_000.0, events=1_000_000, run_id="t", scale="smoke"):
    return build_bench_record(
        run_id=run_id,
        per_experiment={"fig06": stats_with(events, events / rate)},
        scale=scale, created_unix=1_700_000_000.0)


# ----------------------------------------------------------------------
# Record construction and validation
# ----------------------------------------------------------------------

def test_build_record_schema_and_totals():
    record = make_record(rate=200_000.0, events=400_000)
    validate_bench(record)
    assert record["schema"] == BENCH_SCHEMA
    assert record["run_id"] == "t"
    assert record["scale"] == "smoke"
    assert record["total_events"] == 400_000
    assert record["total_wall_seconds"] == pytest.approx(2.0)
    assert record["events_per_sec"] == pytest.approx(200_000.0)
    entry = record["experiments"]["fig06"]
    assert entry["cells"] == 2 and entry["executed"] == 2
    assert entry["slowest_cell"] in ("cell0", "cell1")
    # Schema 2: per-cell rates name every cell that simulated events.
    assert set(entry["cell_rates"]) == {"cell0", "cell1"}
    assert entry["cell_rates"]["cell0"] == pytest.approx(200_000.0)


def test_schema_1_records_stay_loadable():
    record = make_record()
    record["schema"] = 1
    validate_bench(record)


def test_build_record_counts_cache_hits():
    stats = stats_with(100, 1.0)
    stats.cache_hits = 5
    stats.total += 5
    record = build_bench_record("t", {"fig06": stats})
    assert record["experiments"]["fig06"]["cache_hits"] == 5


def test_validate_rejects_bad_records():
    with pytest.raises(ConfigError):
        validate_bench([])  # not an object
    with pytest.raises(ConfigError):
        validate_bench({"schema": 99, "run_id": "x"})
    record = make_record()
    del record["experiments"]["fig06"]["events_per_sec"]
    with pytest.raises(ConfigError):
        validate_bench(record)


def test_write_and_load_roundtrip(tmp_path):
    record = make_record()
    path = tmp_path / "BENCH_9.json"
    write_bench(path, record)
    assert load_bench(path) == record
    with pytest.raises(ConfigError):
        load_bench(tmp_path / "missing.json")
    (tmp_path / "garbage.json").write_text("{not json")
    with pytest.raises(ConfigError):
        load_bench(tmp_path / "garbage.json")


# ----------------------------------------------------------------------
# Discovery
# ----------------------------------------------------------------------

def test_latest_bench_picks_highest_number(tmp_path):
    assert latest_bench(tmp_path) is None
    for n in (1, 3, 12):
        write_bench(tmp_path / f"BENCH_{n}.json", make_record(run_id=str(n)))
    (tmp_path / "BENCH_notanumber.json").write_text("{}")
    found = latest_bench(tmp_path)
    assert found is not None and found.name == "BENCH_12.json"
    assert load_bench(found)["run_id"] == "12"


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------

def test_compare_bench_flags_throughput_drop():
    previous = make_record(rate=100_000.0)
    current = make_record(rate=40_000.0)  # -60% < default -50% gate
    regressions, notes = compare_bench(current, previous)
    assert regressions  # aggregate and fig06 both collapsed
    assert any(line.startswith("fig06:") for line in regressions)

    regressions, notes = compare_bench(make_record(rate=80_000.0), previous)
    assert regressions == []  # -20% is within the generous default
    assert any("-20" in line for line in notes)


def test_compare_bench_threshold_is_tunable():
    previous = make_record(rate=100_000.0)
    current = make_record(rate=80_000.0)
    regressions, _ = compare_bench(current, previous, threshold=0.1)
    assert regressions


def test_compare_bench_skips_tiny_runs():
    small = MIN_COMPARABLE_EVENTS // 2
    previous = make_record(rate=100_000.0, events=small)
    current = make_record(rate=1_000.0, events=small)  # 100x slower but tiny
    regressions, notes = compare_bench(current, previous)
    assert regressions == []
    assert any("too few" in line for line in notes)


def test_compare_bench_notes_new_experiments():
    previous = make_record()
    current = make_record()
    current["experiments"]["fig12"] = dict(
        current["experiments"]["fig06"])
    regressions, notes = compare_bench(current, previous)
    assert any("fig12: no previous sample" in line for line in notes)
    assert regressions == []


def test_compare_bench_reads_records_with_backend_keys(tmp_path):
    """Some committed schema-2 records (BENCH_5.json) carry ``backend``
    and ``numpy_version`` keys; they load and compare like any other."""
    previous = make_record(rate=100_000.0)
    previous.update(backend="numpy", numpy_version="1.26.4")
    write_bench(tmp_path / "BENCH_5.json", previous)
    previous = load_bench(tmp_path / "BENCH_5.json")
    regressions, _ = compare_bench(make_record(rate=10_000.0), previous)
    assert any(line.startswith("aggregate:") for line in regressions)


def test_committed_bench_record_is_valid():
    """The repo-root BENCH_*.json trajectory must always validate."""
    import pathlib
    repo = pathlib.Path(__file__).resolve().parent.parent
    latest = latest_bench(repo)
    assert latest is not None, "no committed BENCH_*.json at repo root"
    record = load_bench(latest)
    assert record["total_events"] >= MIN_COMPARABLE_EVENTS
    assert json.loads(latest.read_text())["schema"] == BENCH_SCHEMA
