"""The JSONL time-series store.

The tsdb contract: O(1) appends, bounded retention, tolerance of a torn
final line (a crash mid-append must not poison history).
"""

from repro.obs.tsdb import TimeSeriesStore, metrics_row, samples_row

def test_append_and_read_back_rows(tmp_path):
    store = TimeSeriesStore(tmp_path / "ts.jsonl")
    store.append("metrics", {"jobs": 1}, ts=100.0)
    store.append("bench", {"events_per_sec": 5000.0}, ts=200.0)
    assert len(store) == 2
    assert [r["kind"] for r in store.rows()] == ["metrics", "bench"]
    assert store.rows(kind="bench")[0]["data"]["events_per_sec"] == 5000.0
    # A second handle over the same file sees the same history.
    assert len(TimeSeriesStore(store.path)) == 2


def test_series_extracts_numeric_history(tmp_path):
    store = TimeSeriesStore(tmp_path / "ts.jsonl")
    for i in range(3):
        store.append("metrics", {"depth": float(i), "name": "x",
                                 "flag": True}, ts=float(i))
    assert store.series("metrics", "depth") == [(0.0, 0.0), (1.0, 1.0),
                                                (2.0, 2.0)]
    assert store.series("metrics", "name") == []   # non-numeric excluded
    assert store.series("metrics", "flag") == []   # bools excluded


def test_retention_bounds_row_count(tmp_path):
    store = TimeSeriesStore(tmp_path / "ts.jsonl", max_rows=5)
    for i in range(40):
        store.append("metrics", {"i": i}, ts=float(i))
    # Prune triggers at 25% overshoot, so the store stays near max_rows.
    assert len(store) <= 7
    kept = [r["data"]["i"] for r in store.rows()]
    assert kept == sorted(kept)      # newest rows survive, in order
    assert kept[-1] == 39


def test_age_based_prune_and_torn_final_line(tmp_path):
    store = TimeSeriesStore(tmp_path / "ts.jsonl", max_age_seconds=10.0)
    store.append("metrics", {"i": 0}, ts=0.0)
    store.append("metrics", {"i": 1}, ts=100.0)
    dropped = store.prune(now=105.0)
    assert dropped == 1
    assert [r["data"]["i"] for r in store.rows()] == [1]
    # A torn final line (crash mid-append) is skipped, not fatal.
    with open(store.path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "metrics", "ts": 200.0, "da')
    assert [r["data"]["i"] for r in store.rows()] == [1]


def test_row_builders_flatten_registry_and_scrape_shapes():
    snapshot = {
        "jobs_total": [{"labels": {"outcome": "ok"}, "value": 3.0},
                       {"labels": {"outcome": "bad"}, "value": 1.0}],
        "latency_seconds": [{"labels": {}, "sum": 2.5, "count": 4,
                             "buckets": {"1.0": 3, "+Inf": 4}}],
    }
    row = metrics_row(snapshot)
    assert row["jobs_total"] == 4.0
    assert row["latency_seconds_count"] == 4
    assert row["latency_seconds_sum"] == 2.5

    from repro.obs.metrics import Sample
    samples = [Sample("a_total", {}, 2.0), Sample("a_total", {"k": "v"}, 3.0),
               Sample("h_bucket", {"le": "1"}, 9.0)]
    flat = samples_row(samples)
    assert flat["a_total"] == 5.0
    assert "h_bucket" not in flat  # buckets are not scalar series

