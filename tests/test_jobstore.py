"""The persistent SQLite job queue: lifecycle, retries, crash recovery."""

import time

import pytest

from repro.api import ExperimentRequest
from repro.service.jobstore import JobNotFound, JobStore


def _request(**overrides):
    fields = dict(experiment="fig06", scale="smoke", workloads=("mcf",))
    fields.update(overrides)
    return ExperimentRequest(**fields)


def _result(executed=2, cache_hits=0, events=1000, elapsed=0.5):
    return {
        "experiment": "Fig. 6",
        "headers": ["workload", "norm_ws_dap"],
        "rows": [["mcf", 1.05]],
        "notes": "",
        "stats": {"total": executed + cache_hits, "executed": executed,
                  "cache_hits": cache_hits, "replayed_failures": 0,
                  "failed": 0, "elapsed": elapsed, "events": events,
                  "events_per_sec": events / elapsed},
    }


@pytest.fixture
def store(tmp_path):
    # Tiny backoff so retry tests don't sleep for real.
    return JobStore(tmp_path / "jobs.sqlite3", backoff_base=0.05)


# ----------------------------------------------------------------------
# Submission and claiming
# ----------------------------------------------------------------------

def test_submit_enqueues_with_fingerprint_and_event(store):
    job = store.submit(_request())
    assert job.state == "queued"
    assert job.attempts == 0
    assert job.fingerprint == _request().fingerprint()
    events = store.events_since(job.id)
    assert [e for _, e in events] == [{"t": "state", "state": "queued"}]


def test_submit_rejects_invalid_requests(store):
    from repro.errors import ConfigError
    with pytest.raises(ConfigError):
        store.submit(ExperimentRequest(experiment="nope"))
    assert store.list_jobs() == []


def test_rows_with_the_retired_backend_field_still_load(store):
    """Job rows written before the backend and profile options were
    removed store ``"backend": null`` and ``"profile": false`` in their
    request JSON; they must stay readable."""
    import json
    import sqlite3

    job = store.submit(_request())
    for retired in ({"backend": None}, {"profile": False},
                    {"backend": None, "profile": False}):
        old = dict(_request().to_dict(), **retired)
        with sqlite3.connect(store.path) as conn:
            conn.execute("UPDATE jobs SET request = ? WHERE id = ?",
                         (json.dumps(old), job.id))
        assert store.get(job.id).request == _request()
        assert [j.id for j in store.list_jobs()] == [job.id]


def test_claim_is_exclusive_and_oldest_first(store):
    first = store.submit(_request())
    store.submit(_request(workloads=("milc",)))

    claimed = store.claim("w1")
    assert claimed.id == first.id  # oldest queued job wins
    assert claimed.state == "running"
    assert claimed.attempts == 1
    assert claimed.worker == "w1"

    second = store.claim("w2")
    assert second.id != first.id
    assert store.claim("w3") is None  # queue drained


def test_complete_stores_result_and_dedupe_counters(store):
    job = store.submit(_request())
    store.claim("w1")
    store.complete(job.id, _result(executed=0, cache_hits=2))

    done = store.get(job.id)
    assert done.state == "succeeded"
    assert done.terminal
    assert done.executed_cells == 0
    assert done.cached_cells == 2
    assert store.result(job.id)["rows"] == [["mcf", 1.05]]
    last = store.events_since(job.id)[-1][1]
    assert last["state"] == "succeeded" and last["cached"] == 2


# ----------------------------------------------------------------------
# Failure, retry, backoff
# ----------------------------------------------------------------------

def test_fail_requeues_with_backoff_until_attempts_exhausted(store):
    job = store.submit(_request(max_attempts=2))
    store.claim("w1")

    assert store.fail(job.id, "worker exploded") == "queued"
    assert store.claim("w1") is None  # backoff: not claimable yet
    time.sleep(0.06)
    retried = store.claim("w1")
    assert retried is not None and retried.attempts == 2

    assert store.fail(job.id, "exploded again") == "failed"
    final = store.get(job.id)
    assert final.state == "failed"
    assert "exploded again" in final.error


def test_fail_not_retryable_fails_immediately(store):
    job = store.submit(_request(max_attempts=5))
    store.claim("w1")
    assert store.fail(job.id, "fatal", retryable=False) == "failed"


def test_release_requeues_without_attempt_penalty(store):
    job = store.submit(_request())
    store.claim("w1")
    store.release(job.id)

    released = store.get(job.id)
    assert released.state == "queued"
    assert released.attempts == 0  # drain costs no attempt
    assert store.claim("w2").id == job.id  # immediately claimable


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------

def test_cancel_queued_job_is_terminal(store):
    job = store.submit(_request())
    cancelled = store.cancel(job.id)
    assert cancelled.state == "cancelled"
    assert cancelled.terminal
    assert store.claim("w1") is None


def test_cancel_running_job_sets_flag_for_worker(store):
    job = store.submit(_request())
    store.claim("w1")
    assert not store.cancel_requested(job.id)

    after = store.cancel(job.id)
    assert after.state == "running"  # worker stops it between cells
    assert store.cancel_requested(job.id)

    store.mark_cancelled(job.id)
    assert store.get(job.id).state == "cancelled"


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------

def test_recover_orphans_requeues_jobs_with_attempts_left(store):
    job = store.submit(_request(max_attempts=2))
    store.claim("w1")
    # Simulate a crashed service: a fresh store opens the same database.
    reopened = JobStore(store.path, backoff_base=0.05)
    assert reopened.recover_orphans() == [job.id]
    recovered = reopened.get(job.id)
    assert recovered.state == "queued"
    assert reopened.claim("w2") is not None  # runnable right away


def test_recover_orphans_fails_jobs_out_of_attempts(store):
    job = store.submit(_request(max_attempts=1))
    store.claim("w1")
    reopened = JobStore(store.path)
    assert reopened.recover_orphans() == []
    final = reopened.get(job.id)
    assert final.state == "failed"
    assert "orphaned" in final.error


# ----------------------------------------------------------------------
# Events, reads, stats
# ----------------------------------------------------------------------

def test_events_are_sequenced_and_resumable(store):
    job = store.submit(_request())
    store.add_event(job.id, {"t": "cell", "label": "mcf/baseline"})
    store.add_event(job.id, {"t": "cell", "label": "mcf/dap"})

    events = store.events_since(job.id)
    assert [seq for seq, _ in events] == [1, 2, 3]
    # Resume after seq 2: only the newest event comes back.
    tail = store.events_since(job.id, after_seq=2)
    assert [e["label"] for _, e in tail] == ["mcf/dap"]


def test_set_progress_updates_cell_counters(store):
    job = store.submit(_request())
    store.set_progress(job.id, 1, 2)
    assert (store.get(job.id).done_cells,
            store.get(job.id).total_cells) == (1, 2)


def test_unknown_job_raises(store):
    with pytest.raises(JobNotFound):
        store.get("missing")
    with pytest.raises(JobNotFound):
        store.result("missing")


def test_list_jobs_filters_by_state(store):
    done = store.submit(_request())
    store.claim("w1")
    store.complete(done.id, _result())
    queued = store.submit(_request(workloads=("milc",)))

    assert {j.id for j in store.list_jobs()} == {done.id, queued.id}
    assert [j.id for j in store.list_jobs(state="queued")] == [queued.id]
    assert store.list_jobs(state="running") == []


def test_stats_aggregates_dedupe_and_throughput(store):
    cold = store.submit(_request())
    store.claim("w1")
    store.complete(cold.id, _result(executed=2, cache_hits=0, events=1000,
                                    elapsed=0.5))
    warm = store.submit(_request())
    store.claim("w1")
    store.complete(warm.id, _result(executed=0, cache_hits=2, events=0,
                                    elapsed=0.01))
    store.submit(_request(workloads=("milc",)))

    stats = store.stats()
    assert stats["jobs"]["succeeded"] == 2
    assert stats["queue_depth"] == 1
    assert stats["cells_executed"] == 2
    assert stats["cells_cached"] == 2
    assert stats["cache_hit_ratio"] == 0.5
    assert stats["events_simulated"] == 1000
    assert stats["events_per_sec"] > 0


# ----------------------------------------------------------------------
# Worker heartbeat and live orphan recovery
# ----------------------------------------------------------------------

def test_claim_sets_heartbeat_and_progress_refreshes_it(store):
    job = store.submit(_request())
    claimed = store.claim("w1")
    assert claimed.heartbeat is not None
    assert abs(claimed.heartbeat - time.time()) < 5.0

    time.sleep(0.02)
    store.set_progress(job.id, 1, 4)
    assert store.get(job.id).heartbeat > claimed.heartbeat

    time.sleep(0.02)
    before = store.get(job.id).heartbeat
    store.beat(job.id)
    assert store.get(job.id).heartbeat > before


def test_heartbeat_none_until_claimed_and_visible_in_stats(store):
    job = store.submit(_request())
    assert store.get(job.id).heartbeat is None
    assert store.stats()["stalest_heartbeat_seconds"] is None

    store.claim("w1")
    stalest = store.stats()["stalest_heartbeat_seconds"]
    assert stalest is not None and stalest < 5.0


def test_live_recovery_only_touches_stale_heartbeats(store):
    fresh = store.submit(_request(max_attempts=3))
    store.claim("w1")
    # A freshly-beating job survives a live janitor pass...
    assert store.recover_orphans(stale_seconds=60.0) == []
    assert store.get(fresh.id).state == "running"
    # ...but a silent one is requeued (stale_seconds < 0 makes the
    # horizon lie in the future, so any heartbeat counts as stale).
    assert store.recover_orphans(stale_seconds=-1.0) == [fresh.id]
    assert store.get(fresh.id).state == "queued"
    assert store.last_recovery["live"] is True


def test_startup_recovery_still_requeues_everything(store):
    job = store.submit(_request(max_attempts=2))
    store.claim("w1")
    # No stale_seconds: startup semantics, heartbeat age irrelevant.
    assert store.recover_orphans() == [job.id]


# ----------------------------------------------------------------------
# Event-log retention
# ----------------------------------------------------------------------

def test_prune_events_drops_only_old_terminal_jobs(store):
    from repro.obs.metrics import REGISTRY

    done = store.submit(_request())
    store.claim("w1")
    store.add_event(done.id, {"t": "cell", "label": "mcf/baseline"})
    store.complete(done.id, _result())
    live = store.submit(_request(workloads=("milc",)))
    store.claim("w1")
    store.add_event(live.id, {"t": "cell", "label": "milc/baseline"})

    # Young terminal job: inside the TTL, nothing pruned.
    assert store.prune_events(ttl_seconds=3600) == 0
    before = REGISTRY.value("repro_jobstore_events_pruned_total")
    # ttl < 0 puts the horizon in the future: the finished job's rows
    # go, the running job's rows stay.
    pruned = store.prune_events(ttl_seconds=-1)
    assert pruned > 0
    assert store.events_since(done.id) == []
    assert len(store.events_since(live.id)) > 0
    after = REGISTRY.value("repro_jobstore_events_pruned_total")
    assert after - before == pruned
    # The job row itself survives pruning — only the event log goes.
    assert store.get(done.id).state == "succeeded"


# ----------------------------------------------------------------------
# Stores created by older versions
# ----------------------------------------------------------------------

#: The jobs table as stores created with W3C trace-context propagation
#: have it: a ``traceparent`` column, which the store no longer reads.
_TRACEPARENT_ERA_JOBS = """
CREATE TABLE jobs (
    id               TEXT PRIMARY KEY,
    fingerprint      TEXT NOT NULL,
    request          TEXT NOT NULL,
    state            TEXT NOT NULL,
    attempts         INTEGER NOT NULL DEFAULT 0,
    max_attempts     INTEGER NOT NULL DEFAULT 2,
    timeout_seconds  REAL,
    not_before       REAL NOT NULL DEFAULT 0,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    worker           TEXT,
    error            TEXT,
    result           TEXT,
    submitted_at     REAL NOT NULL,
    started_at       REAL,
    finished_at      REAL,
    done_cells       INTEGER NOT NULL DEFAULT 0,
    total_cells      INTEGER NOT NULL DEFAULT 0,
    executed_cells   INTEGER NOT NULL DEFAULT 0,
    cached_cells     INTEGER NOT NULL DEFAULT 0,
    events_simulated INTEGER NOT NULL DEFAULT 0,
    sim_wall_seconds REAL NOT NULL DEFAULT 0,
    traceparent      TEXT,
    heartbeat        REAL
)
"""


def test_store_with_a_traceparent_column_still_works(tmp_path):
    import json
    import sqlite3

    path = tmp_path / "old.sqlite3"
    request = _request()
    conn = sqlite3.connect(path)
    with conn:
        conn.execute(_TRACEPARENT_ERA_JOBS)
        conn.execute(
            "INSERT INTO jobs (id, fingerprint, request, state,"
            " max_attempts, submitted_at, traceparent)"
            " VALUES ('old1', ?, ?, 'queued', 2, ?, ?)",
            (request.fingerprint(), json.dumps(request.to_dict()),
             time.time(), "00-" + "a" * 32 + "-" + "b" * 16 + "-01"))
    conn.close()

    store = JobStore(path)
    [listed] = store.list_jobs()
    assert listed.id == "old1" and listed.state == "queued"
    assert "traceparent" not in listed.to_dict()
    claimed = store.claim("w1")
    assert claimed is not None and claimed.id == "old1"
    store.complete("old1", _result())
    assert store.get("old1").state == "succeeded"
    assert store.result("old1")["rows"] == [["mcf", 1.05]]
    # New submissions land in the old table too.
    fresh = store.submit(_request(workloads=("milc",)))
    assert store.get(fresh.id).state == "queued"
