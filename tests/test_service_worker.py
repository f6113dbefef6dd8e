"""The worker pool: jobs through the engine, with every guard rail.

The expensive end-to-end paths (real fig06 cells) share the session
cache; the deterministic guard-rail paths (drain, cancel, timeout)
stop before the first cell, so they cost nothing.
"""

import time

import pytest

from repro import api
from repro.api import ExperimentRequest
from repro.obs.metrics import REGISTRY
from repro.service.app import ServiceApp
from repro.service.jobstore import JobStore
from repro.service.testing import TestClient
from repro.service.worker import WorkerPool


def _request(**overrides):
    fields = dict(experiment="fig06", scale="smoke", workloads=("mcf",))
    fields.update(overrides)
    return ExperimentRequest(**fields)


def _wait_terminal(store, job_id, timeout=120.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        job = store.get(job_id)
        if job.terminal:
            return job
        time.sleep(0.05)
    raise AssertionError(
        f"job {job_id} still {store.get(job_id).state} after {timeout}s")


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "jobs.sqlite3", backoff_base=0.02)


@pytest.fixture
def pool(store, shared_cache_dir):
    pool = WorkerPool(store, workers=1, cache=api.default_cache(
        shared_cache_dir), poll_seconds=0.02)
    yield pool
    pool.stop(timeout=120)


# ----------------------------------------------------------------------
# The acceptance path: execute, then dedupe a repeat submission
# ----------------------------------------------------------------------

def test_pool_executes_job_and_dedupes_resubmission(store, pool):
    pool.start()
    assert pool.alive == 1

    first = store.submit(_request())
    first = _wait_terminal(store, first.id)
    assert first.state == "succeeded"
    assert first.done_cells == first.total_cells == 2

    # Progress events reached the store (the SSE feed's source).
    cell_events = [e for _, e in store.events_since(first.id)
                   if e.get("t") == "cell"]
    assert len(cell_events) == 2
    assert cell_events[-1]["done"] == cell_events[-1]["total"] == 2

    # The dedupe tier: an identical submission is served entirely from
    # the content-addressed cell cache — zero new simulation.
    second = store.submit(_request())
    second = _wait_terminal(store, second.id)
    assert second.state == "succeeded"
    assert second.executed_cells == 0
    assert second.cached_cells == 2
    assert store.result(second.id)["rows"] == store.result(first.id)["rows"]


def test_service_job_is_bit_identical_to_direct_run(tmp_path, store):
    # Both sides start cold on their *own* cache, so each computes its
    # result independently; equal raw rows == bit-identical execution.
    pool = WorkerPool(store, workers=1,
                      cache=api.default_cache(str(tmp_path / "svc-cache")),
                      poll_seconds=0.02)
    pool.start()
    try:
        job = store.submit(_request())
        job = _wait_terminal(store, job.id)
    finally:
        pool.stop(timeout=120)
    assert job.state == "succeeded"
    assert job.executed_cells == 2  # the service really simulated

    direct = api.run_experiment(_request(),
                                cache=str(tmp_path / "direct-cache"))
    assert store.result(job.id)["rows"] == [list(r) for r in direct.rows]
    assert store.result(job.id)["headers"] == list(direct.headers)


# ----------------------------------------------------------------------
# Guard rails (deterministic: with a cold cache every cell is pending,
# so should_stop trips before the first cell simulates anything)
# ----------------------------------------------------------------------

def test_timeout_fails_job_after_attempt_budget(store):
    pool = WorkerPool(store, workers=1, cache=None, poll_seconds=0.02)
    pool.start()
    try:
        job = store.submit(_request(timeout_seconds=1e-6, max_attempts=2))
        job = _wait_terminal(store, job.id, timeout=30)
    finally:
        pool.stop(timeout=30)
    assert job.state == "failed"
    assert job.attempts == 2  # retried once, then gave up
    assert "timeout" in job.error
    states = [e["state"] for _, e in store.events_since(job.id)
              if e.get("t") == "state"]
    assert states.count("running") == 2  # both attempts really started


def test_timed_out_job_succeeds_when_cache_already_has_it(
        store, pool, shared_cache_dir):
    # Warm the cache, then submit with an impossible deadline: a fully
    # cache-served sweep finishes before the deadline can matter.
    api.run_experiment(_request(), cache=shared_cache_dir)
    pool.start()
    job = store.submit(_request(timeout_seconds=1e-6))
    job = _wait_terminal(store, job.id, timeout=30)
    assert job.state == "succeeded"
    assert job.executed_cells == 0


def test_shutdown_releases_job_for_the_next_worker(store):
    pool = WorkerPool(store, cache=None)
    job = store.submit(_request())
    claimed = store.claim("w0")
    pool._stop.set()  # drain requested before the first cell
    pool._run_job("w0", claimed)

    released = store.get(job.id)
    assert released.state == "queued"
    assert released.attempts == 0  # drain costs no attempt


def test_cancel_requested_mid_run_marks_job_cancelled(store):
    pool = WorkerPool(store, cache=None)
    job = store.submit(_request())
    claimed = store.claim("w0")
    store.cancel(job.id)  # running job: sets the flag only
    pool._run_job("w0", claimed)  # should_stop observes it between cells

    assert store.get(job.id).state == "cancelled"


def test_failing_job_records_error_and_stops_retrying(store, pool):
    pool.start()
    job = store.submit(_request(workloads=("no-such-workload",),
                                max_attempts=1))
    job = _wait_terminal(store, job.id, timeout=30)
    assert job.state == "failed"
    assert "no-such-workload" in job.error


def test_recovered_orphan_resumes_from_cache(store, pool):
    # A worker dies mid-job; restart re-enqueues it and the next worker
    # serves what the dead one already simulated from the cell cache.
    job = store.submit(_request(max_attempts=2))
    store.claim("dead-worker")
    assert JobStore(store.path).recover_orphans() == [job.id]

    pool.start()
    job = _wait_terminal(store, job.id)
    assert job.state == "succeeded"


# ----------------------------------------------------------------------
# The janitor
# ----------------------------------------------------------------------

def test_janitor_recovers_stale_jobs_and_prunes_events(store):
    # Threads never started: janitor_pass() is driven directly, with
    # horizons in the future so "stale" and "expired" are immediate.
    pool = WorkerPool(store, workers=1, cache=None,
                      heartbeat_timeout=-1.0, events_ttl=-1.0)

    stale = store.submit(_request(max_attempts=3))
    store.claim("dead-worker")
    done = store.submit(_request(workloads=("milc",)))
    store.claim("dead-worker")
    store.add_event(done.id, {"t": "cell", "label": "milc/baseline"})
    store.complete(done.id, {
        "experiment": "x", "headers": [], "rows": [], "notes": "",
        "stats": {"total": 1, "executed": 1, "cache_hits": 0,
                  "replayed_failures": 0, "failed": 0, "elapsed": 0.1,
                  "events": 10, "events_per_sec": 100.0}})

    pool.janitor_pass()

    assert store.get(stale.id).state == "queued"      # live recovery
    assert store.events_since(done.id) == []          # TTL prune


def test_janitor_with_fresh_heartbeats_is_a_no_op(store):
    pool = WorkerPool(store, workers=1, cache=None,
                      heartbeat_timeout=600.0)
    job = store.submit(_request())
    store.claim("live-worker")
    pool.janitor_pass()
    assert store.get(job.id).state == "running"  # untouched


# ----------------------------------------------------------------------
# Through the HTTP app: results and counters
# ----------------------------------------------------------------------

def test_traced_job_rows_bit_identical_to_direct_run(tmp_path, store):
    """Telemetry + metrics are observation-only: a traced service job
    computes exactly what an uninstrumented direct call does (both
    cold, independent caches)."""
    pool = WorkerPool(store, workers=1,
                      cache=api.default_cache(str(tmp_path / "svc-cache")),
                      trace_root=str(tmp_path / "traces"),
                      poll_seconds=0.02)
    client = TestClient(ServiceApp(store, pool=pool))
    job = client.post("/jobs", json_body={
        "experiment": "fig06", "scale": "smoke", "workloads": ["mcf"],
        "trace": True}).json()
    pool.start()
    try:
        done = _wait_terminal(store, job["id"], timeout=240).to_dict()
    finally:
        pool.stop(timeout=240)
    assert done["state"] == "succeeded"
    assert done["executed_cells"] == 2

    direct = api.run_experiment(
        api.ExperimentRequest(experiment="fig06", scale="smoke",
                              workloads=("mcf",)),
        cache=str(tmp_path / "direct-cache"))
    service_result = client.get(f"/jobs/{job['id']}/result").json()["result"]
    assert service_result["rows"] == [list(r) for r in direct.rows]
    assert service_result["headers"] == list(direct.headers)


def test_dedupe_and_outcome_counters_move(store, shared_cache_dir):
    """A fully cache-served submission bumps repro_jobs_deduped_total
    (the counter CI asserts on) and the succeeded-outcome counter."""
    request = api.ExperimentRequest(experiment="fig06", scale="smoke",
                                    workloads=("mcf",))
    api.run_experiment(request, cache=shared_cache_dir)  # warm the cache

    deduped_before = REGISTRY.value("repro_jobs_deduped_total")
    succeeded_before = REGISTRY.value("repro_jobs_total",
                                      {"outcome": "succeeded"})
    submitted_before = REGISTRY.value("repro_jobs_submitted_total")

    pool = WorkerPool(store, workers=1,
                      cache=api.default_cache(shared_cache_dir),
                      poll_seconds=0.02)
    client = TestClient(ServiceApp(store, pool=pool))
    job = client.post("/jobs", json_body={"experiment": "fig06",
                                          "scale": "smoke",
                                          "workloads": ["mcf"]}).json()
    pool.start()
    try:
        done = _wait_terminal(store, job["id"], timeout=240).to_dict()
    finally:
        pool.stop(timeout=240)
    assert done["state"] == "succeeded"
    assert done["executed_cells"] == 0  # pure cache hit

    assert REGISTRY.value("repro_jobs_deduped_total") == deduped_before + 1
    assert REGISTRY.value("repro_jobs_total",
                          {"outcome": "succeeded"}) == succeeded_before + 1
    assert REGISTRY.value("repro_jobs_submitted_total") == \
        submitted_before + 1
    assert REGISTRY.value("repro_worker_cells_total",
                          {"status": "cached"}) >= 2
    # The store-side claim histogram observed this claim.
    assert REGISTRY.value("repro_claim_latency_seconds") >= 1
