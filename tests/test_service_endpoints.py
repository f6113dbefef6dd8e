"""The HTTP surface, driven in-process through the ASGI test client.

Covers the acceptance path end-to-end: submit over HTTP, watch progress
on the SSE stream (at least one cell event before completion), fetch
the result, and observe a repeat submission served entirely from the
cell cache.
"""

import time

import pytest

from repro import api
from repro.obs.metrics import parse_exposition
from repro.obs.spans import make_traceparent, parse_traceparent
from repro.service.app import ServiceApp, route_template
from repro.service.jobstore import JobStore
from repro.service.testing import TestClient, parse_sse
from repro.service.worker import WorkerPool

REQUEST_BODY = {"experiment": "fig06", "scale": "smoke",
                "workloads": ["mcf"]}


@pytest.fixture
def store(tmp_path):
    return JobStore(tmp_path / "jobs.sqlite3", backoff_base=0.02)


@pytest.fixture
def pool(store, shared_cache_dir):
    pool = WorkerPool(store, workers=1,
                      cache=api.default_cache(shared_cache_dir),
                      poll_seconds=0.02)
    yield pool  # tests that need workers call pool.start()
    pool.stop(timeout=120)


@pytest.fixture
def client(store, pool):
    return TestClient(ServiceApp(store, pool=pool))


def _poll_terminal(client, job_id, timeout=120.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        job = client.get(f"/jobs/{job_id}").json()
        if job["terminal"]:
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} not terminal after {timeout}s")


# ----------------------------------------------------------------------
# Liveness and error surfaces
# ----------------------------------------------------------------------

def test_healthz_reports_queue_and_workers(client, pool):
    response = client.get("/healthz")
    assert response.status == 200
    assert response.headers["content-type"] == "application/json"
    body = response.json()
    assert body["ok"] is True
    assert body["queue_depth"] == 0
    assert body["workers"] == 0  # pool not started

    pool.start()
    assert client.get("/healthz").json()["workers"] == 1


def test_healthz_liveness_and_readiness_split(client, pool):
    live = client.get("/healthz/live")
    assert live.status == 200
    assert live.json() == {"ok": True}

    ready = client.get("/healthz/ready")
    assert ready.status == 200  # pool never started: nothing is dead
    body = ready.json()
    assert body["ok"] is True
    assert body["queue_depth"] == 0
    assert body["workers"] == 0
    assert "last_orphan_recovery" in body

    pool.start()
    assert client.get("/healthz/ready").json()["workers"] == 1


def test_readiness_503_when_started_pool_has_no_live_workers(client, pool):
    pool.start()
    assert client.get("/healthz/ready").status == 200
    # Simulate every worker thread dying without the pool noticing.
    pool._stop.set()
    for thread in pool._threads:
        thread.join(timeout=30)
    response = client.get("/healthz/ready")
    assert response.status == 503
    assert response.json()["ok"] is False
    # Liveness is unaffected: the process still answers.
    assert client.get("/healthz/live").status == 200


def test_readiness_reports_orphan_recovery(tmp_path, shared_cache_dir):
    store = JobStore(tmp_path / "jobs.sqlite3")
    job = store.submit(api.ExperimentRequest(experiment="fig06",
                                             scale="smoke",
                                             workloads=("mcf",)))
    assert store.claim("dead-worker").id == job.id
    store.recover_orphans()
    client = TestClient(ServiceApp(store))
    recovery = client.get("/healthz/ready").json()["last_orphan_recovery"]
    assert recovery["requeued"] == 1
    assert recovery["failed"] == 0
    assert recovery["at"] > 0


def test_stats_exposes_service_counters(client):
    stats = client.get("/stats").json()
    assert stats["jobs"] == {"queued": 0, "running": 0, "succeeded": 0,
                             "failed": 0, "cancelled": 0}
    for key in ("queue_depth", "cells_executed", "cells_cached",
                "cache_hit_ratio", "events_simulated", "events_per_sec",
                "workers", "jobs_run_by_this_process"):
        assert key in stats
    for key in ("jobs_submitted", "jobs_deduped", "job_retries",
                "orphans_requeued", "orphans_failed", "torn_trace_lines",
                "sse_frames"):
        assert key in stats["counters"]


# ----------------------------------------------------------------------
# /metrics and request instrumentation
# ----------------------------------------------------------------------

def test_metrics_endpoint_serves_valid_exposition(client):
    client.get("/stats")  # guarantee at least one instrumented request
    response = client.get("/metrics")
    assert response.status == 200
    assert response.headers["content-type"].startswith(
        "text/plain; version=0.0.4")
    samples = parse_exposition(response.text)  # raises if malformed
    names = {s.name for s in samples}
    assert "repro_http_requests_total" in names
    assert "repro_queue_depth" in names
    assert "repro_http_request_seconds_bucket" in names


def test_http_middleware_counts_by_route_template(client):
    def requests_for(route, **labels):
        return sum(
            s.value for s in parse_exposition(client.get("/metrics").text)
            if s.name == "repro_http_requests_total"
            and s.labels.get("route") == route
            and all(s.labels.get(k) == v for k, v in labels.items()))

    before = requests_for("/jobs/{id}", status="404")
    client.get("/jobs/no-such-job")
    client.get("/jobs/also-missing")
    assert requests_for("/jobs/{id}", status="404") == before + 2
    # Unknown paths collapse into one label value: bounded cardinality.
    unmatched = requests_for("(unmatched)")
    client.get("/totally/unknown/route")
    assert requests_for("(unmatched)") == unmatched + 1


def test_metrics_gauges_track_queue_depth(client):
    job = client.post("/jobs", json_body=REQUEST_BODY).json()
    samples = parse_exposition(client.get("/metrics").text)
    depth = [s.value for s in samples if s.name == "repro_queue_depth"]
    queued = [s.value for s in samples if s.name == "repro_jobs_by_state"
              and s.labels.get("state") == "queued"]
    assert depth == [1.0]
    assert queued == [1.0]
    client.post(f"/jobs/{job['id']}/cancel")
    samples = parse_exposition(client.get("/metrics").text)
    assert [s.value for s in samples
            if s.name == "repro_queue_depth"] == [0.0]


def test_route_template_bounds_cardinality():
    assert route_template("/jobs") == "/jobs"
    assert route_template("/jobs/abc123") == "/jobs/{id}"
    assert route_template("/jobs/abc123/events") == "/jobs/{id}/events"
    assert route_template("/jobs/abc123/bogus") == "(unmatched)"
    assert route_template("/healthz/ready") == "/healthz/ready"
    assert route_template("/anything/else") == "(unmatched)"


# ----------------------------------------------------------------------
# Trace context at the HTTP edge
# ----------------------------------------------------------------------

def test_submit_mints_traceparent_when_client_sends_none(client):
    response = client.post("/jobs", json_body=REQUEST_BODY)
    assert response.status == 202
    echoed = response.headers["traceparent"]
    assert parse_traceparent(echoed) is not None
    job = response.json()
    assert job["traceparent"] == echoed
    # Persisted on the job row: a later GET returns the same id.
    assert client.get(f"/jobs/{job['id']}").json()["traceparent"] == echoed


def test_submit_adopts_valid_client_traceparent(client):
    mine = make_traceparent()
    response = client.post("/jobs", json_body=REQUEST_BODY,
                           headers={"traceparent": mine})
    assert response.headers["traceparent"] == mine
    assert response.json()["traceparent"] == mine


def test_submit_replaces_invalid_traceparent(client):
    bogus = "00-" + "0" * 32 + "-" + "0" * 16 + "-01"
    response = client.post("/jobs", json_body=REQUEST_BODY,
                           headers={"traceparent": bogus})
    minted = response.headers["traceparent"]
    assert minted != bogus
    assert parse_traceparent(minted) is not None


@pytest.mark.parametrize("body, message", [
    ({"experiment": "fig99"}, "unknown experiment"),
    ({"experiment": "fig06", "bogus": 1}, "unknown request field"),
    ({"scale": "smoke"}, "experiment"),
])
def test_submit_rejects_bad_requests(client, body, message):
    response = client.post("/jobs", json_body=body)
    assert response.status == 400
    assert message in response.json()["error"]


def test_submit_rejects_malformed_json(client, store):
    assert client.request("POST", "/jobs",
                          json_body=None).status == 400  # empty body
    assert client.post("/jobs", json_body=[1, 2]).status == 400
    assert store.list_jobs() == []


def test_unknown_routes_and_jobs_are_404(client):
    assert client.get("/nope").status == 404
    assert client.get("/jobs/missing").status == 404
    assert client.get("/jobs/missing/events").status == 404
    assert client.post("/jobs/missing/cancel").status == 404


def test_result_of_unfinished_job_is_409(client):
    job = client.post("/jobs", json_body=REQUEST_BODY).json()
    response = client.get(f"/jobs/{job['id']}/result")
    assert response.status == 409
    assert response.json()["job"]["state"] == "queued"


def test_cancel_endpoint_cancels_queued_job(client):
    job = client.post("/jobs", json_body=REQUEST_BODY).json()
    response = client.post(f"/jobs/{job['id']}/cancel")
    assert response.status == 202
    assert response.json()["state"] == "cancelled"


# ----------------------------------------------------------------------
# The acceptance path
# ----------------------------------------------------------------------

def test_submit_poll_result_round_trip(client, pool):
    submitted = client.post("/jobs", json_body=REQUEST_BODY)
    assert submitted.status == 202
    job = submitted.json()
    assert job["state"] == "queued"
    assert job["request"]["workloads"] == ["mcf"]

    pool.start()
    done = _poll_terminal(client, job["id"])
    assert done["state"] == "succeeded"
    assert done["done_cells"] == done["total_cells"] == 2

    response = client.get(f"/jobs/{job['id']}/result")
    assert response.status == 200
    result = response.json()["result"]
    assert result["headers"] == ["workload", "norm_ws_dap",
                                 "norm_read_latency"]
    assert [row[0] for row in result["rows"]] == ["mcf", "GMEAN"]

    listed = client.get("/jobs?state=succeeded").json()["jobs"]
    assert job["id"] in [j["id"] for j in listed]


@pytest.mark.parametrize("retired", [{"profile": True},
                                     {"backend": "auto"}])
def test_submit_rejects_retired_request_fields(client, retired):
    """The removed ``profile`` and ``backend`` options are unknown
    request fields now; only stored job rows still tolerate them."""
    bad = client.post("/jobs", json_body=dict(REQUEST_BODY, **retired))
    assert bad.status == 400
    assert "unknown request field" in bad.json()["error"]


def test_sse_replay_has_cell_progress_before_done(client, pool):
    job = client.post("/jobs", json_body=REQUEST_BODY).json()
    pool.start()
    _poll_terminal(client, job["id"])

    # A finished job's stream replays every persisted event, then the
    # terminal frame — same sequence a live subscriber saw.
    response = client.get(f"/jobs/{job['id']}/events")
    assert response.status == 200
    assert response.headers["content-type"] == "text/event-stream"
    events = parse_sse(response.text)

    kinds = [e["data"].get("t") for e in events[:-1]]
    assert kinds.count("cell") == 2
    assert events[-1].get("event") == "done"
    assert events[-1]["data"]["state"] == "succeeded"
    # ... and at least one progress event precedes completion.
    states = [e["data"].get("state") for e in events]
    assert kinds.index("cell") < states.index("succeeded")

    # Resumable: replay from the last cell event's id onward.
    last_cell_id = [e["id"] for e in events
                    if e["data"].get("t") == "cell"][-1]
    tail = parse_sse(client.get(
        f"/jobs/{job['id']}/events",
        headers={"Last-Event-ID": last_cell_id}).text)
    assert all(e["data"].get("t") != "cell"
               for e in tail if "id" in e)


def test_live_sse_streams_progress_while_job_runs(client, pool,
                                                  shared_cache_dir):
    api.run_experiment(api.ExperimentRequest.from_dict(REQUEST_BODY),
                       cache=shared_cache_dir)  # warm: stream stays fast
    job = client.post("/jobs", json_body=REQUEST_BODY).json()
    with client.stream(f"/jobs/{job['id']}/events", timeout=120) as stream:
        pool.start()  # the subscriber is watching before work begins
        events = stream.collect(timeout=120)

    assert events[-1].get("event") == "done"
    assert events[-1]["data"]["terminal"] is True
    cell_events = [e for e in events if e["data"].get("t") == "cell"]
    assert cell_events, "no progress event arrived before completion"
    assert cell_events[-1]["data"]["done"] == 2


def test_second_identical_submission_is_served_from_cache(client, pool):
    pool.start()
    first = client.post("/jobs", json_body=REQUEST_BODY).json()
    _poll_terminal(client, first["id"])

    second = client.post("/jobs", json_body=REQUEST_BODY).json()
    assert second["fingerprint"] == first["fingerprint"]
    done = _poll_terminal(client, second["id"])
    assert done["state"] == "succeeded"
    assert done["executed_cells"] == 0  # zero new simulation
    assert done["cached_cells"] == 2

    stats = client.get("/stats").json()
    assert stats["cells_cached"] >= 2
