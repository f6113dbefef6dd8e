"""The typed public facade: requests, round trips, engine hooks.

The facade contract: everything callers need — request/response types,
execution, cancellation — is reachable from ``repro.api`` without
importing runner or engine internals, and a facade run is bit-identical
to driving the engine directly.
"""

import dataclasses

import pytest

from repro.api import (
    CellExecutionCancelled,
    ExperimentRequest,
    JobStatus,
    TaskCell,
    result_to_dict,
    run_cells,
    run_experiment,
    stats_to_dict,
)
from repro.errors import ConfigError
from repro.experiments.exec import run_spec
from repro.experiments.registry import get_spec


# Module-level so TaskCell keys (fn qualname) resolve.
def _double(x=0):
    return 2 * x


def _boom():
    raise ValueError("cell exploded")


# ----------------------------------------------------------------------
# ExperimentRequest
# ----------------------------------------------------------------------

def test_request_round_trips_through_dict():
    request = ExperimentRequest(
        experiment="fig06", scale="smoke", workloads=("mcf", "milc"),
        jobs=4, trace=True, timeout_seconds=12.5, max_attempts=3)
    data = request.to_dict()
    assert data["workloads"] == ["mcf", "milc"]  # JSON-friendly list
    assert ExperimentRequest.from_dict(data) == request


def test_request_coerces_workload_lists_to_tuples():
    request = ExperimentRequest(experiment="fig06", workloads=["mcf"])
    assert request.workloads == ("mcf",)
    assert ExperimentRequest.from_dict(
        {"experiment": "fig06", "workloads": ["mcf"]}).workloads == ("mcf",)


def test_request_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown request field"):
        ExperimentRequest.from_dict({"experiment": "fig06", "bogus": 1})
    with pytest.raises(ConfigError, match="'experiment'"):
        ExperimentRequest.from_dict({"scale": "smoke"})


@pytest.mark.parametrize("patch, message", [
    ({"experiment": "fig99"}, "unknown experiment"),
    ({"scale": "huge"}, "unknown scale"),
    ({"jobs": 0}, "jobs"),
    ({"max_attempts": 0}, "max_attempts"),
    ({"timeout_seconds": -1.0}, "timeout_seconds"),
    ({"probe_interval": 0}, "probe_interval"),
])
def test_request_validation_rejects_bad_fields(patch, message):
    data = {"experiment": "fig06", **patch}
    with pytest.raises(ConfigError, match=message):
        ExperimentRequest.from_dict(data).validate()


def test_fingerprint_covers_what_not_how():
    base = ExperimentRequest(experiment="fig06", scale="smoke",
                             workloads=("mcf",))
    # Execution knobs don't change what is simulated.
    same = dataclasses.replace(base, jobs=8, trace=True, max_attempts=5)
    assert base.fingerprint() == same.fingerprint()
    # The simulated content does.
    assert base.fingerprint() != dataclasses.replace(
        base, workloads=("milc",)).fingerprint()
    assert base.fingerprint() != dataclasses.replace(
        base, scale="small").fingerprint()


def test_job_status_round_trips_and_knows_terminal():
    status = JobStatus(id="j1", state="succeeded",
                       request=ExperimentRequest(experiment="fig06"),
                       executed_cells=2)
    assert status.terminal
    data = status.to_dict()
    assert data["terminal"] is True
    assert JobStatus.from_dict(data) == status
    assert not JobStatus.from_dict(
        {**data, "state": "running"}).terminal


# ----------------------------------------------------------------------
# Execution via the facade
# ----------------------------------------------------------------------

def test_run_experiment_matches_direct_run_spec(shared_cache_dir):
    request = ExperimentRequest(experiment="fig06", scale="smoke",
                                workloads=("mcf",))
    via_facade = run_experiment(request, cache=shared_cache_dir)
    direct = run_spec(get_spec("fig06"), scale="smoke", workloads=["mcf"],
                      cache=shared_cache_dir)
    # Raw (unformatted) rows: exact equality == bit-identical results.
    assert via_facade.headers == direct.headers
    assert via_facade.rows == direct.rows


def test_run_experiment_accepts_bare_name_and_overrides(shared_cache_dir):
    run_experiment("fig06", scale="smoke", workloads=("mcf",),
                   cache=shared_cache_dir)  # warm
    result = run_experiment("fig06", scale="smoke", workloads=("mcf",),
                            cache=shared_cache_dir)
    assert result.rows
    assert result.stats is not None
    # The dedupe tier at work: an identical re-run simulates nothing.
    assert result.stats.executed == 0
    assert result.stats.cache_hits == result.stats.total


def test_run_experiment_reports_progress_through_on_cell(shared_cache_dir):
    run_experiment("fig06", scale="smoke", workloads=("mcf",),
                   cache=shared_cache_dir)  # warm
    seen = []
    run_experiment("fig06", scale="smoke", workloads=("mcf",),
                   cache=shared_cache_dir,
                   on_cell=lambda label, status, done, total:
                   seen.append((label, status, done, total)))
    assert seen, "on_cell hook never fired"
    labels = {label for label, *_ in seen}
    assert "mcf/dap" in labels
    done, total = seen[-1][2], seen[-1][3]
    assert done == total == len(seen)
    assert all(status == "cached" for _, status, _, _ in seen)


def test_run_cells_executes_task_cells():
    cells = [TaskCell(f"t{i}", _double, (("x", i),)) for i in range(4)]
    results, stats = run_cells(cells)
    assert results == {f"t{i}": 2 * i for i in range(4)}
    assert stats.executed == 4 and not stats.failures


def test_should_stop_cancels_between_cells():
    calls = []

    def stop_after_two():
        return "cancelled" if len(calls) >= 2 else None

    cells = [TaskCell(f"t{i}", _double, (("x", i),)) for i in range(5)]
    with pytest.raises(CellExecutionCancelled) as excinfo:
        run_cells(cells, should_stop=stop_after_two,
                  on_cell=lambda *args: calls.append(args))
    assert excinfo.value.reason == "cancelled"
    # Two cells settled before the stop; the rest never ran.
    assert excinfo.value.stats.executed == 2
    assert len(calls) == 2


def test_should_stop_before_first_cell_runs_nothing():
    cells = [TaskCell("t0", _double, (("x", 1),))]
    with pytest.raises(CellExecutionCancelled) as excinfo:
        run_cells(cells, should_stop=lambda: "timeout")
    assert excinfo.value.reason == "timeout"
    assert excinfo.value.stats.executed == 0


def test_on_cell_reports_errors_without_aborting():
    cells = [TaskCell("bad", _boom), TaskCell("good", _double, (("x", 3),))]
    seen = []
    results, stats = run_cells(
        cells, on_cell=lambda label, status, done, total:
        seen.append((label, status)))
    assert results == {"good": 6}
    assert stats.failed == 1
    assert ("bad", "error") in seen and ("good", "ok") in seen


# ----------------------------------------------------------------------
# Serialization helpers
# ----------------------------------------------------------------------

def test_result_and_stats_to_dict(shared_cache_dir):
    result = run_experiment("fig06", scale="smoke", workloads=("mcf",),
                            cache=shared_cache_dir)
    data = result_to_dict(result)
    assert data["headers"] == list(result.headers)
    assert data["rows"] == [list(row) for row in result.rows]
    stats = data["stats"]
    assert stats["total"] == result.stats.total
    assert stats["cache_hits"] + stats["executed"] == stats["total"]
    assert stats_to_dict(None) is None
