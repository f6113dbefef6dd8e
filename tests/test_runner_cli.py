"""Tests for the ``repro experiment`` command-line interface."""

import json
from dataclasses import replace

import pytest

from repro.api import run_experiment
from repro.experiments.exec import (
    CellExecutionError,
    ExperimentSpec,
    TaskCell,
    run_spec,
)
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.runner import main
from repro.validate.cli import main as validate_main


def test_cli_runs_fig01_with_chart_and_csv(tmp_path, capsys):
    exit_code = main(["fig01", "--scale", "smoke", "--no-cache",
                      "--chart", "1", "--csv", str(tmp_path)])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "Fig. 1" in out
    assert "█" in out                      # chart rendered
    assert (tmp_path / "fig01.csv").exists()
    header = (tmp_path / "fig01.csv").read_text().splitlines()[0]
    assert header.startswith("hit_rate")


def test_cli_rejects_unknown_experiment(capsys):
    assert main(["fig99"]) == 1
    assert "unknown experiment" in capsys.readouterr().err


def test_cli_continues_past_failed_experiment(capsys):
    # One broken experiment must not abort the batch: fig01 still runs,
    # and the final exit code reports the failure.
    exit_code = main(["fig99", "fig01", "--scale", "smoke", "--no-cache"])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "Fig. 1" in captured.out
    assert "unknown experiment" in captured.err
    assert "1 experiment(s) failed: fig99" in captured.err


def test_cli_list_prints_registry(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out
    assert "Fig. 6" in out
    assert "workloads" in out              # awareness column


def test_cli_warns_when_workloads_ignored(capsys):
    exit_code = main(["fig01", "--scale", "smoke", "--no-cache",
                      "--workloads", "mcf"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "--workloads ignored by fig01" in captured.err


def test_cli_reports_cache_hits_in_summary(tmp_path, capsys):
    args = ["fig01", "--scale", "smoke", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert "0 cached" in cold
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert "0 executed" in warm            # warm cache: no simulations


def test_run_experiment_passes_workload_subset():
    result = run_experiment("fig07", scale="smoke", workloads=("mcf",))
    names = [row[0] for row in result.rows]
    assert "mcf" in names
    assert "omnetpp" not in names


def test_cli_scale_flag_validation(capsys):
    with pytest.raises(SystemExit):
        main(["fig01", "--scale", "gigantic"])


def test_cli_rejects_a_non_positive_probe_interval_before_running(capsys):
    assert main(["fig01", "--trace", "--probe-interval", "0",
                 "--no-cache"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: --probe-interval must be a positive number of cycles, "
        "got 0"]


def test_validate_run_writes_the_experiment_validate_document(tmp_path,
                                                              capsys):
    cache = str(tmp_path / "cache")
    via_validate, via_runner = tmp_path / "a.json", tmp_path / "b.json"
    assert validate_main(["run", "fig01", "--scale", "smoke", "--jobs", "1",
                          "--cache-dir", cache,
                          "--out", str(via_validate)]) == 0
    assert "Fig. 1" in capsys.readouterr().out  # the table is printed
    assert main(["fig01", "--scale", "smoke", "--jobs", "1",
                 "--cache-dir", cache, "--validate",
                 "--validation-out", str(via_runner)]) == 0
    assert via_validate.read_bytes() == via_runner.read_bytes()


# ----------------------------------------------------------------------
# Failure accounting (fake specs: trivial task cells, no simulation)
# ----------------------------------------------------------------------

def _cell_value(value=1.0):
    return value


def _cell_boom():
    raise RuntimeError("boom")


def _ok_cells(scale, workloads):
    yield TaskCell("ok1", _cell_value, (("value", 1.0),))
    yield TaskCell("ok2", _cell_value, (("value", 2.0),))


def _boom_cells(scale, workloads):
    yield TaskCell("fine", _cell_value, (("value", 3.0),))
    yield TaskCell("broken", _cell_boom)


def _render_missing_cell(ctx):
    return ctx["no-such-cell"]  # KeyError, not a ReproError


def _fake_render(ctx):
    result = ctx.new_result()
    for label in sorted(ctx.results):
        result.add(label, ctx[label])
    return result


def _ok_claims():
    from repro.validate import Claim, Col, sign
    return (Claim(id="figok.positive", claim="every cell is positive",
                  predicate=sign(Col("value"), above=0.0)),)


def _impossible_claims():
    from repro.validate import Claim, Col, sign
    return (Claim(id="figbad.huge", claim="values exceed 100",
                  predicate=sign(Col("value"), above=100.0)),)


OK_SPEC = ExperimentSpec(name="figok", title="Fig. OK",
                         headers=("cell", "value"), cells=_ok_cells,
                         render=_fake_render, claims=_ok_claims)
BOOM_SPEC = ExperimentSpec(name="figboom", title="Fig. BOOM",
                           headers=("cell", "value"), cells=_boom_cells,
                           render=_fake_render)
BAD_SPEC = replace(OK_SPEC, name="figbad", claims=_impossible_claims)
KEY_SPEC = replace(OK_SPEC, name="figkey", render=_render_missing_cell)


@pytest.fixture
def fake_specs(monkeypatch):
    from repro.experiments import registry, runner
    real_get_spec = registry.get_spec
    fakes = {"figok": OK_SPEC, "figboom": BOOM_SPEC, "figbad": BAD_SPEC,
             "figkey": KEY_SPEC}

    def get_spec(name):
        return fakes.get(name) or real_get_spec(name)

    monkeypatch.setattr(runner, "get_spec", get_spec)
    monkeypatch.setattr(registry, "get_spec", get_spec)
    for name in fakes:
        monkeypatch.setitem(runner.EXPERIMENTS, name, f"<test:{name}>")


def test_run_spec_failure_carries_partial_stats():
    with pytest.raises(CellExecutionError) as excinfo:
        run_spec(BOOM_SPEC, scale="smoke")
    err = excinfo.value
    assert "1 of 2 cells failed" in str(err)
    assert err.stats is not None
    assert err.stats.executed == 1       # the cell that DID run
    assert err.stats.failed == 1


def test_cli_names_failed_experiment_and_accounts_stats(fake_specs, capsys):
    exit_code = main(["figok", "figboom", "--no-cache", "--jobs", "1"])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "error: figboom:" in captured.err
    assert "1 experiment(s) failed: figboom" in captured.err
    # The failing sweep's executed cell is folded into the batch totals.
    assert "[run summary: 4 cells: 3 executed, 0 cached, 1 failed]" \
        in captured.out


def test_cli_validate_records_failed_experiment(fake_specs, tmp_path,
                                                capsys):
    out_path = tmp_path / "validation.json"
    exit_code = main(["figok", "figboom", "--no-cache", "--jobs", "1",
                      "--validate", "--validation-out", str(out_path)])
    captured = capsys.readouterr()
    assert exit_code == 1
    doc = json.loads(out_path.read_text())
    assert doc["experiments"]["figboom"]["verdict"] == "error"
    assert doc["experiments"]["figok"]["verdict"] == "pass"
    assert doc["summary"]["errors"] == 1
    assert "FAILING: figboom" in captured.out


def test_cli_validate_gates_on_claim_failure_alone(fake_specs, tmp_path,
                                                   capsys):
    # figbad runs all its cells fine; only its registered claim fails.
    out_path = tmp_path / "validation.json"
    exit_code = main(["figbad", "--no-cache", "--jobs", "1",
                      "--validate", "--validation-out", str(out_path)])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "experiment(s) failed" not in captured.err
    doc = json.loads(out_path.read_text())
    assert doc["experiments"]["figbad"]["verdict"] == "fail"
    assert "FAILING: figbad" in captured.out


def test_validate_run_records_a_render_error_and_writes_the_document(
        fake_specs, tmp_path, capsys):
    out_path = tmp_path / "validation.json"
    exit_code = validate_main(["run", "figok", "figkey", "--no-cache",
                               "--jobs", "1", "--out", str(out_path)])
    captured = capsys.readouterr()
    assert exit_code == 1
    doc = json.loads(out_path.read_text())
    assert doc["experiments"]["figkey"]["verdict"] == "error"
    assert doc["experiments"]["figkey"]["error"] == "unexpected KeyError"
    assert doc["experiments"]["figok"]["verdict"] == "pass"
    assert "FAILING: figkey" in captured.out
