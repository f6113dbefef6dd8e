"""Tests for the cell-execution engine and its on-disk cache."""

import os
import shutil
from pathlib import Path

import pytest

from repro.backends.base import TraceStore, active_backend
from repro.errors import ReproError
from repro.experiments import cellcache
from repro.experiments.cellcache import (
    CODE_VERSION,
    CellCache,
    alone_ipc_key_parts,
    cell_key,
    code_version,
    decode_result,
    encode_result,
)
from repro.experiments.common import SMOKE, scaled_config
from repro.experiments.exec import (
    AloneIpcCell,
    MixCell,
    TaskCell,
    execute_cells,
    run_spec,
)
from repro.experiments.registry import EXPERIMENTS, get_spec
from repro.metrics.stats import RunResult
from repro.workloads.mixes import rate_mix


def _mix_cell(label="mcf/baseline", **config_kwargs):
    config = scaled_config(SMOKE, policy="baseline", **config_kwargs)
    return MixCell(label, rate_mix("mcf"), config, SMOKE)


# ---------------------------------------------------------------- keys


def test_cell_key_is_deterministic():
    assert cell_key(_mix_cell().key_parts()) == \
        cell_key(_mix_cell().key_parts())


def test_cell_key_ignores_label():
    # The label is presentation; only simulation inputs are keyed.
    assert cell_key(_mix_cell("a").key_parts()) == \
        cell_key(_mix_cell("b").key_parts())


def test_cell_key_changes_with_config():
    base = cell_key(_mix_cell().key_parts())
    tweaked = cell_key(_mix_cell(dap_window=128).key_parts())
    assert base != tweaked


def _package_copy(tmp_path) -> Path:
    """A scratch copy of the ``repro`` package sources."""
    copy = tmp_path / "repro"
    shutil.copytree(Path(cellcache.__file__).parents[1], copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def _flip_first_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[0] ^= 0x01
    path.write_bytes(bytes(data))


def test_code_version_is_derived_from_the_package_sources(tmp_path):
    assert len(CODE_VERSION) == 64
    assert code_version(_package_copy(tmp_path)) == CODE_VERSION


@pytest.mark.parametrize("source", [
    "mem/timing.py", "hierarchy/msc_sectored.py", "policies/dap.py",
    "flat/controller.py", "backends/base.py", "experiments/common.py",
    "metrics/stats.py", "hierarchy/config.py", "experiments/scale.py",
    "experiments/fig01_bandwidth_vs_hitrate.py",
    "experiments/ext_flat_memory.py",
])
def test_code_version_changes_with_a_simulation_source(tmp_path, source):
    copy = _package_copy(tmp_path)
    _flip_first_byte(copy / source)
    assert code_version(copy) != CODE_VERSION


def test_code_version_covers_every_task_cell_body(tmp_path):
    # A TaskCell key holds only the body's name and kwargs, so the code
    # computing the result must be in the salt.
    modules = set()
    for name in EXPERIMENTS:
        spec = get_spec(name)
        for cell in spec.cells(SMOKE, spec.resolve_workloads(None)):
            if isinstance(cell, TaskCell):
                modules.add(cell.fn.__module__)
    assert modules  # Fig. 1 and the flat-memory extension have some
    copy = _package_copy(tmp_path)
    for module in sorted(modules):
        source = copy.joinpath(*module.split(".")[1:]).with_suffix(".py")
        _flip_first_byte(source)
        assert code_version(copy) != CODE_VERSION, module
        _flip_first_byte(source)
    assert code_version(copy) == CODE_VERSION


def test_code_version_changes_when_a_simulation_file_is_added(tmp_path):
    copy = _package_copy(tmp_path)
    (copy / "mem" / "extra.py").write_text("", encoding="utf-8")
    assert code_version(copy) != CODE_VERSION


@pytest.mark.parametrize("source", [
    "obs/compare.py", "obs/trace.py", "experiments/runner.py", "cli.py",
])
def test_code_version_ignores_observation_and_cli_sources(tmp_path, source):
    copy = _package_copy(tmp_path)
    _flip_first_byte(copy / source)
    assert code_version(copy) == CODE_VERSION


def test_alone_ipc_key_normalizes_policy_and_cores():
    # Every policy/core-count variant of a platform shares one
    # alone-IPC reference cell.
    a = alone_ipc_key_parts("mcf", scaled_config(SMOKE, policy="dap"), SMOKE)
    b = alone_ipc_key_parts(
        "mcf", scaled_config(SMOKE, policy="baseline", num_cores=4), SMOKE)
    assert cell_key(a) == cell_key(b)
    c = alone_ipc_key_parts("omnetpp", scaled_config(SMOKE), SMOKE)
    assert cell_key(a) != cell_key(c)


# -------------------------------------------------------- cache store


def test_cache_round_trips_run_result(tmp_path):
    result = RunResult(
        policy="dap", cycles=1000, instructions=[1234], ipc=[1.234],
        l3_mpki=[12.5], avg_read_latency=480.0, served_hit_rate=0.7,
        array_hit_rate=0.8, mm_cas=25, cache_cas=75, mm_cas_fraction=0.25,
        delivered_gbps=51.2, tag_cache_miss_rate=0.22,
        dap_decisions={"fwb": 2}, extras={"x": 1.0},
    )
    cache = CellCache(tmp_path)
    cache.put_result("k" * 64, result, label="x")
    restored = cache.get_result("k" * 64)
    assert restored == result
    assert isinstance(restored, RunResult)


def test_encode_decode_plain_json_values():
    for value in ({"gbps": 1.25}, [1, 2.5], "text", 3):
        assert decode_result(encode_result(value)) == value


def test_cache_tolerates_torn_entries(tmp_path):
    cache = CellCache(tmp_path)
    key = "a" * 64
    cache.put_result(key, {"v": 1})
    path = tmp_path / key[:2] / f"{key}.json"
    path.write_text('{"status": "ok", "resu')  # truncated write
    assert cache.get(key) is None


# ---------------------------------------------------- engine behavior


def test_execute_cells_rejects_duplicate_labels():
    cells = [_mix_cell("same"), _mix_cell("same")]
    with pytest.raises(ReproError, match="duplicate cell labels"):
        execute_cells(cells)


MARKER_ENV = "REPRO_TEST_FAIL_MARKER"


def flaky_task(value: float = 1.0):
    """Module-level worker body: fails while the marker file exists."""
    marker = os.environ.get(MARKER_ENV, "")
    if marker and os.path.exists(marker):
        raise RuntimeError("injected failure")
    return {"value": value}


def steady_task(value: float = 2.0):
    return {"value": value}


def test_resume_retries_only_recorded_failures(tmp_path, monkeypatch):
    marker = tmp_path / "fail.marker"
    marker.write_text("")
    monkeypatch.setenv(MARKER_ENV, str(marker))
    cache = CellCache(tmp_path / "cache")
    cells = [
        TaskCell("flaky", flaky_task, kwargs=(("value", 1.0),)),
        TaskCell("steady", steady_task, kwargs=(("value", 2.0),)),
    ]

    results, stats = execute_cells(cells, cache=cache)
    assert stats.executed == 1 and stats.failed == 1
    assert "steady" in results and "flaky" not in results
    assert "injected failure" in stats.failures[0].error

    # Without --resume the recorded failure replays without re-running.
    results, stats = execute_cells(cells, cache=cache)
    assert stats.executed == 0
    assert stats.cache_hits == 1 and stats.replayed_failures == 1

    # With --resume, only the failed cell re-runs; the rest stay cached.
    marker.unlink()
    results, stats = execute_cells(cells, cache=cache, resume=True)
    assert stats.executed == 1 and stats.cache_hits == 1
    assert stats.failed == 0
    assert results["flaky"] == {"value": 1.0}


def test_identical_cells_execute_once(tmp_path):
    cells = [
        TaskCell("first", steady_task, kwargs=(("value", 5.0),)),
        TaskCell("alias", steady_task, kwargs=(("value", 5.0),)),
    ]
    results, stats = execute_cells(cells, cache=CellCache(tmp_path))
    assert stats.executed == 1 and stats.total == 2
    assert results["first"] == results["alias"] == {"value": 5.0}


def test_alone_ipc_cell_shared_across_policies(tmp_path):
    cache = CellCache(tmp_path)
    dap = AloneIpcCell("a", "mcf", scaled_config(SMOKE, policy="dap"), SMOKE)
    base = AloneIpcCell("b", "mcf", scaled_config(SMOKE), SMOKE)
    assert cell_key(dap.key_parts()) == cell_key(base.key_parts())


# --------------------------------------------- parallel/serial parity


def test_fig06_parallel_matches_serial(tmp_path):
    spec = get_spec("fig06")
    serial = run_spec(spec, scale="smoke", workloads=["mcf"], jobs=1)
    parallel = run_spec(spec, scale="smoke", workloads=["mcf"], jobs=2,
                        cache=CellCache(tmp_path))
    assert parallel.rows == serial.rows
    assert parallel.stats.executed == 2

    # A warm-cache rerun renders the same table with zero simulations.
    warm = run_spec(spec, scale="smoke", workloads=["mcf"], jobs=2,
                    cache=CellCache(tmp_path))
    assert warm.rows == serial.rows
    assert warm.stats.executed == 0
    assert warm.stats.cache_hits == warm.stats.total == 2
    assert "0 executed" in warm.stats.summary()


# ------------------------------------------------------- trace store


def test_trace_store_counts_and_identity():
    store = TraceStore()
    built = []

    def build():
        built.append(1)
        return [(0, False, 1), (1, True, 2)]

    a = store.trace(("k",), build)
    b = store.trace(("k",), build)
    assert a is b and len(built) == 1
    assert (store.generated, store.reused) == (1, 1)


def test_trace_store_evicts_at_capacity():
    store = TraceStore(max_refs=3)
    store.trace(("a",), lambda: [(0, False, 0)] * 2)
    store.trace(("b",), lambda: [(0, False, 0)] * 2)  # evicts "a" (FIFO)
    store.trace(("a",), lambda: [(0, False, 0)] * 2)
    assert store.generated == 3 and store.reused == 0


def test_warm_sets_cost_a_reference_per_eleven_lines():
    from repro.workloads.columns import WarmSet

    store = TraceStore(max_refs=3)
    store.trace(("t",), lambda: [(0, False, 0)])
    warm_set = WarmSet((range(0, 22),), bytes(22))
    assert store.warm_set(("warm", "w"), lambda: warm_set) is warm_set
    # Stored at a cost of 2, beside the 1-reference trace: both hit.
    assert store.warm_set(("warm", "w"), lambda: None) is warm_set
    store.trace(("t",), lambda: None)
    assert (store.generated, store.reused) == (1, 1)


def test_trace_reuse_across_cells_and_summary():
    cells = [_mix_cell("mcf/baseline"),
             MixCell("mcf/dap", rate_mix("mcf"),
                     scaled_config(SMOKE, policy="dap"), SMOKE)]
    n = rate_mix("mcf").num_cores
    _, stats = execute_cells(cells)
    # The baseline cell materializes one trace per core; the dap cell
    # replays the same (workload, seed) pairs from the store.
    assert stats.traces_generated == n
    assert stats.traces_reused == n
    assert f"traces: {n} generated, {n} reused" in stats.summary()


def test_cells_of_one_invocation_share_each_cores_warm_set(monkeypatch):
    from repro.backends import base
    from repro.hierarchy.msc_sectored import SectoredMscController
    from repro.metrics.speedup import ALONE_IPC_CACHE

    installed, drawn = [], []
    warm_many = SectoredMscController.warm_many
    warm_lines = base.warm_lines

    def record_install(self, warm_sets):
        installed.append(list(warm_sets))
        return warm_many(self, installed[-1])

    def record_draw(*args, **kwargs):
        drawn.append(warm_lines(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(SectoredMscController, "warm_many", record_install)
    monkeypatch.setattr(base, "warm_lines", record_draw)
    ALONE_IPC_CACHE.clear()  # so the alone-IPC cell runs (and warms)
    mix = rate_mix("mcf")
    cells = [_mix_cell("mcf/baseline"),
             MixCell("mcf/dap", mix, scaled_config(SMOKE, policy="dap"),
                     SMOKE),
             AloneIpcCell("mcf/alone", "mcf",
                          scaled_config(SMOKE, policy="baseline"), SMOKE)]
    _, stats = execute_cells(cells)
    baseline, dap, alone = installed
    assert len(drawn) == mix.num_cores == len(baseline)
    assert all(a is b for a, b in zip(baseline, dap))
    # The alone reference is core 0 of a one-copy rate mix.
    assert alone == [baseline[0]]
    # Warm sets are not traces: the trace counters are as without them.
    assert stats.traces_generated == mix.num_cores
    assert stats.traces_reused == mix.num_cores + 1

    # The next invocation starts from an empty store.
    execute_cells(cells[:1])
    assert len(drawn) == 2 * mix.num_cores
    assert installed[-1][0] is not baseline[0]


def test_each_invocation_starts_a_fresh_trace_store():
    before = active_backend()
    before.store.generated = 7
    execute_cells([TaskCell("t", steady_task, kwargs=(("value", 1.0),))])
    after = active_backend()
    assert after is not before
    assert after.store.generated == 0
