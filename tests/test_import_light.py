"""The simulator is imported if and only if a cell executes.

CLI start-up, spec resolution, cell keying and fully cached runs load
only the CLI, the registry, the cell cache, rendering and claims; the
model (controllers, channels, arrays, policies, cores) and the process
pool load when a cell runs. The service's own observability (the
metrics registry) is never loaded by the engine at all, not even when a
traced cell executes. Each check runs in a fresh interpreter, since
this test session has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Modules that only executing a cell may load.
SIMULATOR_MODULES = (
    "repro.hierarchy.system",
    "repro.hierarchy.msc_base",
    "repro.hierarchy.cpu_core",
    "repro.mem.channel",
    "repro.cache.sectored",
    "repro.policies.dap",
    "repro.obs.analysis",
    "repro.obs.telemetry",
    "concurrent.futures.process",
)

#: The service's observability, which the engine never loads.
SERVICE_OBS_MODULES = (
    "repro.obs.metrics",
    "repro.obs.spans",
)

_REPORT = f"""
import json, sys
loaded = [m for m in {SIMULATOR_MODULES + SERVICE_OBS_MODULES!r}
          if m in sys.modules]
"""


def _python(code: str, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_startup_and_cell_keys_load_no_simulator(tmp_path):
    code = """
import repro.cli, repro.experiments.runner, repro.api
from repro.experiments.cellcache import cell_key
from repro.experiments.registry import iter_specs
from repro.experiments.scale import SMOKE
keys = 0
for spec in iter_specs():
    for cell in spec.cells(SMOKE, spec.resolve_workloads(None)):
        cell_key(cell.key_parts())
        keys += 1
""" + _REPORT + "print(json.dumps([keys, loaded]))"
    proc = _python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    keys, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert keys > 0
    assert loaded == []


def test_cached_rerun_loads_no_simulator(tmp_path):
    def run(name: str) -> tuple[int, list]:
        doc, report = tmp_path / f"{name}.json", tmp_path / f"{name}.loaded"
        args = ["fig07", "flat", "--workloads", "mcf", "--scale", "smoke",
                "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
                "--validate", "--validation-out", str(doc)]
        code = (
            "from repro.experiments import runner\n"
            f"code = runner.main({args!r})\n" + _REPORT
            + f"open({str(report)!r}, 'w').write(json.dumps(loaded))\n"
            "sys.exit(code)\n")
        proc = _python(code, tmp_path)
        assert doc.exists(), proc.stderr
        return proc.returncode, json.loads(report.read_text())

    cold_code, cold_loaded = run("cold")
    warm_code, warm_loaded = run("warm")
    # The cold run executed cells on a pool, so the check can see them.
    assert {"repro.hierarchy.system",
            "concurrent.futures.process"} <= set(cold_loaded)
    assert warm_loaded == []
    assert warm_code == cold_code
    assert ((tmp_path / "warm.json").read_bytes()
            == (tmp_path / "cold.json").read_bytes())


def test_traced_cell_loads_no_service_observability(tmp_path):
    code = f"""
import sys
from repro import api
from repro.experiments.common import SMOKE, scaled_config
from repro.experiments.exec import MixCell
from repro.obs.telemetry import TelemetryConfig
from repro.workloads.mixes import rate_mix
telemetry = TelemetryConfig(trace_dir={str(tmp_path / "traces")!r})
cell = MixCell("mcf/dap", rate_mix("mcf"),
               scaled_config(SMOKE, policy="dap"), SMOKE,
               telemetry=telemetry)
results, stats = api.run_cells([cell])
assert stats.executed == 1, stats
print(sorted(m for m in {SERVICE_OBS_MODULES!r} if m in sys.modules))
"""
    proc = _python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]
    assert list((tmp_path / "traces").glob("*.manifest.json"))


def test_ledger_contract_survives_the_lazy_imports():
    # perfbench's ledger imports repro.hierarchy.system to register every
    # controller and policy, then patches experiments.common's phases.
    import repro.hierarchy.system  # noqa: F401
    from repro.experiments import common
    from repro.experiments.cellcache import canonical
    from repro.hierarchy.msc_base import MscController
    from repro.policies.base import SteeringPolicy

    def family(cls) -> set:
        found, todo = set(), [cls]
        while todo:
            klass = todo.pop()
            if klass not in found:
                found.add(klass)
                todo.extend(klass.__subclasses__())
        return {klass.__name__ for klass in found}

    assert {"SectoredMscController", "AlloyMscController",
            "EdramMscController"} <= family(MscController)
    assert {"BaselinePolicy", "DapSectoredPolicy", "DapAlloyPolicy",
            "DapEdramPolicy", "ThreadAwareDapPolicy", "SbdPolicy",
            "BatmanPolicy", "BearFillPolicy", "BansheePolicy",
            "TuntuPolicy", "CbpPolicy"} <= family(SteeringPolicy)
    for name in ("SMOKE", "Scale", "scaled_config", "run_mix",
                 "build_system", "warm_system", "collect_result"):
        assert hasattr(common, name), name
    # Moving the config types must not move a cell key's canonical parts.
    assert canonical(common.scaled_config(common.SMOKE, policy="dap")) == (
        "SystemConfig(num_cores=8, cpu_ghz=4.0, msc_kind='sectored', "
        "msc_capacity_bytes=67108864, msc_assoc=4, sector_bytes=4096, "
        "msc_dram=DramConfig(name='HBM-102.4', num_channels=4, "
        "device_ghz=0.8, timing=DramTiming(t_cas=10, t_rcd=10, t_rp=10, "
        "t_ras=26, burst=2, turnaround=8, extra_io=0, t_refi=0, t_rfc=0), "
        "banks_per_channel=16, row_bytes=2048), use_tag_cache=True, "
        "use_footprint=True, mm_dram=DramConfig(name='DDR4-2400', "
        "num_channels=2, device_ghz=1.2, timing=DramTiming(t_cas=15, "
        "t_rcd=15, t_rp=15, t_ras=39, burst=4, turnaround=8, extra_io=10, "
        "t_refi=0, t_rfc=0), banks_per_channel=16, row_bytes=2048), "
        "tag_cache_entries=2048, dbc_entries=512, footprint_entries=1024, "
        "policy='dap', dap_window=64, dap_efficiency=0.75, "
        "sram=SramLevels(l1_bytes=16384, l1_assoc=8, l1_latency=3, "
        "l2_bytes=65536, l2_assoc=8, l2_latency=11, l3_bytes=262144, "
        "l3_assoc=16, l3_latency=20), enable_prefetch=True, "
        "rob_entries=224, width=4, mshrs=16)")


def test_root_package_resolves_quickstart_names_lazily():
    code = """
import sys
import repro
before = "repro.hierarchy.system" in sys.modules
from repro import SystemConfig, build_system, collect_result
print(before, SystemConfig.__module__, build_system.__module__,
      collect_result.__module__)
"""
    proc = _python(code, None)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "False", "repro.hierarchy.config", "repro.hierarchy.system",
        "repro.metrics.stats"]
