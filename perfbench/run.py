"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload bw-sensitive --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload sweep --seed 3 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics with no wrapper installed,
normalised to a nominal host speed (hostspeed.py); ``--trace 1`` makes
one untraced and one traced pass and reports the per-layer ledger
instead (see README.md). Both print one line per metric and, as the last
line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--write-expected`` rewrites ``expected.json``, the seed-0 simulated
fingerprints every run is checked against. Use it only in a change that
is meant to alter simulated behaviour, never in a performance change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    raise SystemExit(f"perfbench: no repository sources at {SRC}")
sys.path.insert(0, str(SRC))

from repro.api import (  # noqa: E402
    CellCache,
    ExecStats,
    ExperimentRequest,
    run_cells,
    run_experiment,
)
from repro.experiments.cellcache import cell_key  # noqa: E402
from repro.experiments.common import SMOKE  # noqa: E402
from repro.experiments.exec import MixCell  # noqa: E402
from repro.experiments.registry import get_spec  # noqa: E402
from repro.validate.evaluate import build_validation, evaluate_result  # noqa: E402
from repro.validate.report import write_validation  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from ledger import Ledger, layer_metrics  # noqa: E402
from micro import micro_metrics  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CellWorkload,
    SweepWorkload,
    cell_error,
    fingerprint,
)

BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"
SCRATCH = ROOT / ".perfbench"

#: What the CLI imports before its first cell: interpreter start-up plus
#: the experiment runner and registry.
STARTUP_CODE = "import repro.cli, repro.experiments.runner"
STARTUP_SAMPLES = 3
CELL_WARM_PASSES = 10
SWEEP_WARM_PASSES = 2
CHILD_TIMEOUT_S = 120
#: How each end-to-end metric scales with host speed (hostspeed.py):
#: host times by the speed factor, rates by its inverse, memory not.
SPEED_EXPONENT = {"wall_s": 1, "setup_s": 1, "warm_s": 1, "sim_kips": -1,
                  "peak_rss_mb": 0}
SWEEP_JOBS = min(2, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Operations and samples
# ----------------------------------------------------------------------

@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    errors: list = field(default_factory=list)

    def op(self, error: Optional[str]) -> None:
        self.attempted += 1
        if error:
            self.errors.append(error)
            print(f"FAILED: {error}", file=sys.stderr)


def median_and_tail(samples: list) -> tuple[float, Optional[tuple[int, float]]]:
    """The median, and the highest percentile with ten samples beyond it.

    The tail is None until there are 21 samples, below which that
    percentile would not lie above the median.
    """
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    if n - 10 > n / 2:
        tail = (100 * (n - 10) // n, ordered[n - 11])
    return statistics.median(ordered), tail


def run_child(argv: list) -> tuple[int, float]:
    """Run a Python child from the repo root; returns (exit code, seconds).

    The child gets its own session so that, on timeout, it and any pool
    workers it started are killed together and reaped. Its stderr is
    shown only when it fails.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            _, errors = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, errors = proc.communicate()
    if proc.returncode:
        print(errors, file=sys.stderr)
    return proc.returncode, time.perf_counter() - start


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def cache_results(cache_dir, cells) -> dict:
    """Each cell's result as stored in the cell cache (None if absent)."""
    cache = CellCache(cache_dir)
    return {c.label: cache.get_result(cell_key(c.key_parts())) for c in cells}


def cache_state(cache_dir: Path) -> dict:
    """Every file in the cache with its size and mtime."""
    return {str(p): (p.stat().st_size, p.stat().st_mtime_ns)
            for p in cache_dir.rglob("*") if p.is_file()}


def loop_seconds(results) -> float:
    return sum(r.manifest["wall_seconds"] for r in results)


def kips(results) -> float:
    """Simulated kilo-instructions per host second of event loop."""
    return (sum(r.total_instructions for r in results)
            / loop_seconds(results) / 1e3)


# ----------------------------------------------------------------------
# Workload passes
# ----------------------------------------------------------------------

def sweep_mix_cells(workload: SweepWorkload) -> list:
    cells = []
    for name in workload.experiments:
        spec = get_spec(name)
        cells += [c for c in spec.cells(
            SMOKE, spec.resolve_workloads(list(workload.workloads)))
            if isinstance(c, MixCell)]
    return cells


def sweep_in_process(workload: SweepWorkload, cache_dir: Path,
                     out: Path) -> ExecStats:
    """The sweep's experiments run serially in this process.

    Mirrors ``repro experiment ... --validate``: same cells, same
    validation document, byte for byte.
    """
    stats = ExecStats()
    entries = {}
    for name in workload.experiments:
        spec = get_spec(name)
        result = run_experiment(
            ExperimentRequest(
                experiment=name, scale=SMOKE.name,
                workloads=workload.workloads if spec.workload_aware else None),
            cache=str(cache_dir))
        stats.merge(result.stats)
        entries[name] = evaluate_result(spec, result) or {
            "title": spec.title, "verdict": "pass", "claims": []}
    write_validation(out, build_validation(entries, scale=SMOKE.name))
    return stats


def cells_pass(groups: list, cache_dir: Path, tally: Tally,
               reference: Optional[dict],
               on_cell=None) -> tuple[dict, ExecStats]:
    """Every ``run_cells`` call of one repeat; one op per cell."""
    results: dict = {}
    stats = ExecStats()
    for group in groups:
        try:
            found, group_stats = run_cells(group, cache=str(cache_dir),
                                           on_cell=on_cell)
        except Exception as exc:  # noqa: BLE001 — an op that raises fails
            for cell in group:
                tally.op(f"{cell.label}: {type(exc).__name__}: {exc}")
            continue
        stats.merge(group_stats)
        failures = {f.label: f.error for f in group_stats.failures}
        for cell in group:
            if cell.label in found:
                results[cell.label] = found[cell.label]
                tally.op(cell_error(cell.label, found[cell.label], reference))
            else:
                tally.op(f"{cell.label}: {failures.get(cell.label)}")
    return results, stats


def doc_error(doc: Path, expected_sha: Optional[str]) -> Optional[str]:
    """Why a sweep's validation document is wrong, or None."""
    if not doc.exists():
        return f"{doc.name}: not written"
    summary = json.loads(doc.read_text())["summary"]
    if not summary["claims"] or summary["passed"] != summary["claims"]:
        return f"{doc.name}: {summary['passed']}/{summary['claims']} claims"
    digest = hashlib.sha256(doc.read_bytes()).hexdigest()
    if expected_sha is not None and digest != expected_sha:
        return f"{doc.name}: differs from the expected document"
    return None


def check_sweep(tally: Tally, cache_dir: Path, doc: Path, expected: dict,
                cells: list) -> dict:
    """One op for the sweep's document, one per mix cell; returns the
    cells' results."""
    tally.op(doc_error(doc, expected.get("validation_sha256")))
    results = cache_results(cache_dir, cells)
    for label, result in results.items():
        tally.op(f"{label}: not in the cell cache" if result is None else
                 cell_error(label, result, expected.get("cells")))
    return results


# ----------------------------------------------------------------------
# Untraced measurement (end-to-end metrics)
# ----------------------------------------------------------------------

def repeat_until(seconds: float, body: Callable[[int], None]) -> None:
    """Call ``body(i)`` until the next call would end past ``seconds``."""
    start = time.perf_counter()
    index = 0
    while True:
        began = time.perf_counter()
        body(index)
        index += 1
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


def measure_cells(workload: CellWorkload, seed: int, seconds: float,
                  tmp: Path, tally: Tally, speed: HostSpeed) -> dict:
    groups = workload.groups(seed)
    reference = load_expected()[workload.name]["cells"] if seed == 0 else None
    samples = {"wall_s": [], "setup_s": [], "sim_kips": [], "warm_s": []}

    def repeat(index: int) -> None:
        nonlocal reference
        cache_dir = tmp / f"repeat{index}"
        speed.probe()
        first = len(speed.samples)
        start = time.perf_counter()
        results, stats = cells_pass(groups, cache_dir, tally, reference,
                                    on_cell=speed.probe)
        samples["wall_s"].append(
            time.perf_counter() - start - speed.since(first))
        if not results:
            return
        cold = {label: fingerprint(r) for label, r in results.items()}
        if reference is None:
            reference = cold
        samples["sim_kips"].append(kips(results.values()))
        samples["setup_s"] += [
            p.wall - results[p.label].manifest["wall_seconds"]
            for p in stats.profile if p.label in results]
        for _ in range(CELL_WARM_PASSES):
            start = time.perf_counter()
            warm, warm_stats = cells_pass(groups, cache_dir, Tally(), None)
            samples["warm_s"].append(time.perf_counter() - start)
            served = {label: fingerprint(r) for label, r in warm.items()}
            if warm_stats.executed:
                tally.op(f"warm pass executed {warm_stats.executed} cells")
            elif served != cold:
                tally.op("warm pass results differ from the cold pass")
            else:
                tally.op(None)
        shutil.rmtree(cache_dir)

    repeat_until(seconds, repeat)
    return samples


def measure_sweep(workload: SweepWorkload, seed: int, seconds: float,
                  tmp: Path, tally: Tally, speed: HostSpeed) -> dict:
    """The sweep ignores ``seed``: its cells are fixed by the registry."""
    expected = load_expected()[workload.name]
    mix_cells = sweep_mix_cells(workload)
    samples = {"wall_s": [], "setup_s": [], "sim_kips": [], "warm_s": []}

    def child(argv: list) -> tuple[int, float]:
        outcome = run_child(argv)
        speed.probe()
        return outcome

    def repeat(index: int) -> None:
        for _ in range(STARTUP_SAMPLES):
            code, seconds = child(["-c", STARTUP_CODE])
            tally.op(f"start-up probe exited {code}" if code else None)
            samples["setup_s"].append(seconds)
        run_dir = tmp / f"repeat{index}"
        cache_dir = run_dir / "cache"
        cold_doc = run_dir / "cold.json"
        code, wall = child(workload.cli_args(
            SWEEP_JOBS, str(cache_dir), str(cold_doc)))
        samples["wall_s"].append(wall)
        tally.op(f"cold sweep exited {code}" if code else None)
        results = check_sweep(tally, cache_dir, cold_doc, expected, mix_cells)
        if all(r is not None for r in results.values()):
            samples["sim_kips"].append(kips(results.values()))
        for warm_index in range(SWEEP_WARM_PASSES):
            before = cache_state(cache_dir)
            warm_doc = run_dir / f"warm{warm_index}.json"
            code, wall = child(workload.cli_args(
                SWEEP_JOBS, str(cache_dir), str(warm_doc)))
            samples["warm_s"].append(wall)
            if code:
                tally.op(f"warm sweep exited {code}")
            elif cache_state(cache_dir) != before:
                tally.op("warm sweep wrote to the cell cache")
            elif not (warm_doc.exists() and cold_doc.exists()
                      and warm_doc.read_bytes() == cold_doc.read_bytes()):
                tally.op("warm validation document differs from the cold one")
            else:
                tally.op(None)
        shutil.rmtree(run_dir)

    repeat_until(seconds, repeat)
    return samples


# ----------------------------------------------------------------------
# Traced measurement (per-layer metrics)
# ----------------------------------------------------------------------

def measure_traced(workload, seed: int, tmp: Path, tally: Tally,
                   spans_out: Path) -> dict:
    """One untraced pass, one traced pass, one warm pass, microbenchmarks."""
    expected = load_expected().get(workload.name, {})
    if isinstance(workload, CellWorkload):
        groups = workload.groups(seed)
        cells = [c for group in groups for c in group]
        reference = expected.get("cells") if seed == 0 else None

        def one_pass(cache_dir: Path, check: Tally) -> ExecStats:
            return cells_pass(groups, cache_dir, check, reference)[1]
    else:
        cells = sweep_mix_cells(workload)

        def one_pass(cache_dir: Path, check: Tally) -> ExecStats:
            doc = cache_dir.with_suffix(".json")
            stats = sweep_in_process(workload, cache_dir, doc)
            check_sweep(check, cache_dir, doc, expected, cells)
            return stats

    untraced_dir, traced_dir = tmp / "untraced", tmp / "traced"
    one_pass(untraced_dir, tally)
    untraced = cache_results(untraced_dir, cells)
    ledger = Ledger()
    with ledger.tracing():
        traced_stats = one_pass(traced_dir, tally)
    traced = {record.label: record.result for record in ledger.cells}
    for cell in cells:
        before, after = untraced.get(cell.label), traced.get(cell.label)
        same = (before is not None and after is not None
                and fingerprint(before) == fingerprint(after))
        tally.op(None if same else
                 f"{cell.label}: traced fingerprint differs from untraced")
    loop_s = ledger.phase_s("loop")
    layers_s = ledger.layers_sum_s()
    balanced = loop_s is not None and abs(layers_s - loop_s) <= 0.01 * loop_s
    tally.op(None if balanced else
             f"layer self times sum to {layers_s:.4f}s, loop is {loop_s}s")

    with ledger.timing_cache_reads():
        warm_stats = one_pass(traced_dir, Tally())
    tally.op(f"warm pass executed {warm_stats.executed} cells"
             if warm_stats.executed else None)

    results = [r for r in untraced.values() if r is not None]
    metrics = layer_metrics(ledger, loop_seconds(results),
                            sum(r.manifest["events"] for r in results))
    metrics.update(micro_metrics())
    startups = [run_child(["-c", STARTUP_CODE])
                for _ in range(STARTUP_SAMPLES)]
    for code, _ in startups:
        tally.op(f"start-up probe exited {code}" if code else None)
    metrics.update({
        "phase.import_s": statistics.median(s for _, s in startups),
        "exec.cells_executed": traced_stats.executed,
        "exec.cache_hits": warm_stats.cache_hits,
        "cellcache.entries": len(CellCache(traced_dir)),
        "cellcache.bytes": sum(p.stat().st_size
                               for p in traced_dir.rglob("*") if p.is_file()),
        "cellcache.get_s": ledger.self_s("cellcache"),
    })
    print_ledger(ledger, loop_s)
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    spans_out.write_text(json.dumps({
        "workload": workload.name, "seed": seed,
        "unmeasured": sorted(ledger.unmeasured),
        "entry_points": [
            {"layer": layer, "entry": key, "calls": s[0],
             "inclusive_ns": s[1], "self_ns": s[2]}
            for (layer, key), s in sorted(ledger.points.items())],
        "spans": ledger.spans}, indent=1))
    print(f"[spans written to {spans_out}]")
    return metrics


def print_ledger(ledger: Ledger, loop_s: Optional[float]) -> None:
    print(f"{'layer':8s} {'self_s':>9s} {'share':>7s} {'calls':>10s}")
    for layer in ("engine", "core", "sram", "msc", "dram", "dap"):
        seconds = ledger.self_s(layer)
        if seconds is None:
            print(f"{layer:8s} unmeasured")
            continue
        share = f"{seconds / loop_s:7.1%}" if loop_s else "      -"
        print(f"{layer:8s} {seconds:9.4f} {share} {ledger.calls(layer):10d}")


# ----------------------------------------------------------------------
# Expected fingerprints
# ----------------------------------------------------------------------

def write_expected(workload, tmp: Path) -> None:
    tally = Tally()
    if isinstance(workload, CellWorkload):
        results, _ = cells_pass(workload.groups(0), tmp / "cache", tally, None)
        entry = {"cells": {k: fingerprint(r) for k, r in results.items()}}
    else:
        doc = tmp / "validation.json"
        code, _ = run_child(workload.cli_args(
            SWEEP_JOBS, str(tmp / "cache"), str(doc)))
        tally.op(f"sweep exited {code}" if code else doc_error(doc, None))
        results = cache_results(tmp / "cache", sweep_mix_cells(workload))
        entry = {"cells": {k: fingerprint(r) for k, r in results.items()},
                 "validation_sha256": hashlib.sha256(
                     doc.read_bytes()).hexdigest()}
    if tally.errors:
        raise SystemExit(f"not written: {tally.errors}")
    expected = load_expected()
    expected[workload.name] = entry
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"[{workload.name}: {len(entry['cells'])} fingerprints "
          f"written to {EXPECTED}]")


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="where --trace 1 writes its spans (default: "
                             ".perfbench/spans-<workload>.json)")
    parser.add_argument("--write-expected", action="store_true",
                        help="rewrite expected.json from a seed-0 run; only "
                             "for changes meant to alter simulated results")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    declared = json.loads(BENCHMARK.read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}

    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
    tally = Tally()
    try:
        if args.write_expected:
            write_expected(workload, tmp)
            return 0
        if args.trace:
            metrics = measure_traced(
                workload, args.seed, tmp, tally,
                args.out or SCRATCH / f"spans-{workload.name}.json")
        else:
            measure = (measure_cells if isinstance(workload, CellWorkload)
                       else measure_sweep)
            speed = HostSpeed()
            samples = measure(workload, args.seed, args.seconds, tmp, tally,
                              speed)
            samples["peak_rss_mb"] = [peak_rss_mb()]
            factor = speed.factor()
            print(f"host speed factor {factor:.4f} from {len(speed.samples)} "
                  "probes; raw medians in brackets")
            metrics = {}
            for name in units:
                scale = factor ** SPEED_EXPONENT[name]
                raw, tail = median_and_tail(samples[name])
                metrics[name] = raw * scale
                tail_text = (f"p{tail[0]}={tail[1] * scale:.6g}" if tail
                             else "p-=n/a")
                print(f"{name:12s} {raw * scale:14.6g} {units[name]:9s} "
                      f"{tail_text:16s} n={len(samples[name]):<4d} "
                      f"[{raw:.6g}]")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.trace:
        for name in units:
            print(f"{name:28s} {metrics[name]!s:>22s} {units[name]}")
    print(f"error_rate = {len(tally.errors)}/{tally.attempted}")
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
