"""Measure the benchmark's own noise and derive each metric's bound.

From the repository root::

    python3 perfbench/calibrate.py --sets 2 --seeds 10

runs ``run.py`` (as a separate process, the way the benchmark is
driven) once per seed on every workload, ``--sets`` times over, and
writes ``perfbench/calibration.json``: per set, workload and end-to-end
metric, the ten values, their median and their relative spread (the
distance between the first and third quartiles over the median). The
suggested bound of a metric is three times its worst spread, at least
the largest shift between two sets' medians, and between 5% and 25%.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, default=HERE / "calibration.json")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    metrics = [m["name"] for m in declared["end_to_end"]]

    sets = []
    for set_index in range(args.sets):
        values = {w: {m: [] for m in metrics} for w in workloads}
        for workload in workloads:
            for seed in range(1, args.seeds + 1):
                start = time.perf_counter()
                report = one_run(workload, seed, declared["run_seconds"])
                if report["failed"]:
                    raise SystemExit(f"{workload} seed {seed}: "
                                     f"{report['failed']} failed operations")
                for m in metrics:
                    values[workload][m].append(report["metrics"][m]["value"])
                print(f"set {set_index + 1} {workload} seed {seed}: "
                      f"{time.perf_counter() - start:.1f}s", flush=True)
        sets.append({w: {m: {"median": statistics.median(v),
                             "spread": spread(v), "values": v}
                         for m, v in per_metric.items()}
                     for w, per_metric in values.items()})

    bounds = {}
    for m in metrics:
        worst = max(s[w][m]["spread"] for s in sets for w in workloads)
        shift = max((abs(b[w][m]["median"] - a[w][m]["median"])
                     / a[w][m]["median"])
                    for a, b in zip(sets, sets[1:]) for w in workloads) \
            if len(sets) > 1 else 0.0
        bounds[m] = {"worst_spread": worst, "largest_shift": shift,
                     "suggested": min(0.25, max(0.05, 3 * worst, shift))}
        print(f"{m:12s} worst spread {worst:7.2%}  largest shift "
              f"{shift:7.2%}  suggested bound {bounds[m]['suggested']:.3f}")
    args.out.write_text(json.dumps(
        {"run_seconds": declared["run_seconds"], "sets": sets,
         "bounds": bounds}, indent=1) + "\n")
    print(f"[written to {args.out}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
