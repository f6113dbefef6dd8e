"""Developer smoke script: run small mixes on baseline and DAP.

Drives baseline/dap cell pairs through the cell-execution engine, so it
exercises the same parallel + cached path as `repro experiment`:

    PYTHONPATH=src python scripts/smoke.py mcf omnetpp --jobs 4

With ``--trace`` every cell also streams a JSONL telemetry trace (credit
counters, channel utilization, DAP decisions) and a run manifest:

    PYTHONPATH=src python scripts/smoke.py mcf --trace --probe-interval 10000
"""

import argparse
import os
import time

from repro.api import MixCell, TelemetryConfig, default_cache, run_cells
from repro.experiments.common import get_scale, scaled_config
from repro.obs.bench import build_bench_record, write_bench
from repro.obs.profiler import DEFAULT_HZ, Profile
from repro.obs.telemetry import DEFAULT_PROBE_INTERVAL
from repro.workloads.mixes import rate_mix

# All smoke artifacts default under here; .gitignore covers it.
DEFAULT_OUT_DIR = "results_smoke"

POLICIES = ("baseline", "dap")
DEFAULT_WORKLOADS = ["mcf", "libquantum", "omnetpp", "gcc.expr",
                     "parboil-lbm", "milc"]


def report(name, policy, result):
    print(
        f"{name:16s} {policy:10s} ipc={result.mean_ipc:.3f} "
        f"cycles={result.cycles} mpki={result.mean_mpki:.1f} "
        f"hit={result.served_hit_rate:.2f} mmfrac={result.mm_cas_fraction:.2f} "
        f"lat={result.avg_read_latency:.0f} "
        f"tagmiss="
        f"{result.tag_cache_miss_rate and round(result.tag_cache_miss_rate, 2)} "
        f"gbps={result.delivered_gbps:.1f} dec={result.dap_decisions}"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=DEFAULT_WORKLOADS)
    parser.add_argument("--jobs", type=int, default=1, metavar="N")
    parser.add_argument("--cache-dir", default=None, metavar="DIR")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--trace", action="store_true",
                        help="stream JSONL telemetry traces + manifests")
    parser.add_argument("--probe-interval", type=int, metavar="CYCLES",
                        default=DEFAULT_PROBE_INTERVAL)
    parser.add_argument("--out-dir", default=DEFAULT_OUT_DIR, metavar="DIR",
                        help="artifact root for traces (gitignored default)")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="JSONL trace directory "
                             "(default: OUT_DIR/traces)")
    parser.add_argument("--bench", default=None, metavar="FILE",
                        help="write a BENCH performance-trajectory record")
    parser.add_argument("--profile", action="store_true",
                        help="sample executed cells' stacks (observation-"
                             "only; results stay bit-identical)")
    parser.add_argument("--profile-out", default=None, metavar="FILE",
                        help="merged collapsed-stack output "
                             "(default: OUT_DIR/profile.collapsed)")
    args = parser.parse_args(argv)
    trace_dir = args.trace_dir or os.path.join(args.out_dir, "traces")

    scale = get_scale()
    cache = None if args.no_cache else default_cache(args.cache_dir)
    telemetry = (TelemetryConfig(probe_interval=args.probe_interval,
                                 trace_dir=trace_dir)
                 if args.trace else None)

    cells = [
        MixCell(f"{name}/{policy}", rate_mix(name),
                scaled_config(scale, policy=policy), scale,
                telemetry=telemetry)
        for name in args.workloads
        for policy in POLICIES
    ]
    t0 = time.time()
    results, stats = run_cells(cells, jobs=args.jobs, cache=cache,
                               profile_hz=DEFAULT_HZ if args.profile else 0)
    wall = time.time() - t0

    for name in args.workloads:
        for policy in POLICIES:
            result = results.get(f"{name}/{policy}")
            if result is None:
                print(f"{name:16s} {policy:10s} FAILED")
            else:
                report(name, policy, result)
        base = results.get(f"{name}/baseline")
        dap = results.get(f"{name}/dap")
        if base is not None and dap is not None:
            print(f"  -> speedup "
                  f"{dap.mean_ipc / max(base.mean_ipc, 1e-9):.3f}")
    for failure in stats.failures:
        print(f"error: {failure.label}: {failure.error}")
    print(f"[{wall:.1f}s — {stats.summary()}]")
    if stats.profile:
        print(stats.profile_summary())
    if args.trace and stats.executed:
        print(f"[traces written under {trace_dir} — inspect with "
              f"'repro analyze report {trace_dir}']")
    if args.profile:
        merged = Profile()
        for text in stats.stack_profiles.values():
            merged.merge(Profile.parse(text))
        if merged.total_samples:
            profile_out = args.profile_out or os.path.join(
                args.out_dir, "profile.collapsed")
            os.makedirs(os.path.dirname(profile_out) or ".", exist_ok=True)
            with open(profile_out, "w", encoding="utf-8") as handle:
                handle.write(merged.collapsed())
            print(f"[profile written to {profile_out}: "
                  f"{merged.total_samples} samples — render with "
                  f"'repro profile flame {profile_out}']")
        else:
            print("[profile: no samples — every cell came from the cache]")
    if args.bench:
        record = build_bench_record(
            run_id=f"smoke:{'+'.join(args.workloads)}@{scale.name}",
            per_experiment={"smoke": stats}, scale=scale.name)
        print(f"[bench record written to {write_bench(args.bench, record)}]")
    return 1 if stats.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
