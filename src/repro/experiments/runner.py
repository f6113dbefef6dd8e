"""Command-line experiment runner.

Usage::

    repro experiment fig06                     # one experiment, default scale
    repro experiment all --scale small         # everything the paper reports
    repro experiment table1 fig08 --workloads mcf omnetpp
    repro experiment fig06 fig08 --jobs 8      # fan cells out over processes
    repro experiment fig12 --resume            # retry recorded cell failures
    repro experiment all --validate            # judge paper-shape claims too
    repro experiment --list                    # registered experiment specs

Each experiment decomposes into independent simulation cells executed
by :mod:`repro.experiments.exec` — in parallel with ``--jobs N`` and
memoized in a content-addressed on-disk cache (``--cache-dir``,
``--no-cache``), so re-running an experiment, or running two experiments
that share cells (fig06 and fig08 share every baseline run), only
simulates what has never been simulated before.  Each experiment prints
the paper-artifact table it regenerates plus a run summary with the
cache-hit counter.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from typing import Optional, Sequence

from dataclasses import replace

from repro import api
from repro.errors import ConfigError, ReproError
from repro.experiments.cellcache import (
    CellCache,
    ExecStats,
    default_cache_dir,
)
from repro.experiments.registry import EXPERIMENTS, get_spec, iter_specs
from repro.metrics.charts import chart_result
from repro.obs.telemetry_config import DEFAULT_PROBE_INTERVAL, TelemetryConfig

DEFAULT_TRACE_DIR = ".repro-traces"

__all__ = ["EXPERIMENTS", "main"]


def _print_spec_list() -> None:
    """The --list table: id, workload-awareness, title (from the registry)."""
    print(f"{'id':10s} {'workloads':10s} title")
    print(f"{'-' * 10} {'-' * 10} {'-' * 40}")
    for spec in iter_specs():
        aware = "yes" if spec.workload_aware else "-"
        print(f"{spec.name:10s} {aware:10s} {spec.title}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro experiment",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*",
                        help=f"experiment ids ({', '.join(EXPERIMENTS)}) or 'all'")
    parser.add_argument("--scale", choices=("smoke", "small", "paper"),
                        default=None, help="run scale (default: $REPRO_SCALE or smoke)")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="restrict to these workload names")
    parser.add_argument("--jobs", type=int, metavar="N",
                        default=os.cpu_count() or 1,
                        help="worker processes for cell execution "
                             "(default: all cores; 1 = serial)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="on-disk cell cache location "
                             "(default: $REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk cell cache")
    parser.add_argument("--resume", action="store_true",
                        help="retry cells whose previous attempt failed "
                             "(completed cells still come from the cache)")
    parser.add_argument("--list", action="store_true",
                        help="list registered experiments and exit")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write each table as DIR/<experiment>.csv")
    parser.add_argument("--chart", type=int, metavar="COL", default=None,
                        help="render column COL of each table as ASCII bars")
    parser.add_argument("--trace", action="store_true",
                        help="instrument every simulated cell: sample "
                             "credit/channel probes and stream JSONL traces "
                             "+ run manifests under --trace-dir")
    parser.add_argument("--probe-interval", type=int, metavar="CYCLES",
                        default=DEFAULT_PROBE_INTERVAL,
                        help="simulated cycles between probe samples "
                             f"(default: {DEFAULT_PROBE_INTERVAL})")
    parser.add_argument("--trace-dir", metavar="DIR",
                        default=DEFAULT_TRACE_DIR,
                        help="where --trace writes "
                             "<experiment>/<cell>.trace.jsonl "
                             f"(default: {DEFAULT_TRACE_DIR})")
    parser.add_argument("--validate", action="store_true",
                        help="judge each experiment's registered paper-shape "
                             "claims and write a validation document "
                             "(see also 'repro validate')")
    parser.add_argument("--validation-out", metavar="FILE",
                        default="validation.json",
                        help="where --validate writes the document "
                             "(default: validation.json)")
    args = parser.parse_args(argv)

    if args.list:
        _print_spec_list()
        return 0
    if not args.experiments:
        parser.error("no experiments given (or use --list)")
    if args.validate:
        # The claim machinery loads only for a run that judges claims.
        from repro.validate.evaluate import (
            build_validation,
            doc_failed,
            evaluate_result,
            failed_entry,
        )
        from repro.validate.report import render_summary_line, write_validation

    cache = None if args.no_cache else CellCache(
        args.cache_dir or default_cache_dir())
    telemetry = (TelemetryConfig(probe_interval=args.probe_interval,
                                 trace_dir=args.trace_dir)
                 if args.trace else None)

    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments

    # Warn once, by name, about experiments that will ignore --workloads
    # (their specs declare themselves workload-unaware).
    if args.workloads:
        ignoring = [n for n in names
                    if n in EXPERIMENTS and not get_spec(n).workload_aware]
        if ignoring:
            print(f"warning: --workloads ignored by {', '.join(ignoring)} "
                  "(not workload-aware; see --list)", file=sys.stderr)

    totals = ExecStats()
    failed: list[str] = []
    validation_entries: dict[str, dict] = {}
    for name in names:
        start = time.time()
        spec_workloads = args.workloads
        if name in EXPERIMENTS and not get_spec(name).workload_aware:
            spec_workloads = None  # already warned above
        spec_telemetry = telemetry
        if telemetry is not None and telemetry.trace_dir:
            # One subdirectory per experiment keeps cell traces apart.
            spec_telemetry = replace(
                telemetry,
                trace_dir=os.path.join(telemetry.trace_dir, name))
        try:
            request = api.ExperimentRequest(
                experiment=name, scale=args.scale,
                workloads=tuple(spec_workloads) if spec_workloads else None,
                jobs=max(1, args.jobs), resume=args.resume)
            result = api.run_experiment(request, cache=cache,
                                        telemetry=spec_telemetry,
                                        spec=get_spec(name))
        except ReproError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            failed.append(name)
            # A failing cell still simulated something: fold the partial
            # stats into the batch totals so the run summary accounts
            # for every executed cell, failed experiments included.
            stats = getattr(exc, "stats", None)
            if stats is not None:
                totals.merge(stats)
            if args.validate and name in EXPERIMENTS:
                validation_entries[name] = failed_entry(
                    get_spec(name).title, str(exc))
            continue
        except Exception:
            # One broken experiment must not abort the rest of an `all`
            # run; report it and continue.
            print(f"error: {name} raised an unexpected exception:",
                  file=sys.stderr)
            traceback.print_exc()
            failed.append(name)
            if args.validate and name in EXPERIMENTS:
                validation_entries[name] = failed_entry(
                    get_spec(name).title,
                    f"unexpected {sys.exc_info()[0].__name__}")
            continue
        if args.validate:
            entry = evaluate_result(get_spec(name), result)
            if entry is None:  # no claims registered for this spec
                entry = {"title": get_spec(name).title, "verdict": "pass",
                         "claims": []}
            validation_entries[name] = entry
        result.print()
        if args.chart is not None:
            try:
                print()
                print(chart_result(result, column=args.chart, baseline=1.0))
            except ConfigError as exc:
                print(f"(chart skipped: {exc})")
        if args.csv:
            path = result.to_csv(args.csv, name)
            print(f"[csv written to {path}]")
        stats = result.stats
        if stats is not None:
            totals.merge(stats)
            print(f"[{name} took {time.time() - start:.1f}s — "
                  f"{stats.summary()}]")
            if stats.profile:
                print(stats.profile_summary())
            if args.trace and spec_telemetry is not None and stats.executed:
                print(f"[traces written under {spec_telemetry.trace_dir}]")
            print()
        else:
            print(f"[{name} took {time.time() - start:.1f}s]\n")

    if len(names) > 1 and totals.total:
        print(f"[run summary: {totals.summary()}]")
        if totals.profile:
            print(totals.profile_summary())
    validation_failed = False
    if args.validate and validation_entries:
        scale = args.scale or os.environ.get("REPRO_SCALE", "smoke")
        doc = build_validation(validation_entries, scale=scale)
        path = write_validation(args.validation_out, doc)
        print(f"[validation document written to {path}]")
        print(render_summary_line(doc))
        validation_failed = doc_failed(doc)
    if failed:
        print(f"error: {len(failed)} experiment(s) failed: "
              f"{', '.join(failed)}", file=sys.stderr)
        return 1
    return 1 if validation_failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
