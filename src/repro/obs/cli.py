"""``repro analyze`` — decisions-grade reports from finished runs.

Usage::

    repro analyze report .repro-traces/fig06            # every trace under a dir
    repro analyze report mcf_dap.trace.jsonl --format csv --out win.csv
    repro analyze compare traces/before traces/after    # exit 1 on regression
    repro analyze compare a.trace.jsonl b.trace.jsonl --threshold cycles=0.02

``report`` renders per-window measured-vs-optimal access partitioning
(Eq. 2/3), DAP technique accounting, and channel timelines; ``compare``
diffs two runs or trace directories and exits non-zero when a metric
regresses past its threshold.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import ConfigError, ReproError
from repro.obs.analysis import analyze_trace, render_csv, render_markdown
from repro.obs.compare import (
    MetricSpec,
    compare_dirs,
    compare_runs,
    render_comparison,
    render_dir_comparison,
)


def _expand_traces(paths: Sequence[str]) -> list[Path]:
    """Trace files named directly, plus every trace under named dirs."""
    traces: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            traces.extend(sorted(path.rglob("*.trace.jsonl")))
        elif path.is_file():
            traces.append(path)
        else:
            raise ConfigError(f"no trace file or directory at {raw}")
    if not traces:
        raise ConfigError(f"no *.trace.jsonl found under {list(paths)}")
    return traces


def _parse_bandwidths(text: Optional[str]) -> Optional[dict[str, float]]:
    """``cache=102.4,mm=38.4`` -> {"cache": 102.4, "mm": 38.4}."""
    if not text:
        return None
    out: dict[str, float] = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        if not _ or not name.strip():
            raise ConfigError(
                f"bad --bandwidths entry {part!r}; expected source=GBps")
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise ConfigError(
                f"bad --bandwidths value {value!r} for {name!r}") from None
    return out


def _parse_thresholds(entries: Sequence[str]) -> dict[str, MetricSpec]:
    """Repeated ``metric=REL`` overrides, keeping the default direction."""
    from repro.obs.compare import DEFAULT_THRESHOLDS

    out: dict[str, MetricSpec] = {}
    for entry in entries:
        name, _, value = entry.partition("=")
        if not _ or not name.strip():
            raise ConfigError(
                f"bad --threshold entry {entry!r}; expected metric=REL")
        try:
            rel = float(value)
        except ValueError:
            raise ConfigError(
                f"bad --threshold value {value!r} for {name!r}") from None
        base = DEFAULT_THRESHOLDS.get(name.strip(), MetricSpec())
        out[name.strip()] = MetricSpec(
            threshold=rel, higher_is_better=base.higher_is_better,
            abs_floor=base.abs_floor)
    return out


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_report(args: argparse.Namespace) -> int:
    traces = _expand_traces(args.paths)
    bandwidths = _parse_bandwidths(args.bandwidths)
    chunks = []
    for trace in traces:
        analysis = analyze_trace(trace, bandwidths=bandwidths)
        if args.format == "csv":
            chunks.append(render_csv(analysis))
        else:
            chunks.append(render_markdown(analysis, width=args.width))
    text = "\n".join(chunks)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
        print(f"[report on {len(traces)} trace(s) written to {out}]")
    else:
        print(text)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    thresholds = _parse_thresholds(args.threshold or [])
    baseline, candidate = Path(args.baseline), Path(args.candidate)
    if baseline.is_dir() and candidate.is_dir():
        result = compare_dirs(baseline, candidate, thresholds)
        print(render_dir_comparison(result))
        regressed = result.regressed
    else:
        run = compare_runs(analyze_trace(baseline), analyze_trace(candidate),
                           thresholds)
        print(render_comparison(run))
        regressed = run.regressed
    if regressed and not args.no_fail:
        return 1
    return 0


# ----------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description="Analyze, compare, and regression-gate finished runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="per-window partition-optimality report")
    report.add_argument("paths", nargs="+",
                        help="trace files and/or trace directories")
    report.add_argument("--format", choices=("md", "csv"), default="md")
    report.add_argument("--out", metavar="FILE", default=None,
                        help="write the report here instead of stdout")
    report.add_argument("--bandwidths", metavar="SRC=GBPS,...", default=None,
                        help="override per-source peak bandwidths "
                             "(default: reconstructed from the manifest)")
    report.add_argument("--width", type=int, default=60, metavar="COLS",
                        help="sparkline width (default 60)")
    report.set_defaults(fn=cmd_report)

    compare = sub.add_parser(
        "compare", help="diff two runs or trace dirs; exit 1 on regression")
    compare.add_argument("baseline", help="trace file or directory")
    compare.add_argument("candidate", help="trace file or directory")
    compare.add_argument("--threshold", action="append", metavar="METRIC=REL",
                         help="override a metric's relative threshold "
                              "(repeatable)")
    compare.add_argument("--no-fail", action="store_true",
                         help="report regressions but always exit 0")
    compare.set_defaults(fn=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pipe (head, grep -q) closed early; not an error.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
