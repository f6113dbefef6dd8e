"""``repro validate`` — run, report, and diff paper-shape verdicts.

Usage::

    repro validate run all --scale smoke --jobs 8    # run + judge claims
    repro validate run fig06 fig11 --out v.json --md verdicts.md
    repro validate report validation.json            # re-render a document
    repro validate diff validation.json              # vs committed VERDICTS.json
    repro validate diff baseline.json candidate.json # explicit pair
    repro validate diff v.json --only baselines prefetch  # scoped gate

``run`` is ``repro experiment <names> --validate``: the same loop runs
each experiment through the cell engine (shared cache and all), prints
its table, judges every registered claim and writes
``validation.json``, plus an optional markdown verdict table. It exits
non-zero when any claim fails or any experiment errors. ``diff`` exits
non-zero when a verdict flipped into a failing state relative to the
baseline — the CI regression gate for the paper's shapes.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.validate.diff import diff_validations
from repro.validate.report import load_validation, render_markdown

#: The committed baseline ``repro validate diff`` compares against by
#: default (regenerate with ``repro validate run all --out VERDICTS.json``).
DEFAULT_BASELINE = "VERDICTS.json"


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import runner
    from repro.experiments.registry import EXPERIMENTS

    unknown = [n for n in args.experiments
               if n != "all" and n not in EXPERIMENTS]
    if unknown:
        raise ReproError(f"unknown experiment(s) {', '.join(unknown)}; "
                         f"available: {sorted(EXPERIMENTS)}")
    argv = [*args.experiments, "--jobs", str(args.jobs), "--validate",
            "--validation-out", args.out]
    if args.scale:
        argv += ["--scale", args.scale]
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    if args.no_cache:
        argv.append("--no-cache")
    if args.resume:
        argv.append("--resume")
    code = runner.main(argv)
    if args.md:
        md = Path(args.md)
        md.parent.mkdir(parents=True, exist_ok=True)
        md.write_text(render_markdown(load_validation(args.out)),
                      encoding="utf-8")
        print(f"[markdown verdict table written to {md}]")
    return 0 if args.no_fail else code


def cmd_report(args: argparse.Namespace) -> int:
    doc = load_validation(args.document)
    text = render_markdown(doc)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
        print(f"[report written to {out}]")
    else:
        print(text, end="")
    return 0


def _restrict(doc: dict, names: Sequence[str], path: str,
              strict: bool = False) -> dict:
    """Narrow a document to the named experiments (for ``diff --only``).

    ``strict`` errors on names the document lacks — applied to the
    candidate (a gate must not silently skip a vanished experiment) but
    not the baseline, so new experiments still diff cleanly against a
    baseline that predates them.
    """
    experiments = doc.get("experiments", {})
    unknown = sorted(set(names) - set(experiments))
    if unknown and strict:
        raise ReproError(
            f"--only names not in {path}: {', '.join(unknown)} "
            f"(has: {', '.join(sorted(experiments))})")
    return {**doc,
            "experiments": {n: experiments[n] for n in names
                            if n in experiments}}


def cmd_diff(args: argparse.Namespace) -> int:
    if args.candidate is None:
        baseline_path, candidate_path = DEFAULT_BASELINE, args.baseline
    else:
        baseline_path, candidate_path = args.baseline, args.candidate
    baseline = load_validation(baseline_path)
    candidate = load_validation(candidate_path)
    scope = ""
    if args.only:
        baseline = _restrict(baseline, args.only, baseline_path)
        candidate = _restrict(candidate, args.only, candidate_path,
                              strict=True)
        scope = f" (only: {', '.join(args.only)})"
    print(f"[diffing {candidate_path} against {baseline_path}{scope}]")
    diff = diff_validations(baseline, candidate)
    print(diff.render())
    if diff.regressed and not args.no_fail:
        return 1
    return 0


# ----------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro validate",
        description="Machine-check the paper's shape claims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run experiments and judge their registered claims")
    run.add_argument("experiments", nargs="+",
                     help="experiment ids or 'all'")
    run.add_argument("--scale", choices=("smoke", "small", "paper"),
                     default=None,
                     help="run scale (default: $REPRO_SCALE or smoke)")
    run.add_argument("--jobs", type=int, metavar="N",
                     default=os.cpu_count() or 1,
                     help="worker processes (default: all cores)")
    run.add_argument("--cache-dir", metavar="DIR", default=None,
                     help="cell cache location (shared with "
                          "'repro experiment')")
    run.add_argument("--no-cache", action="store_true",
                     help="disable the on-disk cell cache")
    run.add_argument("--resume", action="store_true",
                     help="retry cells whose previous attempt failed")
    run.add_argument("--out", metavar="FILE", default="validation.json",
                     help="validation document path (default: "
                          "validation.json)")
    run.add_argument("--md", metavar="FILE", default=None,
                     help="also write a markdown verdict table")
    run.add_argument("--no-fail", action="store_true",
                     help="exit 0 even when claims fail")
    run.set_defaults(fn=cmd_run)

    report = sub.add_parser(
        "report", help="render a validation document as markdown")
    report.add_argument("document", help="validation.json path")
    report.add_argument("--out", metavar="FILE", default=None,
                        help="write here instead of stdout")
    report.set_defaults(fn=cmd_report)

    diff = sub.add_parser(
        "diff", help="compare verdicts; exit 1 when one flips to failing")
    diff.add_argument("baseline",
                      help=f"baseline document (or the candidate, with the "
                           f"baseline defaulting to {DEFAULT_BASELINE})")
    diff.add_argument("candidate", nargs="?", default=None,
                      help="candidate document")
    diff.add_argument("--only", nargs="+", metavar="EXPERIMENT",
                      default=None,
                      help="restrict the diff to these experiments "
                           "(the candidate must contain them all)")
    diff.add_argument("--no-fail", action="store_true",
                      help="report but always exit 0")
    diff.set_defaults(fn=cmd_diff)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
