"""``repro validate`` — run, report, and diff paper-shape verdicts.

Usage::

    repro validate run all --scale smoke --jobs 8    # run + judge claims
    repro validate run fig06 fig11 --out v.json --md verdicts.md
    repro validate report validation.json            # re-render a document
    repro validate diff validation.json              # vs committed VERDICTS.json
    repro validate diff baseline.json candidate.json # explicit pair
    repro validate diff v.json --only baselines prefetch  # scoped gate

``run`` executes the named experiments through the same cell engine as
``repro experiment`` (shared cache and all), judges every registered
claim, writes ``validation.json`` plus an optional markdown verdict
table, and exits non-zero when any claim fails. ``diff`` exits
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
from repro.validate.evaluate import (
    build_validation,
    doc_failed,
    evaluate_result,
    failed_entry,
)
from repro.validate.report import (
    load_validation,
    render_markdown,
    render_summary_line,
    write_validation,
)

#: The committed baseline ``repro validate diff`` compares against by
#: default (regenerate with ``repro validate run all --out VERDICTS.json``).
DEFAULT_BASELINE = "VERDICTS.json"


def validate_experiments(
    names: Sequence[str],
    scale: Optional[str] = None,
    *,
    jobs: int = 1,
    cache=None,
    resume: bool = False,
) -> dict:
    """Run experiments and judge their claims; returns the document.

    Experiments without a registered claims block are recorded with an
    empty claim list (verdict ``pass``) so the document always covers
    the requested set. Experiments that fail to run are recorded as
    ``error`` — the document never silently shrinks. Per-experiment
    cell-engine stats (executed vs cache-hit counts) are printed as
    each experiment completes so CI logs show how warm the cache was;
    they are deliberately kept out of the document, which must stay
    byte-stable across warm and cold regenerations.
    """
    from repro.experiments.exec import run_spec
    from repro.experiments.registry import get_spec

    entries: dict[str, dict] = {}
    executed = cache_hits = 0
    for name in names:
        spec = get_spec(name)
        try:
            result = run_spec(spec, scale=scale, jobs=jobs, cache=cache,
                              resume=resume)
        except ReproError as exc:
            entries[name] = failed_entry(spec.title, str(exc))
            continue
        stats = getattr(result, "stats", None)
        if stats is not None:
            executed += stats.executed
            cache_hits += stats.cache_hits
            print(f"[{name}: {stats.summary()}]")
        entry = evaluate_result(spec, result)
        if entry is None:
            entry = {"title": spec.title, "verdict": "pass", "claims": []}
        entries[name] = entry
    print(f"[cells across {len(names)} experiment(s): "
          f"{executed} executed, {cache_hits} cache hits]")
    scale_name = scale or os.environ.get("REPRO_SCALE", "smoke")
    return build_validation(entries, scale=scale_name)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.cellcache import CellCache, default_cache_dir
    from repro.experiments.registry import EXPERIMENTS

    names = (list(EXPERIMENTS) if "all" in args.experiments
             else args.experiments)
    cache = None if args.no_cache else CellCache(
        args.cache_dir or default_cache_dir())
    doc = validate_experiments(names, args.scale, jobs=max(1, args.jobs),
                               cache=cache, resume=args.resume)
    path = write_validation(args.out, doc)
    print(f"[validation document written to {path}]")
    if args.md:
        md = Path(args.md)
        md.parent.mkdir(parents=True, exist_ok=True)
        md.write_text(render_markdown(doc), encoding="utf-8")
        print(f"[markdown verdict table written to {md}]")
    print(render_summary_line(doc))
    if doc_failed(doc) and not args.no_fail:
        return 1
    return 0


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
