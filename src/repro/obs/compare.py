"""Run-to-run comparison: config diffs, metric deltas, regression gates.

Two finished runs (or two whole trace directories) diff in three parts:

- **manifest diff** — every configuration key that changed between the
  runs (so a metric delta is never read without knowing whether the
  platform changed under it);
- **metric deltas** — the analyzer's scalar digest
  (:meth:`~repro.obs.analysis.TraceAnalysis.metrics`) compared entry by
  entry with per-metric relative thresholds and directions
  (``events_per_sec`` regresses down, ``mean_partition_gap`` regresses
  up); tiny absolute wobbles below a per-metric floor never count;
- **verdict** — :func:`ComparisonResult.regressed` is the CI gate: the
  ``repro analyze compare`` command exits non-zero when any thresholded
  metric regressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.errors import ConfigError
from repro.obs.analysis import TraceAnalysis, analyze_trace


@dataclass(frozen=True)
class MetricSpec:
    """How one metric is judged: relative threshold and direction.

    ``threshold=None`` marks an informational metric — always reported,
    never a regression. ``abs_floor`` suppresses relative blow-ups on
    near-zero baselines (a gap moving 0.001 -> 0.002 is not a 2x
    regression worth failing CI over).
    """

    threshold: Optional[float] = None
    higher_is_better: bool = True
    abs_floor: float = 0.0


#: Default regression gates. Anything not listed is informational.
DEFAULT_THRESHOLDS: dict[str, MetricSpec] = {
    # Simulated outcome: any cycle-count drift is a correctness alarm.
    "cycles": MetricSpec(threshold=0.0, higher_is_better=False),
    # Simulator throughput: wall-clock noisy, so gate loosely.
    "events_per_sec": MetricSpec(threshold=0.5, higher_is_better=True,
                                 abs_floor=1000.0),
    # Partition quality (the paper's Eq. 2/3 accounting).
    "mean_delivered_gbps": MetricSpec(threshold=0.10, higher_is_better=True,
                                      abs_floor=0.5),
    "mean_partition_gap": MetricSpec(threshold=0.10, higher_is_better=False,
                                     abs_floor=0.02),
    "mean_loss_gbps": MetricSpec(threshold=0.10, higher_is_better=False,
                                 abs_floor=0.5),
    "mean_read_latency": MetricSpec(threshold=0.10, higher_is_better=False,
                                    abs_floor=2.0),
}


@dataclass
class MetricDelta:
    """One metric compared across baseline and candidate."""

    name: str
    baseline: Optional[float]
    candidate: Optional[float]
    spec: MetricSpec
    regressed: bool = False

    @property
    def rel_change(self) -> Optional[float]:
        if self.baseline is None or self.candidate is None:
            return None
        if self.baseline == 0:
            return None if self.candidate == 0 else float("inf")
        return (self.candidate - self.baseline) / abs(self.baseline)


@dataclass
class ComparisonResult:
    """One baseline/candidate pair, fully judged."""

    label: str
    manifest_diff: dict[str, tuple] = field(default_factory=dict)
    deltas: list[MetricDelta] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def regressed(self) -> bool:
        return bool(self.regressions)


# ----------------------------------------------------------------------
# Manifest diffing
# ----------------------------------------------------------------------

def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key),
                     value[key], out)
    else:
        out[prefix] = value


def diff_manifests(baseline: Optional[dict],
                   candidate: Optional[dict]) -> dict[str, tuple]:
    """Configuration keys that differ: ``{key: (baseline, candidate)}``.

    Only identity-bearing fields are compared (config, policy, scale,
    schema) — volatile fields like wall time, git SHA, and event counts
    belong in the metric deltas, not the config diff.
    """
    diff: dict[str, tuple] = {}
    for part in ("policy", "policy_describe", "scale", "schema", "config"):
        flat_a: dict = {}
        flat_b: dict = {}
        _flatten(part, (baseline or {}).get(part), flat_a)
        _flatten(part, (candidate or {}).get(part), flat_b)
        for key in sorted(set(flat_a) | set(flat_b)):
            a, b = flat_a.get(key), flat_b.get(key)
            if a != b:
                diff[key] = (a, b)
    return diff


# ----------------------------------------------------------------------
# Metric comparison
# ----------------------------------------------------------------------

def compare_metrics(
    baseline: dict[str, float],
    candidate: dict[str, float],
    thresholds: Optional[dict[str, MetricSpec]] = None,
) -> list[MetricDelta]:
    """Judge every metric either run reports against the thresholds."""
    table = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        table.update(thresholds)
    deltas = []
    for name in sorted(set(baseline) | set(candidate)):
        spec = table.get(name, MetricSpec())
        delta = MetricDelta(name=name, baseline=baseline.get(name),
                            candidate=candidate.get(name), spec=spec)
        if (spec.threshold is not None and delta.baseline is not None
                and delta.candidate is not None):
            change = delta.candidate - delta.baseline
            bad = -change if spec.higher_is_better else change
            rel_bad = bad / abs(delta.baseline) if delta.baseline else (
                float("inf") if bad > 0 else 0.0)
            delta.regressed = (bad > spec.abs_floor
                               and rel_bad > spec.threshold)
        deltas.append(delta)
    return deltas


def compare_runs(
    baseline: TraceAnalysis,
    candidate: TraceAnalysis,
    thresholds: Optional[dict[str, MetricSpec]] = None,
) -> ComparisonResult:
    """Diff two analyzed runs (manifest config + metric deltas)."""
    label = candidate.label or baseline.label or Path(candidate.path).name
    return ComparisonResult(
        label=label,
        manifest_diff=diff_manifests(baseline.manifest, candidate.manifest),
        deltas=compare_metrics(baseline.metrics(), candidate.metrics(),
                               thresholds),
    )


# ----------------------------------------------------------------------
# Directory comparison
# ----------------------------------------------------------------------

def _traces_by_stem(root: Path) -> dict[str, Path]:
    return {p.name[: -len(".trace.jsonl")]: p
            for p in sorted(root.rglob("*.trace.jsonl"))}


@dataclass
class DirComparison:
    """Label-matched comparison of two trace directories."""

    runs: list[ComparisonResult] = field(default_factory=list)
    only_baseline: list[str] = field(default_factory=list)
    only_candidate: list[str] = field(default_factory=list)

    @property
    def regressed(self) -> bool:
        return any(run.regressed for run in self.runs)


def compare_dirs(
    baseline_dir: Union[str, Path],
    candidate_dir: Union[str, Path],
    thresholds: Optional[dict[str, MetricSpec]] = None,
) -> DirComparison:
    """Compare every trace stem present in both directories."""
    base = _traces_by_stem(Path(baseline_dir))
    cand = _traces_by_stem(Path(candidate_dir))
    if not base:
        raise ConfigError(f"no *.trace.jsonl under {baseline_dir}")
    if not cand:
        raise ConfigError(f"no *.trace.jsonl under {candidate_dir}")
    result = DirComparison(
        only_baseline=sorted(set(base) - set(cand)),
        only_candidate=sorted(set(cand) - set(base)),
    )
    for stem in sorted(set(base) & set(cand)):
        result.runs.append(compare_runs(analyze_trace(base[stem]),
                                        analyze_trace(cand[stem]),
                                        thresholds))
    return result


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def render_comparison(result: ComparisonResult) -> str:
    """Plain-text report for one baseline/candidate pair."""
    lines = [f"== compare: {result.label} =="]
    if result.manifest_diff:
        lines.append("config differences (baseline -> candidate):")
        for key, (a, b) in result.manifest_diff.items():
            lines.append(f"  {key}: {a!r} -> {b!r}")
    else:
        lines.append("config: identical")
    name_w = max((len(d.name) for d in result.deltas), default=6)
    lines.append(f"{'metric'.ljust(name_w)}  {'baseline':>12}  "
                 f"{'candidate':>12}  {'change':>8}  verdict")
    for delta in result.deltas:
        rel = delta.rel_change
        rel_text = "-" if rel is None else f"{rel:+.1%}"
        if delta.regressed:
            verdict = f"REGRESSED (>{delta.spec.threshold:.0%})"
        elif delta.spec.threshold is None:
            verdict = "info"
        else:
            verdict = "ok"

        def fmt(v: Optional[float]) -> str:
            return "-" if v is None else f"{v:,.4g}"

        lines.append(f"{delta.name.ljust(name_w)}  {fmt(delta.baseline):>12}  "
                     f"{fmt(delta.candidate):>12}  {rel_text:>8}  {verdict}")
    lines.append(f"verdict: {'REGRESSED' if result.regressed else 'ok'} "
                 f"({len(result.regressions)} regression(s))")
    return "\n".join(lines)


def render_dir_comparison(result: DirComparison) -> str:
    parts = [render_comparison(run) for run in result.runs]
    if result.only_baseline:
        parts.append("only in baseline: " + ", ".join(result.only_baseline))
    if result.only_candidate:
        parts.append("only in candidate: " + ", ".join(result.only_candidate))
    parts.append(f"overall: {'REGRESSED' if result.regressed else 'ok'} "
                 f"({len(result.runs)} run(s) compared)")
    return "\n\n".join(parts)
