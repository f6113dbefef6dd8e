"""Terminal bar charts for experiment results.

The paper's artifacts are bar charts; this module renders an
:class:`~repro.experiments.scale.ExperimentResult` column as horizontal
ASCII bars so `repro experiment --chart` output reads like the figure it
reproduces.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import ConfigError

BAR_CHARS = "▏▎▍▌▋▊▉█"
DEFAULT_WIDTH = 40


def _bar(value: float, scale_max: float, width: int) -> str:
    if scale_max <= 0:
        return ""
    fraction = max(0.0, min(1.0, value / scale_max))
    cells = fraction * width
    full = int(cells)
    remainder = cells - full
    bar = "█" * full
    if remainder > 1e-9 and full < width:
        bar += BAR_CHARS[min(len(BAR_CHARS) - 1, int(remainder * len(BAR_CHARS)))]
    return bar


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    title: str = "",
    width: int = DEFAULT_WIDTH,
    baseline: Optional[float] = None,
    fmt: str = "{:.3f}",
) -> str:
    """Render labelled horizontal bars.

    ``baseline`` draws a reference mark (e.g. 1.0 for normalized
    speedups) as a ``|`` in the bar area.
    """
    if len(labels) != len(values):
        raise ConfigError("labels and values must have equal length")
    if not labels:
        raise ConfigError("nothing to chart")
    if width <= 0:
        raise ConfigError("width must be positive")
    scale_max = max(list(values) + ([baseline] if baseline else [])) * 1.05
    label_w = max(len(str(label)) for label in labels)
    lines = []
    if title:
        lines.append(title)
    for label, value in zip(labels, values):
        bar = _bar(value, scale_max, width)
        if baseline is not None and scale_max > 0:
            mark = int(min(1.0, baseline / scale_max) * width)
            padded = list(bar.ljust(width))
            if 0 <= mark < width and padded[mark] == " ":
                padded[mark] = "|"
            bar = "".join(padded).rstrip()
        lines.append(f"{str(label):>{label_w}s} {fmt.format(value):>8s} {bar}")
    return "\n".join(lines)


def chart_result(result, column: int = 1, width: int = DEFAULT_WIDTH,
                 baseline: Optional[float] = None) -> str:
    """Chart one numeric column of an ExperimentResult."""
    labels, values = [], []
    for row in result.rows:
        if column < len(row) and isinstance(row[column], (int, float)):
            labels.append(str(row[0]))
            values.append(float(row[column]))
    if not labels:
        raise ConfigError(f"column {column} has no numeric data")
    title = f"{result.experiment} — {result.headers[column]}"
    return bar_chart(labels, values, title=title, width=width,
                     baseline=baseline)
