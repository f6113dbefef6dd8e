"""Run manifests: what was simulated, under what code, and how fast.

A manifest is a plain JSON-serializable dict built from a finished
:class:`~repro.hierarchy.system.System`. It travels in
``RunResult.extras["manifest"]`` (so cached cells carry their provenance)
and, when tracing, is written next to the trace as
``<stem>.manifest.json``.
"""

from __future__ import annotations

import dataclasses
import subprocess
from pathlib import Path
from typing import Optional

from repro.obs.spans import current_traceparent

MANIFEST_SCHEMA = 1

_GIT_SHA: Optional[str] = None
_GIT_SHA_PROBED = False


def git_sha() -> Optional[str]:
    """The repo HEAD at import-tree location, or None outside a checkout.

    Probed once per process (manifests are emitted per cell; the SHA
    cannot change mid-run).
    """
    global _GIT_SHA, _GIT_SHA_PROBED
    if _GIT_SHA_PROBED:
        return _GIT_SHA
    _GIT_SHA_PROBED = True
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5, check=False,
        )
        if out.returncode == 0:
            _GIT_SHA = out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        _GIT_SHA = None
    return _GIT_SHA


def config_dict(config) -> dict:
    """A JSON-serializable rendering of a SystemConfig (nested dataclasses
    — DramConfig, DramTiming, SramLevels — flatten to plain dicts)."""
    return dataclasses.asdict(config)


def build_manifest(
    system,
    wall_seconds: float,
    label: Optional[str] = None,
    scale: Optional[str] = None,
    telemetry=None,
) -> dict:
    """Summarize one finished run.

    ``telemetry`` (a :class:`~repro.obs.telemetry.Telemetry`, when the
    run was instrumented) contributes its sampling summary.
    """
    events = system.sim.events_dispatched
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "label": label,
        "scale": scale,
        "policy": system.config.policy,
        "policy_describe": system.msc.policy.describe(),
        "config": config_dict(system.config),
        "git_sha": git_sha(),
        "cycles": system.cycles,
        "events": events,
        "wall_seconds": round(wall_seconds, 6),
        "events_per_sec": (round(events / wall_seconds, 1)
                           if wall_seconds > 0 else 0.0),
        "telemetry": telemetry.summary() if telemetry is not None else None,
    }
    traceparent = current_traceparent()
    if traceparent:
        # Only present for runs executed under a trace context (service
        # jobs): the request's W3C trace id follows the run into its
        # provenance record, closing the request -> cell -> trace loop.
        manifest["traceparent"] = traceparent
    return manifest
