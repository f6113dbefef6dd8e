"""Determinism fingerprinting for bit-identical-results guarantees.

Perf work on the simulator hot path is only safe when every run stays
**bit-identical** to pre-optimization output: same event order, same
stats, same trace bytes. This module reduces a finished run to a
JSON-stable *fingerprint* — every deterministic field of the
:class:`~repro.metrics.stats.RunResult`, the per-channel DRAM stats, the
deterministic subset of the manifest, and a SHA-256 over the JSONL trace
— so a golden file captured before an optimization can prove the
optimized code produces the very same bits.

Volatile provenance (wall seconds, events/sec, git SHA, absolute paths)
is excluded by construction; everything else, down to per-kind CAS
ordering and per-decision credit snapshots streamed into the trace, must
match exactly.

Usage::

    golden = capture_golden(["mcf"], ["baseline", "dap"], trace_dir=tmp)
    diff = diff_goldens(load_golden(path), golden)
    assert not diff

``python -m repro.obs.golden --out tests/golden/determinism_golden.json``
regenerates the committed golden (only legitimate after an intentional
model change, never for a perf-only PR).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional, Union

GOLDEN_SCHEMA = 1

#: Manifest keys that vary run-to-run (or machine-to-machine) and are
#: therefore excluded from fingerprints.
VOLATILE_MANIFEST_KEYS = ("wall_seconds", "events_per_sec", "git_sha")

#: Fingerprint keys that depend on the *final* ``sim.now`` and on the
#: sampler's own events. The telemetry sampler legitimately keeps the
#: clock alive a little past the last simulation event, so these differ
#: between traced and untraced runs of the same cell — while remaining
#: exactly reproducible run-to-run for a fixed instrumentation setup.
OBSERVATION_SENSITIVE_KEYS = (
    "delivered_gbps",
    ("extras", "mm_gbps"),
    ("extras", "cache_gbps"),
    ("extras", "cache_write_gbps"),
    ("manifest", "events"),
    ("manifest", "telemetry"),
)


def _strip_observation_sensitive(fingerprint: dict) -> dict:
    """Drop the keys that may differ between traced and untraced runs."""
    out = {k: (dict(v) if isinstance(v, dict) else v)
           for k, v in fingerprint.items()}
    for key in OBSERVATION_SENSITIVE_KEYS:
        if isinstance(key, tuple):
            outer, inner = key
            out.get(outer, {}).pop(inner, None)
        else:
            out.pop(key, None)
    return out


def _jsonable(value):
    """Round-trip through JSON semantics (tuples->lists, enum keys->str)."""
    if isinstance(value, dict):
        return {str(getattr(k, "value", k)): _jsonable(v)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        # repr() round-trips exactly in JSON; keep full precision.
        return value
    return value


def channel_fingerprint(channel) -> dict:
    """Every deterministic counter of one DRAM channel."""
    stats = channel.stats
    return _jsonable({
        "cas_by_kind": {k.value: v for k, v in stats.cas_by_kind.items()},
        "row_hits": stats.row_hits,
        "row_misses": stats.row_misses,
        "busy_cycles": stats.busy_cycles,
        "reads_done": stats.reads_done,
        "writes_done": stats.writes_done,
        "demand_read_latency_sum": stats.demand_read_latency_sum,
        "demand_reads_done": stats.demand_reads_done,
        "mode_switches": stats.mode_switches,
    })


def result_fingerprint(result) -> dict:
    """Deterministic projection of a :class:`RunResult` (+ manifest)."""
    extras = {k: _jsonable(v) for k, v in result.extras.items()
              if k != "manifest"}
    manifest = result.manifest or {}
    manifest = {k: _jsonable(v) for k, v in manifest.items()
                if k not in VOLATILE_MANIFEST_KEYS}
    return {
        "policy": result.policy,
        "cycles": result.cycles,
        "instructions": list(result.instructions),
        "ipc": list(result.ipc),
        "l3_mpki": list(result.l3_mpki),
        "avg_read_latency": result.avg_read_latency,
        "served_hit_rate": result.served_hit_rate,
        "array_hit_rate": result.array_hit_rate,
        "mm_cas": result.mm_cas,
        "cache_cas": result.cache_cas,
        "mm_cas_fraction": result.mm_cas_fraction,
        "delivered_gbps": result.delivered_gbps,
        "tag_cache_miss_rate": result.tag_cache_miss_rate,
        "dap_decisions": dict(result.dap_decisions),
        "extras": extras,
        "manifest": manifest,
    }


def sha256_file(path: Union[str, Path]) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def capture_cell(workload: str, policy: str, scale_name: str = "smoke",
                 trace_dir: Optional[Union[str, Path]] = None) -> dict:
    """Run one seeded cell untraced and (optionally) traced.

    Returns the cell's fingerprint; when ``trace_dir`` is given the cell
    is additionally run with telemetry attached, the traced result is
    asserted identical to the untraced one (telemetry must only
    observe), and the trace's SHA-256 joins the fingerprint.
    """
    from repro.experiments.common import get_scale, run_mix, scaled_config
    from repro.obs.telemetry import TelemetryConfig
    from repro.obs.trace import trace_paths
    from repro.workloads.mixes import rate_mix

    scale = get_scale(scale_name)
    mix = rate_mix(workload)
    config = scaled_config(scale, policy=policy)
    label = f"{workload}/{policy}"

    system_out: list = []
    result = run_mix(mix, config, scale, label=label, system_out=system_out)
    untraced = result_fingerprint(result)
    msc = system_out[0].msc
    channels = {}
    for dev_name in ("mm_dev", "cache_dev", "cache_write_dev"):
        device = getattr(msc, dev_name, None)
        if device is not None:
            for channel in device.channels:
                channels[channel.name] = channel_fingerprint(channel)
    entry = {"label": label, "scale": scale_name, "result": untraced,
             "channels": channels}

    if trace_dir is not None:
        telemetry = TelemetryConfig(probe_interval=5_000,
                                    trace_dir=str(trace_dir))
        traced = result_fingerprint(
            run_mix(mix, config, scale, telemetry=telemetry, label=label))
        # Telemetry must only observe: outside the sampler's own clock
        # extension, the simulated outcome is unaffected by tracing.
        if (_strip_observation_sensitive(traced)
                != _strip_observation_sensitive(untraced)):
            raise AssertionError(
                f"{label}: traced run diverged from untraced run")
        trace_path, _ = trace_paths(trace_dir, label)
        entry["trace_sha256"] = sha256_file(trace_path)
        entry["telemetry"] = traced["manifest"].get("telemetry")
    return entry


def capture_golden(workloads, policies, scale_name: str = "smoke",
                   trace_dir: Optional[Union[str, Path]] = None) -> dict:
    """Fingerprint a grid of ``workload x policy`` cells."""
    cells = {}
    for workload in workloads:
        for policy in policies:
            entry = capture_cell(workload, policy, scale_name=scale_name,
                                 trace_dir=trace_dir)
            cells[entry["label"]] = entry
    return {"schema": GOLDEN_SCHEMA, "scale": scale_name, "cells": cells}


def diff_goldens(expected: dict, actual: dict, prefix: str = "") -> list[str]:
    """Human-readable paths at which two fingerprints disagree."""
    diffs: list[str] = []
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            where = f"{prefix}.{key}" if prefix else str(key)
            if key not in expected:
                diffs.append(f"{where}: unexpected key")
            elif key not in actual:
                diffs.append(f"{where}: missing key")
            else:
                diffs.extend(diff_goldens(expected[key], actual[key], where))
        return diffs
    if expected != actual:
        diffs.append(f"{prefix}: {expected!r} != {actual!r}")
    return diffs


def write_golden(path: Union[str, Path], golden: dict) -> str:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return str(path)


def load_golden(path: Union[str, Path]) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(
        description="Capture a determinism golden fingerprint")
    parser.add_argument("--out", required=True, metavar="FILE")
    parser.add_argument("--workloads", nargs="*", default=["mcf"])
    parser.add_argument("--policies", nargs="*", default=["baseline", "dap"])
    parser.add_argument("--scale", default="smoke")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        golden = capture_golden(args.workloads, args.policies,
                                scale_name=args.scale, trace_dir=tmp)
    print(f"golden written to {write_golden(args.out, golden)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
