"""Content-addressed on-disk cache for simulation cells.

Every simulation cell — one ``(mix, SystemConfig, Scale, seed)`` run, an
alone-IPC reference, or a kernel measurement — is identified by the
SHA-256 of a *canonical* rendering of everything that determines its
result, plus :data:`CODE_VERSION` (a hash of the simulation sources, so
entries computed by other simulator code can never be mistaken for
current ones).  Entries are small JSON files, written atomically, so
any number of worker processes can share one cache directory: a cell
computed by one worker is immediately visible to every other worker and
to every future invocation.

Layout::

    <cache-dir>/<first two key hex chars>/<key>.json

Each entry is either a result::

    {"status": "ok", "version": ..., "label": ..., "result": ...}

or a recorded failure (so a crashing cell is reported instantly on the
next run instead of being recomputed; pass ``resume=True`` to retry)::

    {"status": "error", "version": ..., "label": ..., "error": ...,
     "traceback": ...}
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

#: Every source that can change a simulated result, relative to the
#: ``repro`` package: the model trees, the cell runners, the scales they
#: read (``Scale.footprint_scale`` steers warmup), the modules hosting a
#: ``TaskCell`` body (a task key holds only its name and kwargs) and the
#: result type.
_SIMULATION_SOURCES = (
    "engine", "core", "cache", "hierarchy", "mem", "policies", "workloads",
    "backends", "flat", "experiments/common.py", "experiments/scale.py",
    "experiments/fig01_bandwidth_vs_hitrate.py",
    "experiments/ext_flat_memory.py", "metrics/stats.py",
)


def code_version(root: Union[str, Path] = Path(__file__).parents[1]) -> str:
    """SHA-256 over the sorted relative paths and bytes of the
    :data:`_SIMULATION_SOURCES` under the package directory ``root``."""
    root = Path(root)
    files = []
    for entry in _SIMULATION_SOURCES:
        path = root / entry
        files.extend(path.rglob("*.py") if path.is_dir() else [path])
    digest = hashlib.sha256()
    for rel in sorted(path.relative_to(root).as_posix() for path in files):
        data = (root / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


#: Salt of every cell key, derived once at import: any edit to a
#: simulation source makes every older cache entry unreachable. CI keys
#: its cell-cache restore on this value too.
CODE_VERSION = code_version()

#: Result dataclasses that may be stored in / restored from the cache,
#: resolved lazily so this module stays import-light.
_RESULT_TYPES = {
    "RunResult": "repro.metrics.stats",
    "KernelResult": "repro.workloads.kernels",
}


# ----------------------------------------------------------------------
# Canonical keys
# ----------------------------------------------------------------------

def canonical(value: Any) -> str:
    """A deterministic string rendering of configs, scales, and mixes.

    Dataclasses render as ``ClassName(field=..., ...)`` with fields in
    declaration order, recursing into nested dataclasses (DramConfig,
    DramTiming, SramLevels, ...); containers recurse; floats use
    ``repr`` so distinct values never collide.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ", ".join(
            f"{f.name}={canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    if isinstance(value, dict):
        items = ", ".join(
            f"{canonical(k)}: {canonical(v)}" for k, v in sorted(value.items())
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(canonical(v) for v in value) + "]"
    if isinstance(value, float):
        return repr(value)
    return repr(value) if isinstance(value, str) else str(value)


def cell_key(parts: tuple) -> str:
    """SHA-256 over the canonical parts, salted with :data:`CODE_VERSION`."""
    text = "\x1f".join([CODE_VERSION, *[canonical(p) for p in parts]])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def alone_ipc_key_parts(profile_name: str, config, scale) -> tuple:
    """Key parts for one workload's alone-run IPC reference.

    Normalized to the single-core baseline platform first, so every mix
    and policy sharing a platform shares the same reference cell.
    """
    solo = dataclasses.replace(config, num_cores=1, policy="baseline")
    return ("alone-ipc", profile_name, solo, scale)


# ----------------------------------------------------------------------
# Result (de)serialization
# ----------------------------------------------------------------------

def encode_result(obj: Any) -> Any:
    """JSON-encodable form of a cell result.

    Registered result dataclasses become ``{"__type__": ..., "data": ...}``;
    everything else must already be JSON-serializable (dict/list/scalars).
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        name = type(obj).__name__
        if name not in _RESULT_TYPES:
            raise TypeError(
                f"cell returned unregistered dataclass {name!r}; register it "
                "in repro.experiments.cellcache._RESULT_TYPES"
            )
        return {"__type__": name, "data": dataclasses.asdict(obj)}
    return obj


def decode_result(data: Any) -> Any:
    """Inverse of :func:`encode_result`."""
    if isinstance(data, dict) and "__type__" in data:
        name = data["__type__"]
        module = importlib.import_module(_RESULT_TYPES[name])
        return getattr(module, name)(**data["data"])
    return data


def _embedded_manifest(encoded: Any) -> Optional[dict]:
    """The run manifest carried inside an encoded result, if any."""
    if not isinstance(encoded, dict):
        return None
    extras = encoded.get("data", {}).get("extras")
    if isinstance(extras, dict):
        manifest = extras.get("manifest")
        if isinstance(manifest, dict):
            return manifest
    return None


# ----------------------------------------------------------------------
# Execution bookkeeping (shared by the engine and the runner summary)
# ----------------------------------------------------------------------

@dataclass
class CellFailure:
    """One cell that did not produce a result.

    ``policy`` is the steering policy the cell was configured with (empty
    for policy-less cells, e.g. kernel measurements), so a broken policy
    is identifiable from the batch summary and error message alone.
    """

    label: str
    error: str
    policy: str = ""


@dataclass
class CellProfile:
    """Wall-time / throughput of one cell actually executed this run."""

    label: str
    wall: float               # seconds spent inside the cell
    events: int = 0           # simulator events dispatched (from manifest)
    cycles: int = 0           # simulated cycles (from manifest)

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall if self.wall > 0 else 0.0


@dataclass
class ExecStats:
    """What one sweep did: the runner's cache-hit / execution counters."""

    total: int = 0            # distinct cells requested
    executed: int = 0         # simulations actually run this invocation
    cache_hits: int = 0       # cells served from the on-disk cache
    replayed_failures: int = 0  # cached failures reported without retrying
    failures: list[CellFailure] = field(default_factory=list)
    profile: list[CellProfile] = field(default_factory=list)
    elapsed: float = 0.0
    #: Trace-store accounting (see :class:`repro.backends.base.TraceStore`):
    #: materialized traces built this invocation vs. served from the
    #: in-process content-addressed store.
    traces_generated: int = 0
    traces_reused: int = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def merge(self, other: "ExecStats") -> None:
        self.total += other.total
        self.executed += other.executed
        self.cache_hits += other.cache_hits
        self.replayed_failures += other.replayed_failures
        self.failures.extend(other.failures)
        self.profile.extend(other.profile)
        self.elapsed += other.elapsed
        self.traces_generated += other.traces_generated
        self.traces_reused += other.traces_reused

    def summary(self) -> str:
        text = (f"{self.total} cells: {self.executed} executed, "
                f"{self.cache_hits} cached, {self.failed} failed")
        policies = sorted({f.policy for f in self.failures if f.policy})
        if policies:
            text += f" (policies: {', '.join(policies)})"
        if self.traces_generated or self.traces_reused:
            text += (f"; traces: {self.traces_generated} generated, "
                     f"{self.traces_reused} reused")
        return text

    def profile_summary(self, top: int = 3) -> str:
        """Per-cell profile digest: slowest cells, aggregate throughput.

        Event/cycle counts come from run manifests; cells without one
        (kernel measurements, task cells) report wall time only.
        """
        if not self.profile:
            return "[profile: no cells executed]"
        wall = sum(p.wall for p in self.profile)
        events = sum(p.events for p in self.profile)
        head = f"[profile: {len(self.profile)} cells in {wall:.1f}s of simulation"
        if events:
            head += (f" ({events} events, "
                     f"{events / wall if wall > 0 else 0.0:,.0f} "
                     f"events/s aggregate)")
        lines = [head + "]"]
        slowest = sorted(self.profile, key=lambda p: p.wall, reverse=True)
        for prof in slowest[:top]:
            line = f"  slowest: {prof.label}  {prof.wall:.2f}s"
            if prof.events:
                line += (f"  {prof.events_per_sec:,.0f} events/s  "
                         f"{prof.cycles} cycles")
            lines.append(line)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------

class CellCache:
    """Atomic JSON-file cache shared by workers and invocations."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The raw entry for ``key``, or None."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            return None  # missing or torn entry == cache miss

    def get_result(self, key: str) -> Optional[Any]:
        """The decoded result for ``key`` if a successful entry exists."""
        entry = self.get(key)
        if entry is None or entry.get("status") != "ok":
            return None
        return decode_result(entry["result"])

    def manifest_path(self, key: str) -> Path:
        """Sidecar manifest location for a cached cell."""
        return self.root / key[:2] / f"{key}.manifest.json"

    def get_manifest(self, key: str) -> Optional[dict]:
        """The run manifest stored alongside a cached cell, if any."""
        try:
            with open(self.manifest_path(key), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            return None

    def _write(self, key: str, payload: dict) -> None:
        self._write_path(self._path(key), payload)

    def _write_path(self, path: Path, payload: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)  # atomic: readers see old or new, never torn
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def put_result(self, key: str, result: Any, label: str = "") -> None:
        encoded = encode_result(result)
        self._write(key, {
            "status": "ok", "version": CODE_VERSION, "label": label,
            "result": encoded,
        })
        manifest = _embedded_manifest(encoded)
        if manifest is not None:
            self._write_path(self.manifest_path(key), manifest)

    def put_failure(self, key: str, error: str, traceback_text: str = "",
                    label: str = "") -> None:
        self._write(key, {
            "status": "error", "version": CODE_VERSION, "label": label,
            "error": error, "traceback": traceback_text,
        })

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))


# ----------------------------------------------------------------------
# Process-wide default cache (what worker processes are configured with)
# ----------------------------------------------------------------------

_DEFAULT_CACHE: Optional[CellCache] = None


def configure_default(root: Optional[Union[str, Path, CellCache]]) -> None:
    """Install (or clear, with None) this process's default cell cache.

    The execution engine calls this in every worker it spawns, so
    helpers like :func:`repro.experiments.common.alone_ipc` share one
    on-disk store across workers instead of recomputing per process.
    """
    global _DEFAULT_CACHE
    if root is None:
        _DEFAULT_CACHE = None
    elif isinstance(root, CellCache):
        _DEFAULT_CACHE = root
    else:
        _DEFAULT_CACHE = CellCache(root)


def get_default_cache() -> Optional[CellCache]:
    return _DEFAULT_CACHE


def default_cache_dir() -> str:
    """The CLI's default cache location (``$REPRO_CACHE_DIR`` wins)."""
    return os.environ.get("REPRO_CACHE_DIR", ".repro-cache")
