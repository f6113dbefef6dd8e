"""Cell-based experiment execution engine.

Every experiment decomposes into independent **simulation cells** — a
pure ``(mix, SystemConfig, Scale, seed)`` tuple (or an alone-IPC
reference, or a driver-level kernel measurement).  The engine:

- fans cells out over a :class:`~concurrent.futures.ProcessPoolExecutor`
  (``jobs=N``; serial in-process when ``jobs=1``),
- memoizes each cell in a content-addressed on-disk JSON cache
  (:mod:`repro.experiments.cellcache`), so repeated invocations — and
  different experiments sharing a cell, e.g. the per-workload baseline
  runs of fig06 and fig08 — never recompute,
- survives per-cell failures and worker crashes: failures are recorded
  (on disk, when caching) and reported at the end instead of aborting
  the sweep; re-running with ``resume=True`` retries recorded failures
  while serving every completed cell from the cache.

Experiments describe themselves declaratively with
:class:`ExperimentSpec`: a ``cells(scale, workloads)`` generator and a
``render(cell_results)`` reducer replace the old imperative
``module.run(scale)`` entry points.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, replace
from typing import (TYPE_CHECKING, Any, Callable, Iterable, Optional,
                    Sequence, Union)

from repro.backends.base import active_backend, reset_backend
from repro.errors import ReproError
from repro.experiments import cellcache
from repro.experiments.cellcache import (
    CellCache,
    CellFailure,
    CellProfile,
    ExecStats,
    alone_ipc_key_parts,
    cell_key,
)
from repro.experiments.scale import ExperimentResult, Scale, get_scale

if TYPE_CHECKING:
    from repro.hierarchy.config import SystemConfig
    from repro.obs.telemetry_config import TelemetryConfig
    from repro.workloads.mixes import Mix


class CellExecutionError(ReproError):
    """One or more cells of a sweep failed; the rest are cached.

    Carries the sweep's :class:`ExecStats` so callers (the runner's
    batch summary) can still account for the cells that *did* execute
    before the failure was reported.
    """

    def __init__(self, message: str, failures: Sequence[CellFailure] = (),
                 stats: Optional[ExecStats] = None):
        super().__init__(message)
        self.failures = list(failures)
        self.stats = stats


class CellExecutionCancelled(ReproError):
    """A sweep was stopped before every cell ran (timeout, cancel, drain).

    Everything that *did* run is already in the cell cache, so re-running
    the sweep resumes where it stopped instead of restarting.  ``reason``
    is whatever the ``should_stop`` hook returned; ``stats`` accounts for
    the cells completed before the stop.
    """

    def __init__(self, message: str, reason: str = "",
                 stats: Optional[ExecStats] = None):
        super().__init__(message)
        self.reason = reason
        self.stats = stats


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MixCell:
    """One multi-programmed simulation: build, warm, run, collect."""

    label: str
    mix: Mix
    config: SystemConfig
    scale: Scale
    seed: int = 0
    warm: bool = True
    #: Optional instrumentation (probes + JSONL trace). Deliberately NOT
    #: part of the cache key: telemetry observes a run without changing
    #: its result, so traced and untraced invocations share cells.
    telemetry: Optional[TelemetryConfig] = None

    def key_parts(self) -> tuple:
        # run_mix sizes the platform to the mix, so configs differing
        # only in a to-be-replaced core count share a cell.
        config = replace(self.config, num_cores=self.mix.num_cores)
        return ("mix", self.mix.name, self.mix.members, config, self.scale,
                self.seed, self.warm)

    def execute(self):
        # The simulator loads when a cell runs, never to key or render one.
        from repro.experiments.common import run_mix

        return run_mix(self.mix, self.config, self.scale, warm=self.warm,
                       telemetry=self.telemetry, label=self.label)


@dataclass(frozen=True)
class AloneIpcCell:
    """One workload's alone-run IPC reference (single-core baseline)."""

    label: str
    profile: str
    config: SystemConfig
    scale: Scale

    def key_parts(self) -> tuple:
        return alone_ipc_key_parts(self.profile, self.config, self.scale)

    def execute(self) -> float:
        from repro.experiments.common import alone_ipc

        return alone_ipc(self.profile, self.config, self.scale)


@dataclass(frozen=True)
class TaskCell:
    """Escape hatch for non-mix cells (Fig. 1 kernels, flat placements).

    ``fn`` must be a module-level callable (picklable by reference) and
    ``kwargs`` a tuple of ``(name, value)`` pairs of picklable,
    canonicalizable values; the result must be JSON-serializable or a
    registered result dataclass.
    """

    label: str
    fn: Callable[..., Any]
    kwargs: tuple = ()

    def key_parts(self) -> tuple:
        return ("task", self.fn.__module__, self.fn.__qualname__,
                dict(self.kwargs))

    def execute(self):
        return self.fn(**dict(self.kwargs))


Cell = Union[MixCell, AloneIpcCell, TaskCell]


def _policy_of(cell: Cell) -> str:
    """The steering policy a cell runs under ('' for policy-less cells)."""
    config = getattr(cell, "config", None)
    return getattr(config, "policy", "") if config is not None else ""


# ----------------------------------------------------------------------
# Declarative experiment specification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """A paper artifact, described declaratively.

    ``cells(scale, workloads, **options)`` yields the independent
    simulation cells; ``render(cell_results)`` reduces their results to
    the printed :class:`ExperimentResult`.  ``workload_aware`` declares
    whether the experiment honours a ``--workloads`` restriction (the
    registry replaces the runner's old hand-maintained set).
    """

    name: str
    title: str
    headers: tuple
    cells: Callable[..., Iterable[Cell]]
    render: Callable[["CellResults"], ExperimentResult]
    workload_aware: bool = False
    default_workloads: Optional[tuple] = None
    notes: str = ""
    #: Zero-argument callable yielding the module's registered
    #: :class:`~repro.validate.predicates.Claim` list — the paper
    #: shapes this experiment must reproduce (``--validate`` /
    #: ``repro validate`` evaluate them against the rendered table).
    claims: Optional[Callable[[], Sequence]] = None

    def resolve_workloads(
        self, workloads: Optional[Sequence[str]] = None
    ) -> Optional[list]:
        if not self.workload_aware:
            return None
        return list(workloads or self.default_workloads or ())


@dataclass
class CellResults:
    """What a ``render`` reducer receives: results by cell label."""

    spec: ExperimentSpec
    scale: Scale
    workloads: Optional[list]
    options: dict
    results: dict
    stats: ExecStats

    def __getitem__(self, label: str):
        return self.results[label]

    def get(self, label: str, default=None):
        return self.results.get(label, default)

    def new_result(self, notes: str = "") -> ExperimentResult:
        """An empty table carrying the spec's title and headers."""
        return ExperimentResult(
            experiment=self.spec.title,
            headers=list(self.spec.headers),
            notes=notes or self.spec.notes,
        )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def _execute_one(cell: Cell, key: str, cache: Optional[CellCache]):
    """Run one cell, writing the result (or failure) through the cache.

    Returns ``(label, "ok", result, wall_seconds, traces)`` or
    ``(label, "error", message, wall_seconds, traces)``; never raises,
    so pool futures only fail on worker death.  ``wall_seconds`` is 0.0
    when the cell was served by a racing worker's cache entry.
    ``traces`` is the ``(generated, reused)`` delta this cell caused in
    the process's trace store.
    """
    start = time.perf_counter()
    store = active_backend().store
    gen0, reuse0 = store.generated, store.reused

    def traces() -> tuple[int, int]:
        return store.generated - gen0, store.reused - reuse0

    try:
        if cache is not None:
            # Another worker may have finished this cell since the parent
            # scheduled it.
            hit = cache.get_result(key)
            if hit is not None:
                return cell.label, "ok", hit, 0.0, traces()
        result = cell.execute()
        if cache is not None:
            cache.put_result(key, result, label=cell.label)
        return (cell.label, "ok", result, time.perf_counter() - start,
                traces())
    except Exception as exc:  # noqa: BLE001 — cell isolation is the point
        message = f"{type(exc).__name__}: {exc}"
        if cache is not None:
            try:
                cache.put_failure(key, message, traceback.format_exc(),
                                  label=cell.label)
            except OSError:
                pass
        return (cell.label, "error", message,
                time.perf_counter() - start, traces())


def _profile_of(label: str, payload, wall: float) -> CellProfile:
    """Per-cell profile entry; events/cycles come from the run manifest."""
    manifest = getattr(payload, "manifest", None)
    if not isinstance(manifest, dict):
        manifest = None
    return CellProfile(
        label=label,
        wall=wall,
        events=int(manifest.get("events", 0)) if manifest else 0,
        cycles=int(manifest.get("cycles", 0)) if manifest else 0,
    )


def _worker_run(cell: Cell, key: str, cache_dir: Optional[str]):
    cache = CellCache(cache_dir) if cache_dir else None
    return _execute_one(cell, key, cache)


def _as_cache(cache) -> Optional[CellCache]:
    if cache is None or isinstance(cache, CellCache):
        return cache
    return CellCache(cache)


def execute_cells(
    cells: Sequence[Cell],
    *,
    jobs: int = 1,
    cache: Union[CellCache, str, None] = None,
    resume: bool = False,
    should_stop: Optional[Callable[[], Optional[str]]] = None,
    on_cell: Optional[Callable[[str, str, int, int], None]] = None,
) -> tuple[dict, ExecStats]:
    """Run cells, returning ``(results by label, ExecStats)``.

    Cells sharing a cache key (identical simulations under different
    labels) execute once.  Per-cell failures never abort the sweep; they
    are recorded in the stats (and, when caching, on disk — a later
    invocation replays the failure instantly unless ``resume=True``
    forces a retry).

    Each invocation starts a fresh trace store
    (:mod:`repro.backends.base`), so memoized traces never outlive it.

    ``should_stop`` is the job adapter's cancellation hook: a
    zero-argument callable polled between cells (and between pool
    completions) that returns a reason string — ``"timeout"``,
    ``"cancelled"``, ``"shutdown"``, ... — to stop the sweep, or a
    falsy value to keep going.  Stopping raises
    :class:`CellExecutionCancelled`; cells finished before the stop are
    already in the cache, so a re-run drains only the remainder.

    ``on_cell(label, status, done, total)`` is a progress hook invoked
    once per settled cell with status ``"cached"``, ``"ok"``,
    ``"replayed-failure"`` or ``"error"``; services feed job progress
    streams from it.  Hook exceptions are not caught: hooks are
    engine-adapter code, not user cells.
    """
    cache = _as_cache(cache)
    reset_backend()
    start = time.time()
    stats = ExecStats(total=len(cells))
    results: dict = {}
    errors: dict = {}
    done = 0
    total = len(cells)
    stop_reason: Optional[str] = None

    labels = [cell.label for cell in cells]
    if len(set(labels)) != len(labels):
        dupes = sorted({label for label in labels if labels.count(label) > 1})
        raise ReproError(f"duplicate cell labels: {dupes}")

    keys = {cell.label: cell_key(cell.key_parts()) for cell in cells}

    # Serve what the cache already knows.
    pending: list = []
    for cell in cells:
        key = keys[cell.label]
        entry = cache.get(key) if cache is not None else None
        if entry is not None and entry.get("status") == "ok":
            results[cell.label] = cellcache.decode_result(entry["result"])
            stats.cache_hits += 1
            done += 1
            if on_cell is not None:
                on_cell(cell.label, "cached", done, total)
        elif entry is not None and entry.get("status") == "error" and not resume:
            errors[cell.label] = f"[recorded failure] {entry.get('error')}"
            stats.replayed_failures += 1
            done += 1
            if on_cell is not None:
                on_cell(cell.label, "replayed-failure", done, total)
        else:
            pending.append(cell)

    # Deduplicate identical simulations within the sweep.
    by_key: dict = {}
    for cell in pending:
        by_key.setdefault(keys[cell.label], []).append(cell)
    unique = [group[0] for group in by_key.values()]
    outcomes: dict = {}  # key -> (status, payload)

    def _settled(label: str, status: str) -> None:
        nonlocal done
        # One executed cell may settle several labels sharing its key.
        for twin in by_key.get(keys[label], ()):
            done += 1
            if on_cell is not None:
                on_cell(twin.label, status, done, total)

    def _outcome(label: str, status: str, payload, wall: float,
                 traces: tuple[int, int]) -> None:
        outcomes[keys[label]] = (status, payload)
        stats.traces_generated += traces[0]
        stats.traces_reused += traces[1]
        if status == "ok":
            stats.executed += 1
            if wall > 0:
                stats.profile.append(_profile_of(label, payload, wall))
        _settled(label, status if status == "ok" else "error")

    if unique:
        if jobs > 1 and len(unique) > 1:
            from concurrent.futures import (CancelledError,
                                            ProcessPoolExecutor, as_completed)
            from concurrent.futures.process import BrokenProcessPool

            # Forked workers inherit the simulator instead of each
            # compiling it again for every pool.
            import repro.experiments.common  # noqa: F401
            cache_dir = str(cache.root) if cache is not None else None
            # Each worker starts with a fresh trace store.
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(unique)),
                initializer=reset_backend,
            ) as pool:
                futures = {
                    pool.submit(_worker_run, cell, keys[cell.label],
                                cache_dir): cell
                    for cell in unique
                }
                for future in as_completed(futures):
                    cell = futures[future]
                    try:
                        outcome = future.result()
                    except CancelledError:
                        continue  # never started; the sweep is stopping
                    except BrokenProcessPool:
                        outcome = (
                            cell.label, "error",
                            "worker process crashed (killed or out of memory)",
                            0.0, (0, 0),
                        )
                    except Exception as exc:  # pool plumbing failure
                        outcome = (cell.label, "error",
                                   f"{type(exc).__name__}: {exc}", 0.0, (0, 0))
                    _outcome(*outcome)
                    if should_stop is not None and stop_reason is None:
                        stop_reason = should_stop() or None
                        if stop_reason:
                            # Drain: in-flight cells finish (their results
                            # land in the cache); unstarted ones cancel.
                            for not_started in futures:
                                not_started.cancel()
        else:
            for cell in unique:
                if should_stop is not None:
                    stop_reason = should_stop() or None
                    if stop_reason:
                        break
                _outcome(*_execute_one(cell, keys[cell.label], cache))

    # Fan unique outcomes back out to every label sharing the key.
    for cell in pending:
        if keys[cell.label] not in outcomes:
            continue  # sweep stopped before this cell started
        status, payload = outcomes[keys[cell.label]]
        if status == "ok":
            results[cell.label] = payload
        else:
            errors[cell.label] = payload

    policies = {cell.label: _policy_of(cell) for cell in cells}

    if stop_reason:
        stats.failures = [
            CellFailure(label, errors[label], policy=policies[label])
            for label in labels if label in errors]
        stats.elapsed = time.time() - start
        raise CellExecutionCancelled(
            f"sweep stopped ({stop_reason}) after {done} of {total} cells; "
            "completed cells are cached — re-running resumes the remainder",
            reason=stop_reason, stats=stats,
        )

    stats.failures = [
        CellFailure(label, errors[label], policy=policies[label])
        for label in labels if label in errors]
    stats.elapsed = time.time() - start
    return results, stats


def run_spec(
    spec: ExperimentSpec,
    scale: Union[Scale, str, None] = None,
    workloads: Optional[Sequence[str]] = None,
    *,
    jobs: int = 1,
    cache: Union[CellCache, str, None] = None,
    resume: bool = False,
    options: Optional[dict] = None,
    telemetry: Optional[TelemetryConfig] = None,
    should_stop: Optional[Callable[[], Optional[str]]] = None,
    on_cell: Optional[Callable[[str, str, int, int], None]] = None,
) -> ExperimentResult:
    """Execute a spec's cells and render its table.

    The returned :class:`ExperimentResult` carries the sweep's
    :class:`ExecStats` in ``result.stats`` (the runner's cache-hit
    counter).  Raises :class:`CellExecutionError` if any cell failed —
    every other cell is already in the cache, so a re-run (with
    ``resume=True`` to retry recorded failures) resumes the sweep
    instead of restarting it.  ``telemetry`` instruments every
    simulation cell of the sweep (probe series + JSONL traces); cached
    cells are still served from the cache, since telemetry never
    changes results.
    """
    if not isinstance(scale, Scale):
        scale = get_scale(scale)
    workloads = spec.resolve_workloads(workloads)
    options = dict(options or {})
    cells = list(spec.cells(scale, workloads, **options))
    if telemetry is not None:
        cells = [replace(cell, telemetry=telemetry)
                 if isinstance(cell, MixCell) else cell for cell in cells]
    results, stats = execute_cells(cells, jobs=jobs, cache=cache,
                                   resume=resume, should_stop=should_stop,
                                   on_cell=on_cell)
    if stats.failures:
        failed = ", ".join(
            f"{f.label} (policy={f.policy})" if f.policy else f.label
            for f in stats.failures[:8])
        more = "" if stats.failed <= 8 else f" (+{stats.failed - 8} more)"
        raise CellExecutionError(
            f"{spec.name}: {stats.failed} of {stats.total} cells failed "
            f"[{failed}{more}]; completed cells are cached — re-run with "
            f"--resume to retry recorded failures. "
            f"First error: {stats.failures[0].error}",
            stats.failures,
            stats=stats,
        )
    ctx = CellResults(spec=spec, scale=scale, workloads=workloads,
                      options=options, results=results, stats=stats)
    result = spec.render(ctx)
    result.stats = stats
    return result
