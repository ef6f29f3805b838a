"""Parallel experiment runner: fan grids and replications across cores.

Every figure/table of the paper is a grid of independent
(cc x connections x cpu_config x ...) points, and each point is a fully
deterministic simulation — perfect fan-out material. This module runs
grids through a :class:`concurrent.futures.ProcessPoolExecutor` while
keeping the three properties the benchmarks rely on:

1. **Determinism** — results come back keyed by grid index, never by
   completion order, so ``run_grid(specs, jobs=N)`` is element-wise
   identical to ``jobs=1`` (simulations are seeded; specs cross the
   process boundary in the exact-round-trip wire format of
   :mod:`repro.core.scenario`, which transports ints and floats
   exactly).
2. **Error isolation** — one failing point becomes a
   :class:`GridPointError` carrying its spec and traceback instead of
   killing the sweep; by default the errors are raised together once
   every other point has finished.
3. **Graceful degradation** — ``jobs=1`` (or a platform without working
   multiprocessing) runs the same grid serially in-process.

Two layers sit in front of the pool:

* **Result cache** — by default every point is looked up in the
  content-addressed on-disk cache (:mod:`repro.cache`) before dispatch;
  hits short-circuit the simulation entirely and misses are written
  back, so re-running a figure grid after an unrelated change costs
  milliseconds instead of minutes. ``cache=False`` (or
  ``REPRO_CACHE=off``) bypasses it.
* **Chunked dispatch** — pool tasks carry batches of spec dicts rather
  than one point each, amortizing the per-task IPC round trip on grids
  of many short simulations. The chunk size auto-sizes from the grid
  and worker counts (about :data:`TASKS_PER_WORKER` tasks per worker)
  and can be pinned via ``REPRO_CHUNK`` or the ``chunk`` argument;
  ordering and per-point error capture are unaffected.

The worker count comes from, in order: the ``jobs`` argument, the
``REPRO_JOBS`` environment variable, then ``os.cpu_count()``.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

from .cache import ResultCache, resolve_cache
from .core.experiment import (
    ExperimentResult,
    ExperimentSpec,
    ReplicatedResult,
    run_experiment,
)
from .core.scenario import spec_from_dict, spec_to_dict
from .kernel import compiled_components, requested_kernel, resolve_kernel
from .metrics.summary import RunSet
from .obs.ledger import RunLedger, resolve_ledger
from .obs.live import (
    GridMonitor,
    progress_done,
    progress_error,
    progress_hit,
    progress_start,
)

__all__ = [
    "GridPointError",
    "GridReport",
    "ExperimentGridError",
    "resolve_jobs",
    "resolve_chunk",
    "resolve_worker_jobs",
    "run_grid",
    "run_grid_report",
    "run_replicated_grid",
    "run_replicated_grid_report",
    "run_replicated_parallel",
]

#: environment variable consulted when ``jobs`` is not given explicitly
JOBS_ENV_VAR = "REPRO_JOBS"

#: environment variable consulted when ``chunk`` is not given explicitly
CHUNK_ENV_VAR = "REPRO_CHUNK"

#: auto chunk sizing target: enough tasks for this many rounds of
#: dynamic load balancing per worker
TASKS_PER_WORKER = 4

#: auto chunk sizing never batches more points than this per task
#: (bounds the load-balance penalty when one chunk lands slow points)
MAX_AUTO_CHUNK = 32


@dataclass
class GridPointError:
    """One grid point that raised instead of producing a result."""

    index: int
    spec: ExperimentSpec
    error: str
    traceback: str

    def __str__(self) -> str:
        return f"grid point {self.index} ({self.spec.label()}): {self.error}"


class ExperimentGridError(RuntimeError):
    """Raised by :func:`run_grid` when points failed (after all finished)."""

    def __init__(self, errors: Sequence[GridPointError]):
        self.errors = list(errors)
        first = self.errors[0]
        summary = "; ".join(str(e) for e in self.errors[:3])
        if len(self.errors) > 3:
            summary += f"; ... ({len(self.errors)} total)"
        super().__init__(
            f"{len(self.errors)} grid point(s) failed: {summary}\n"
            f"first traceback:\n{first.traceback}"
        )


@dataclass
class GridReport:
    """A grid's results plus the timing data the CLI/benchmarks print."""

    results: List[Union[ExperimentResult, GridPointError]]
    #: worker processes actually used (1 = serial path)
    jobs: int
    wall_s: float
    #: simulation events dispatched across all *computed* points (cache
    #: hits contribute nothing: no simulation ran for them)
    total_events: int
    errors: List[GridPointError] = field(default_factory=list)
    #: points served from the result cache without running a simulation
    cache_hits: int = 0
    #: points computed and written back to the cache
    cache_misses: int = 0
    #: points computed but not cacheable (failed points are never cached)
    cache_skipped: int = 0
    #: whether a result cache was consulted at all for this grid
    cache_used: bool = False
    #: spec batch size per pool task (1 = unchunked / serial path)
    chunk: int = 1
    #: simulation-kernel backend the grid ran under ("pure"/"compiled")
    kernel: str = "pure"
    #: component families the backend ran in C (empty for pure); see
    #: :func:`repro.kernel.compiled_components`
    kernel_components: Tuple[str, ...] = ()
    #: grid indices that were served from the result cache
    cache_hit_indices: FrozenSet[int] = frozenset()
    #: run-ledger record id for this invocation (None: ledger off/failed)
    run_id: Optional[str] = None
    #: degradations worth surfacing (kernel fallbacks, truncated traces);
    #: rendered by :meth:`summary_line` so they cannot pass silently
    notices: List[str] = field(default_factory=list)

    @property
    def points(self) -> int:
        """Number of grid points."""
        return len(self.results)

    @property
    def events_per_sec(self) -> float:
        """Aggregate simulation event throughput over the wall clock."""
        return self.total_events / self.wall_s if self.wall_s > 0 else 0.0

    def summary_line(self) -> str:
        """One-line human-readable timing summary."""
        line = (
            f"points={self.points} workers={self.jobs} "
            f"wall={self.wall_s:.2f}s events/sec={self.events_per_sec:,.0f}"
        )
        if self.chunk > 1:
            line += f" chunk={self.chunk}"
        if self.kernel != "pure":
            line += f" kernel={self.kernel}"
            if self.kernel_components:
                line += f"[{'+'.join(self.kernel_components)}]"
        if self.cache_used:
            line += f" cache hits={self.cache_hits} misses={self.cache_misses}"
            if self.cache_skipped:
                line += f" skipped={self.cache_skipped}"
        if self.errors:
            line += f" errors={len(self.errors)}"
        for notice in self.notices:
            line += f" [note: {notice}]"
        return line


def _positive_int_env(env_var: str, what: str) -> Optional[int]:
    """Parse *env_var* as a positive integer (``None`` when unset).

    Raises ``ValueError`` naming the variable on junk values — a bad
    ``REPRO_JOBS``/``REPRO_CHUNK`` export must fail here, loudly, not as
    an opaque crash deep inside the process-pool machinery.
    """
    env = os.environ.get(env_var, "").strip()
    if not env:
        return None
    try:
        value = int(env)
    except ValueError:
        raise ValueError(
            f"{env_var} must be a positive integer "
            f"({what}), got {env!r}"
        ) from None
    if value < 1:
        raise ValueError(
            f"{env_var} must be a positive integer ({what}), got {env!r}"
        )
    return value


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve the worker count: argument > ``REPRO_JOBS`` > cpu_count.

    Both the argument and the environment variable must be positive
    integers; anything else raises ``ValueError`` immediately (naming
    ``REPRO_JOBS`` when the value came from the environment).
    """
    if jobs is None:
        env_jobs = _positive_int_env(JOBS_ENV_VAR, "worker process count")
        return env_jobs if env_jobs is not None else (os.cpu_count() or 1)
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ValueError(
            f"jobs must be an integer, got {type(jobs).__name__} {jobs!r}"
        )
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def resolve_worker_jobs(jobs: Optional[int] = None) -> int:
    """Resolve *jobs* for a pull-worker: never above the machine's cores.

    A distributed sweep multiplies across worker *processes*, so an
    individual worker gains nothing from oversubscribing its own box —
    on a 1-core host a per-chunk process pool is pure overhead (the
    measured ``parallel.speedup = 0.95`` pathology). Capping at
    ``os.cpu_count()`` sends 1-core workers down the serial fast path of
    :func:`run_grid_report` while multi-core workers still fan out.
    An explicit ``jobs``/``REPRO_JOBS`` above the core count is clamped,
    not rejected: the same command line must work across heterogeneous
    hosts.
    """
    return min(resolve_jobs(jobs), os.cpu_count() or 1)


def resolve_chunk(
    chunk: Optional[int] = None, points: int = 0, jobs: int = 1
) -> int:
    """Resolve the per-task batch size: argument > ``REPRO_CHUNK`` > auto.

    Auto-sizing splits *points* into about :data:`TASKS_PER_WORKER`
    tasks per worker (so the pool still load-balances) and never batches
    more than :data:`MAX_AUTO_CHUNK` points per task. Explicit values
    must be positive integers.
    """
    if chunk is None:
        env_chunk = _positive_int_env(CHUNK_ENV_VAR, "specs per pool task")
        if env_chunk is not None:
            return env_chunk
        if points <= 0:
            return 1
        auto = -(-points // (max(1, jobs) * TASKS_PER_WORKER))  # ceil div
        return max(1, min(MAX_AUTO_CHUNK, auto))
    if isinstance(chunk, bool) or not isinstance(chunk, int):
        raise ValueError(
            f"chunk must be an integer, got {type(chunk).__name__} {chunk!r}"
        )
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    return chunk


#: worker-process progress queue (set by :func:`_init_worker_progress`;
#: ``None`` keeps the un-monitored hot path at zero extra cost)
_PROGRESS_QUEUE = None


def _init_worker_progress(progress_queue=None) -> None:
    """Pool initializer: remember the coordinator's progress queue."""
    global _PROGRESS_QUEUE
    _PROGRESS_QUEUE = progress_queue


def _emit_progress(event: Tuple) -> None:
    """Best-effort progress emission (a full/dead queue never fails a run)."""
    q = _PROGRESS_QUEUE
    if q is not None:
        try:
            q.put_nowait(event)
        except Exception:  # noqa: BLE001 - telemetry must never kill work
            pass


def _run_point(
    indexed: Tuple[int, ExperimentSpec],
) -> Tuple[int, Optional[ExperimentResult], Optional[GridPointError]]:
    """Worker body: never raises, so one bad point can't kill the sweep."""
    index, spec = indexed
    try:
        return index, run_experiment(spec), None
    except Exception as exc:  # noqa: BLE001 - captured per point by design
        return index, None, GridPointError(
            index=index,
            spec=spec,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
        )


def _run_wire_point(
    indexed: Tuple[int, dict],
) -> Tuple[int, Optional[ExperimentResult], Optional[GridPointError]]:
    """Worker body for pool workers: specs arrive as wire dicts.

    Specs cross the process boundary in the declarative wire format
    (:mod:`repro.core.scenario`) rather than as pickled dataclasses, so
    a worker — potentially a different interpreter build, or in the
    ROADMAP's production setting a remote backend — only has to agree on
    names and numbers. The round trip is exact, so results are
    bit-identical to the serial path.

    When the coordinator attached a :class:`~repro.obs.live.GridMonitor`,
    the point's lifecycle (started / finished / failed, with events and
    per-point wall time) is emitted over the progress queue.
    """
    index, payload = indexed
    spec = spec_from_dict(payload)
    if _PROGRESS_QUEUE is None:
        return _run_point((index, spec))
    _emit_progress(progress_start(index, spec.label()))
    t0 = time.perf_counter()
    outcome = _run_point((index, spec))
    _, result, error = outcome
    if error is None:
        _emit_progress(progress_done(
            index, result.events_processed, time.perf_counter() - t0))
    else:
        _emit_progress(progress_error(index, error.error))
    return outcome


def _run_wire_chunk(
    batch: List[Tuple[int, dict]],
) -> List[Tuple[int, Optional[ExperimentResult], Optional[GridPointError]]]:
    """Worker body for chunked dispatch: one task, many wire points.

    Each point keeps its own try/except (via :func:`_run_wire_point`),
    so a failing point inside a batch still becomes a per-point
    :class:`GridPointError` and its batchmates still run.
    """
    return [_run_wire_point(item) for item in batch]


Outcome = Tuple[int, Optional[ExperimentResult], Optional[GridPointError]]


def _run_pending_serial(
    pending: List[Tuple[int, ExperimentSpec]],
    monitor: Optional[GridMonitor],
) -> List[Outcome]:
    """The serial path, with in-process progress events when monitored."""
    if monitor is None:
        return [_run_point(item) for item in pending]
    outcomes: List[Outcome] = []
    for index, spec in pending:
        monitor.record(progress_start(index, spec.label()))
        t0 = time.perf_counter()
        outcome = _run_point((index, spec))
        _, result, error = outcome
        if error is None:
            monitor.record(progress_done(
                index, result.events_processed, time.perf_counter() - t0))
        else:
            monitor.record(progress_error(index, error.error))
        outcomes.append(outcome)
    return outcomes


def run_grid_report(
    specs: Sequence[ExperimentSpec],
    jobs: Optional[int] = None,
    raise_on_error: bool = True,
    cache: Union[None, bool, ResultCache] = None,
    chunk: Optional[int] = None,
    monitor: Optional[GridMonitor] = None,
    ledger: Union[None, bool, RunLedger] = None,
) -> GridReport:
    """Run every spec and return results (grid order) plus timing data.

    ``jobs`` > 1 fans points across a process pool; results are ordered
    by grid index regardless of completion order. Failed points appear
    as :class:`GridPointError` entries in ``results`` (and in
    ``errors``); with *raise_on_error* they are raised as one
    :class:`ExperimentGridError` after the whole grid has run, so a
    sweep always produces every result it can.

    *cache* selects the result cache (see
    :func:`repro.cache.resolve_cache`): by default every point is looked
    up before dispatch — hits are returned without running anything and
    misses are written back after computing. *chunk* sets how many spec
    dicts ride in each pool task (``None`` = ``REPRO_CHUNK``, then
    auto-sizing); neither knob changes results, ordering, or error
    capture.

    *monitor* (a :class:`~repro.obs.live.GridMonitor`) receives live
    progress events — cache hits from the coordinator, point lifecycles
    from the workers over a multiprocessing queue — and is finished
    before this returns. *ledger* selects the run ledger
    (:func:`repro.obs.ledger.resolve_ledger`): unless disabled, one grid
    manifest record is appended after the run (its id lands in
    :attr:`GridReport.run_id`). Neither changes results, metrics,
    ordering, or error capture.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    start = time.perf_counter()

    store = resolve_cache(cache)
    slots: List[Optional[Outcome]] = [None] * len(specs)
    cache_hits = 0
    hit_indices: List[int] = []
    pending: List[Tuple[int, ExperimentSpec]]
    if store is not None:
        pending = []
        for i, spec in enumerate(specs):
            hit = store.get(spec)
            if hit is not None:
                slots[i] = (i, hit, None)
                cache_hits += 1
                hit_indices.append(i)
                if monitor is not None:
                    monitor.record(progress_hit(i))
            else:
                pending.append((i, spec))
    else:
        pending = list(enumerate(specs))

    jobs = min(jobs, len(pending)) if pending else 1
    chunk_size = 1
    outcomes: List[Outcome]
    if jobs == 1 or len(pending) <= 1:
        jobs = 1
        outcomes = _run_pending_serial(pending, monitor)
    else:
        chunk_size = resolve_chunk(chunk, points=len(pending), jobs=jobs)
        if monitor is not None:
            monitor.chunk = chunk_size
        progress_queue = None
        drain_stop = drainer = None
        try:
            # Workers receive serialized spec dicts, not pickled specs,
            # batched chunk_size to a task to amortize the IPC round trip.
            wire = [(i, spec_to_dict(spec)) for i, spec in pending]
            batches = [
                wire[k : k + chunk_size] for k in range(0, len(wire), chunk_size)
            ]
            pool_kwargs = {}
            if monitor is not None:
                # The queue rides the pool's initializer (it crosses the
                # process boundary through the Process constructor, the
                # only channel multiprocessing queues may travel); a
                # coordinator-side thread drains it into the monitor
                # while map() blocks on results.
                progress_queue = multiprocessing.get_context().Queue()
                drain_stop = threading.Event()

                def _drain() -> None:
                    while True:
                        try:
                            event = progress_queue.get(timeout=0.1)
                        except queue_module.Empty:
                            if drain_stop.is_set():
                                return
                            continue
                        except (OSError, EOFError, ValueError):
                            return
                        monitor.record(event)

                drainer = threading.Thread(
                    target=_drain, name="repro-grid-progress", daemon=True
                )
                drainer.start()
                pool_kwargs = {
                    "initializer": _init_worker_progress,
                    "initargs": (progress_queue,),
                }
            with ProcessPoolExecutor(max_workers=jobs, **pool_kwargs) as pool:
                # map() yields in submission order == grid order.
                outcomes = [
                    outcome
                    for batch in pool.map(_run_wire_chunk, batches)
                    for outcome in batch
                ]
        except (OSError, NotImplementedError, PermissionError):
            # Platforms without working process pools (restricted
            # sandboxes, missing /dev/shm) fall back to the serial path.
            jobs = 1
            chunk_size = 1
            outcomes = _run_pending_serial(pending, monitor)
        finally:
            if drainer is not None:
                drain_stop.set()
                drainer.join(timeout=5.0)
            if progress_queue is not None:
                progress_queue.close()

    cache_misses = cache_skipped = 0
    total_events = 0
    for index, result, error in outcomes:
        slots[index] = (index, result, error)
        if error is None:
            total_events += result.events_processed
            if store is not None:
                store.put(specs[index], result)
                cache_misses += 1
        elif store is not None:
            cache_skipped += 1
    wall = time.perf_counter() - start

    results: List[Union[ExperimentResult, GridPointError]] = []
    errors: List[GridPointError] = []
    for i, slot in enumerate(slots):
        assert slot is not None and slot[0] == i, "grid ordering violated"
        _, result, error = slot
        if error is not None:
            errors.append(error)
            results.append(error)
        else:
            results.append(result)
    if monitor is not None:
        monitor.finish()
    active_kernel = resolve_kernel()
    kernel_name = active_kernel.name
    notices: List[str] = []
    requested = requested_kernel()
    if requested is not None and requested != kernel_name:
        notices.append(
            f"kernel {requested!r} unavailable; grid ran {kernel_name!r}"
        )
    report = GridReport(
        results=results,
        jobs=jobs,
        wall_s=wall,
        total_events=total_events,
        errors=errors,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        cache_skipped=cache_skipped,
        cache_used=store is not None,
        chunk=chunk_size,
        kernel=kernel_name,
        kernel_components=compiled_components(active_kernel),
        cache_hit_indices=frozenset(hit_indices),
        notices=notices,
    )
    # The manifest is appended even when the grid is about to raise:
    # the ledger records what ran, including its failures.
    ledger_store = resolve_ledger(ledger)
    if ledger_store is not None:
        report.run_id = ledger_store.record_grid(specs, report)
    if errors and raise_on_error:
        raise ExperimentGridError(errors)
    return report


def run_grid(
    specs: Sequence[ExperimentSpec],
    jobs: Optional[int] = None,
    raise_on_error: bool = True,
    cache: Union[None, bool, ResultCache] = None,
    chunk: Optional[int] = None,
    monitor: Optional[GridMonitor] = None,
    ledger: Union[None, bool, RunLedger] = None,
) -> List[Union[ExperimentResult, GridPointError]]:
    """Run every spec (possibly in parallel); results in grid order."""
    return run_grid_report(
        specs, jobs=jobs, raise_on_error=raise_on_error, cache=cache,
        chunk=chunk, monitor=monitor, ledger=ledger,
    ).results


def _replication_specs(spec: ExperimentSpec, runs: int) -> List[ExperimentSpec]:
    """The seeded replication points of *spec*, in replication order.

    Matches :func:`repro.core.experiment.run_replicated`: seeds are
    ``spec.seed + 1000*i``, so parallel and serial replication use
    identical simulations.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    return [replace(spec, seed=spec.seed + 1000 * i) for i in range(runs)]


def run_replicated_grid_report(
    specs: Sequence[ExperimentSpec],
    runs: int = 3,
    jobs: Optional[int] = None,
    cache: Union[None, bool, ResultCache] = None,
    chunk: Optional[int] = None,
    monitor: Optional[GridMonitor] = None,
    ledger: Union[None, bool, RunLedger] = None,
) -> Tuple[List[ReplicatedResult], GridReport]:
    """Replicated aggregates plus the underlying flat grid's report.

    The report covers the ``len(specs) * runs`` flat replication points
    — its cache hit/miss counters and timing are what the CLI surfaces
    after a sweep. *monitor* and *ledger* observe the flat grid (see
    :func:`run_grid_report`).
    """
    specs = list(specs)
    flat: List[ExperimentSpec] = []
    for spec in specs:
        flat.extend(_replication_specs(spec, runs))
    report = run_grid_report(flat, jobs=jobs, cache=cache, chunk=chunk,
                             monitor=monitor, ledger=ledger)
    aggregates: List[ReplicatedResult] = []
    for i, spec in enumerate(specs):
        group = report.results[i * runs : (i + 1) * runs]
        stats = RunSet()
        for result in group:
            stats.add_run(result.scalar_metrics())
        aggregates.append(ReplicatedResult(spec=spec, runs=list(group), stats=stats))
    return aggregates, report


def run_replicated_grid(
    specs: Sequence[ExperimentSpec],
    runs: int = 3,
    jobs: Optional[int] = None,
    cache: Union[None, bool, ResultCache] = None,
    chunk: Optional[int] = None,
    monitor: Optional[GridMonitor] = None,
    ledger: Union[None, bool, RunLedger] = None,
) -> List[ReplicatedResult]:
    """Replicated aggregates for every spec, fanned out at run granularity.

    The pool sees ``len(specs) * runs`` independent points (the finest
    parallel grain), and each spec's :class:`ReplicatedResult` is then
    assembled in replication order — exactly what serial
    :func:`run_replicated` produces.
    """
    return run_replicated_grid_report(
        specs, runs=runs, jobs=jobs, cache=cache, chunk=chunk,
        monitor=monitor, ledger=ledger,
    )[0]


def run_replicated_parallel(
    spec: ExperimentSpec,
    runs: int = 3,
    jobs: Optional[int] = None,
    cache: Union[None, bool, ResultCache] = None,
) -> ReplicatedResult:
    """Parallel drop-in for :func:`repro.core.experiment.run_replicated`."""
    return run_replicated_grid([spec], runs=runs, jobs=jobs, cache=cache)[0]
