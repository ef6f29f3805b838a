"""Command-line interface: run paper experiments without writing code.

Examples::

    python -m repro run --cc bbr --connections 20 --config low-end
    python -m repro run --cc cubic --connections 20 --config low-end --runs 3
    python -m repro run --cc bbr --connections 20 --config default \
        --stride 5 --medium wifi --json
    python -m repro grid --scenario benchmarks/scenarios/smoke_2point.json
    python -m repro grid --scenario benchmarks/scenarios/fig8_stride_sweep.json
    python -m repro grid --scenario benchmarks/scenarios/fig4_grid.json --live
    python -m repro sweep --scenario benchmarks/scenarios/fig4_grid.json \
        --distributed --workers 2 --live
    python -m repro worker --pull /shared/queue/fig4
    python -m repro runs merge /shared/queue/fig4
    python -m repro compare --connections 20 --config low-end
    python -m repro sweep-strides --config default --connections 20 --status
    python -m repro cache stats
    python -m repro runs list
    python -m repro runs diff 68a1b2c3 68a1d4e5
    python -m repro perf trend
    python -m repro list

``run`` executes one experiment (optionally replicated), ``grid``
expands a declarative scenario file into its full experiment grid,
``sweep`` runs the same grids and with ``--distributed`` shards them
into a shared queue directory for any number of ``worker --pull``
processes (local or cross-host over a shared filesystem; the shared
result cache carries results and makes the sweep resumable —
:mod:`repro.dist`), ``compare`` races BBR against Cubic on identical
settings,
``sweep-strides`` reproduces a Figure-8 row, ``cache`` inspects or
clears the on-disk result cache (:mod:`repro.cache`), and ``list``
shows every registered component. All ``choices=`` below come from the
component registries (:mod:`repro.registry`), so a newly registered
algorithm or medium is immediately addressable here.

Experiment commands consult the result cache transparently: repeated
runs of an unchanged grid are served from disk (the timing line reports
``cache hits=... misses=...``); ``--no-cache`` forces recomputation.
Every experiment/grid invocation also appends a manifest record to the
run ledger (:mod:`repro.obs.ledger`; ``REPRO_LEDGER=off`` disables it);
``runs`` lists, shows, diffs, and prunes those records, and ``perf
trend`` renders the harness history in
``benchmarks/results/BENCH_history.jsonl``. ``grid --live`` (or
sweep-strides ``--status``) renders an in-place progress line — points
done, chunks, cache hits, events/sec per worker, ETA — from the worker
heartbeat stream (:mod:`repro.obs.live`); ``--metrics-out`` exports the
final telemetry as OpenMetrics text.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Dict, List, Optional

import time

from . import (
    CC_ALGORITHMS,
    CPU_CONFIGS,
    CpuConfig,
    DEVICES,
    DistMonitor,
    ExperimentSpec,
    GridMonitor,
    KERNELS,
    MEDIA,
    NetemConfig,
    PROBES,
    PacingMode,
    ReplicatedResult,
    ResultCache,
    RunLedger,
    SimProfiler,
    TimeSeries,
    Tracer,
    all_registries,
    diff_records,
    expand_scenario,
    export_chrome_trace,
    export_jsonl,
    load_scenario_doc,
    merge_ledgers,
    resolve_jobs,
    resolve_kernel,
    run_distributed,
    run_experiment,
    run_replicated_grid_report,
    run_worker,
    sweep_strides,
)
from .dist import DistributedSweepError, default_queue_dir, grid_digest
from .dist.worker import WorkerError
from .kernel import KERNEL_ENV_VAR, compiled_components
from .metrics import RunSet, render_series, render_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Are Mobiles Ready for BBR?' experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--connections", "-P", type=int, default=1,
                       help="parallel uplink connections (iperf3 -P)")
        p.add_argument("--config", choices=CPU_CONFIGS.names(),
                       default=CpuConfig.LOW_END, help="Table 1 CPU config")
        p.add_argument("--device", choices=DEVICES.names(),
                       default="pixel4")
        p.add_argument("--medium", choices=MEDIA.names(),
                       default="ethernet")
        p.add_argument("--duration", type=float, default=8.0,
                       help="simulated seconds per run")
        p.add_argument("--warmup", type=float, default=2.0,
                       help="warmup excluded from measurement")
        p.add_argument("--runs", type=int, default=1,
                       help="seeded replications to average")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--jobs", "-j", type=int, default=None,
                       help="worker processes for grid/replication fan-out "
                            "(default: $REPRO_JOBS, then CPU count)")
        p.add_argument("--no-cache", action="store_true",
                       help="recompute every point instead of consulting "
                            "the on-disk result cache")
        p.add_argument("--chunk", type=int, default=None,
                       help="specs batched per worker task (default: "
                            "$REPRO_CHUNK, then auto-sized from the grid)")
        p.add_argument("--kernel", choices=KERNELS.names(), default=None,
                       help="simulation-kernel backend (default: "
                            "$REPRO_KERNEL, then compiled if built, else "
                            "pure); instrumented runs fall back to pure")
        p.add_argument("--rate-limit-mbps", type=float, default=None,
                       help="tc rate limit on the router's server port")
        p.add_argument("--buffer-segments", type=int, default=None,
                       help="router egress buffer depth (segments)")
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")

    run_p = sub.add_parser("run", help="run one experiment")
    add_common(run_p)
    run_p.add_argument("--cc", choices=CC_ALGORITHMS.names(),
                       default="bbr")
    run_p.add_argument("--pacing", choices=PacingMode.ALL,
                       default=PacingMode.AUTO)
    run_p.add_argument("--stride", type=float, default=1.0,
                       help="pacing stride (paper Eq. 2)")
    run_p.add_argument("--fixed-cwnd", type=int, default=None,
                       help="master module: pin cwnd (segments)")
    run_p.add_argument("--fixed-pacing-mbps", type=float, default=None,
                       help="master module: pin the pacing rate")
    run_p.add_argument("--disable-model", action="store_true",
                       help="master module: skip the CC model's per-ACK work")
    run_p.add_argument("--scenario", metavar="FILE", default=None,
                       help="single-point scenario file; overrides the "
                            "spec flags above (multi-point files need "
                            "'repro grid')")
    run_p.add_argument("--probe", action="append", default=None,
                       metavar="NAME",
                       help="record a time-series probe (repeatable; "
                            "'all' selects every registered probe; see "
                            "'repro list')")
    run_p.add_argument("--series-out", metavar="FILE", default=None,
                       help="write probe time series as JSON "
                            "(render with 'repro report FILE')")
    run_p.add_argument("--trace-out", metavar="FILE", default=None,
                       help="write the component trace as JSONL "
                            "(forces a single in-process run)")
    run_p.add_argument("--chrome-trace", metavar="FILE", default=None,
                       help="write a Chrome trace-event JSON loadable "
                            "in Perfetto (forces a single in-process run)")
    run_p.add_argument("--trace-category", action="append", default=None,
                       metavar="GLOB",
                       help="only trace sources matching this glob "
                            "(repeatable; e.g. 'cc-*', 'little*')")
    run_p.add_argument("--profile", action="store_true",
                       help="profile the event loop per callback type "
                            "(forces a single in-process run)")

    grid_p = sub.add_parser(
        "grid", help="run every point of a declarative scenario file")
    grid_p.add_argument("--scenario", metavar="FILE", required=True,
                        help="JSON scenario (base + grid + overrides)")
    grid_p.add_argument("--runs", type=int, default=1,
                        help="seeded replications to average per point")
    grid_p.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes (default: $REPRO_JOBS, "
                             "then CPU count)")
    grid_p.add_argument("--no-cache", action="store_true",
                        help="recompute every point instead of consulting "
                             "the on-disk result cache")
    grid_p.add_argument("--chunk", type=int, default=None,
                        help="specs batched per worker task (default: "
                             "$REPRO_CHUNK, then auto-sized from the grid)")
    grid_p.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    grid_p.add_argument("--live", action="store_true",
                        help="render a live progress line on stderr: points "
                             "done, chunks, cache hits, events/sec, ETA")
    grid_p.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write the final grid telemetry as OpenMetrics "
                             "text")
    grid_p.add_argument("--progress-out", metavar="FILE", default=None,
                        help="write the raw worker progress events as JSONL")

    sweep_grid_p = sub.add_parser(
        "sweep", help="run a scenario grid, optionally sharded across "
                      "distributed pull-workers over a shared cache")
    sweep_grid_p.add_argument("--scenario", metavar="FILE", required=True,
                              help="JSON scenario (base + grid + overrides)")
    sweep_grid_p.add_argument("--distributed", action="store_true",
                              help="shard the grid into a shared task queue "
                                   "for 'repro worker --pull' processes "
                                   "(the shared result cache carries the "
                                   "results and makes the sweep resumable)")
    sweep_grid_p.add_argument("--queue", metavar="DIR", default=None,
                              help="queue directory (default: a per-sweep "
                                   "directory under the cache root; must be "
                                   "on a filesystem every worker mounts)")
    sweep_grid_p.add_argument("--workers", type=int, default=0,
                              help="local pull-workers to spawn (0: only "
                                   "coordinate — start workers yourself, "
                                   "anywhere the queue is mounted)")
    sweep_grid_p.add_argument("--jobs", "-j", type=int, default=None,
                              help="per-worker process count when "
                                   "distributed (capped at the worker "
                                   "host's cores); else the grid pool size")
    sweep_grid_p.add_argument("--no-cache", action="store_true",
                              help="recompute every point (incompatible "
                                   "with --distributed: the cache is how "
                                   "workers return results)")
    sweep_grid_p.add_argument("--chunk", type=int, default=None,
                              help="points per published task (default: "
                                   "$REPRO_CHUNK, then auto-sized from the "
                                   "grid and worker count)")
    sweep_grid_p.add_argument("--lease-timeout", type=float, default=60.0,
                              metavar="S",
                              help="seconds before an unrenewed chunk lease "
                                   "is re-dispatched to another worker")
    sweep_grid_p.add_argument("--wait-timeout", type=float, default=None,
                              metavar="S",
                              help="give up when the distributed sweep has "
                                   "not completed within S seconds "
                                   "(default: wait indefinitely)")
    sweep_grid_p.add_argument("--live", "--status", action="store_true",
                              help="render a live progress line on stderr, "
                                   "aggregating per-worker heartbeats")
    sweep_grid_p.add_argument("--metrics-out", metavar="FILE", default=None,
                              help="write the final sweep telemetry as "
                                   "OpenMetrics text")
    sweep_grid_p.add_argument("--progress-out", metavar="FILE", default=None,
                              help="write the raw progress events as JSONL")
    sweep_grid_p.add_argument("--json", action="store_true",
                              help="emit machine-readable JSON")

    worker_p = sub.add_parser(
        "worker", help="pull and execute sweep chunks from a shared queue")
    worker_p.add_argument("--pull", metavar="DIR", required=True,
                          help="queue directory published by "
                               "'repro sweep --distributed'")
    worker_p.add_argument("--jobs", "-j", type=int, default=None,
                          help="process count for this worker (default: "
                               "$REPRO_JOBS, then CPU count; always capped "
                               "at this host's cores)")
    worker_p.add_argument("--lease-timeout", type=float, default=60.0,
                          metavar="S",
                          help="lease duration stamped on claimed chunks "
                               "(renewed while computing)")
    worker_p.add_argument("--idle-timeout", type=float, default=300.0,
                          metavar="S",
                          help="exit after this long without work "
                               "(0: wait until stopped)")
    worker_p.add_argument("--poll", type=float, default=0.5, metavar="S",
                          help="queue poll interval while idle")
    worker_p.add_argument("--max-chunks", type=int, default=None,
                          help="exit after executing this many chunks")
    worker_p.add_argument("--cache-dir", metavar="DIR", default=None,
                          help="override the shared cache location named "
                               "in the queue manifest (for hosts mounting "
                               "it at a different path)")
    worker_p.add_argument("--json", action="store_true",
                          help="emit the worker report as JSON")

    cmp_p = sub.add_parser("compare", help="BBR vs Cubic on one setting")
    add_common(cmp_p)
    cmp_p.add_argument("--stride", type=float, default=1.0)

    sweep_p = sub.add_parser("sweep-strides", help="Figure-8 stride sweep")
    add_common(sweep_p)
    sweep_p.add_argument("--strides", type=float, nargs="+",
                         default=[1, 2, 5, 10, 20, 50])
    sweep_p.add_argument("--status", dest="live", action="store_true",
                         help="render a live progress line on stderr while "
                              "the sweep runs")

    cache_p = sub.add_parser(
        "cache", help="inspect or clear the on-disk result cache")
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    cache_stats_p = cache_sub.add_parser(
        "stats", help="entry counts, size, and the current code fingerprint")
    cache_stats_p.add_argument("--json", action="store_true",
                               help="emit machine-readable JSON")
    cache_clear_p = cache_sub.add_parser(
        "clear", help="delete cached results")
    cache_clear_p.add_argument("--stale", action="store_true",
                               help="only delete entries from older code "
                                    "versions (keep the current ones)")
    cache_sub.add_parser(
        "path", help="print the cache directory ($REPRO_CACHE_DIR overrides)")

    runs_p = sub.add_parser(
        "runs", help="inspect the run ledger (the append-only history of "
                     "every experiment/grid invocation)")
    runs_sub = runs_p.add_subparsers(dest="runs_command", required=True)
    runs_list_p = runs_sub.add_parser(
        "list", help="most recent ledger records")
    runs_list_p.add_argument("--limit", type=int, default=20,
                             help="records to show, newest last")
    runs_list_p.add_argument("--kind", choices=("run", "grid"), default=None,
                             help="only this record kind")
    runs_list_p.add_argument("--json", action="store_true",
                             help="emit machine-readable JSON")
    runs_show_p = runs_sub.add_parser(
        "show", help="print one ledger record as JSON")
    runs_show_p.add_argument("run_id", metavar="ID",
                             help="record id (any unique prefix)")
    runs_diff_p = runs_sub.add_parser(
        "diff", help="compare two records' metrics by spec digest "
                     "(exit 0 within --tol, 1 beyond, 2 nothing shared)")
    runs_diff_p.add_argument("run_a", metavar="ID_A")
    runs_diff_p.add_argument("run_b", metavar="ID_B")
    runs_diff_p.add_argument("--tol", type=float, default=0.0,
                             help="relative tolerance per metric "
                                  "(default 0: bit-exact)")
    runs_diff_p.add_argument("--json", action="store_true",
                             help="emit machine-readable JSON")
    runs_prune_p = runs_sub.add_parser(
        "prune", help="drop all but the newest records (and orphaned "
                      "spec refs)")
    runs_prune_p.add_argument("--keep", type=int, default=100,
                              help="records to keep")
    runs_merge_p = runs_sub.add_parser(
        "merge", help="fold per-worker ledger shards (or a whole sweep "
                      "queue's ledgers/) into one queryable ledger")
    runs_merge_p.add_argument("sources", metavar="DIR", nargs="+",
                              help="ledger directory, or a queue directory "
                                   "whose ledgers/ subdirectories are all "
                                   "merged")
    runs_merge_p.add_argument("--into", metavar="DIR", default=None,
                              help="destination ledger directory (default: "
                                   "the regular run ledger)")
    runs_sub.add_parser(
        "path", help="print the ledger file ($REPRO_LEDGER_DIR overrides)")

    perf_p = sub.add_parser(
        "perf", help="performance-trajectory tooling over the harness "
                     "history")
    perf_sub = perf_p.add_subparsers(dest="perf_command", required=True)
    trend_p = perf_sub.add_parser(
        "trend", help="render the events/sec trajectory from "
                      "BENCH_history.jsonl")
    trend_p.add_argument("--history", metavar="FILE",
                         default=os.path.join("benchmarks", "results",
                                              "BENCH_history.jsonl"),
                         help="history JSONL written by the perf harness")
    trend_p.add_argument("--check-regression", type=float, default=None,
                         metavar="PCT",
                         help="exit 1 when the newest entry sits more than "
                              "PCT%% below the median of earlier comparable "
                              "entries")
    trend_p.add_argument("--json", action="store_true",
                         help="emit the raw history as JSON")

    report_p = sub.add_parser(
        "report", help="render probe time series saved by 'run --series-out'")
    report_p.add_argument("series_file", metavar="FILE",
                          help="JSON file written by 'repro run --series-out'")
    report_p.add_argument("--probe", action="append", default=None,
                          metavar="NAME",
                          help="only render series whose name starts with "
                               "NAME (repeatable; default: all)")
    report_p.add_argument("--points", type=int, default=12,
                          help="downsample each series to this many points")

    list_p = sub.add_parser(
        "list", help="list registered components (CCs, media, devices, ...)")
    list_p.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    return parser


def _spec_from_args(args, **overrides) -> ExperimentSpec:
    netem = None
    if args.rate_limit_mbps is not None or args.buffer_segments is not None:
        netem = NetemConfig(
            rate_bps=args.rate_limit_mbps * 1e6 if args.rate_limit_mbps else None,
            buffer_segments=args.buffer_segments,
        )
    fields = dict(
        connections=args.connections,
        device=DEVICES.get(args.device),
        cpu_config=args.config,
        medium=MEDIA.get(args.medium),
        duration_s=args.duration,
        warmup_s=args.warmup,
        seed=args.seed,
        netem=netem,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def _result_dict(agg) -> dict:
    row = {
        "label": agg.spec.label(),
        "runs": len(agg.runs),
        "goodput_mbps": round(agg.goodput_mbps, 2),
        "goodput_stdev": round(agg.goodput_stdev, 2),
        "rtt_mean_ms": round(agg.rtt_mean_ms, 3),
        "retransmitted_segments": round(agg.retransmitted_segments, 1),
        "cpu_busy_fraction": round(agg.mean("cpu_busy_fraction"), 3),
        "mean_skb_bytes": round(agg.mean("mean_skb_bytes"), 1),
        "mean_idle_ms": round(agg.mean("mean_idle_ms"), 3),
    }
    if any(r.flow_count > 1 for r in agg.runs):
        row["flows"] = round(agg.mean("flow_count"), 1)
        row["jain_fairness"] = round(agg.mean("jain_fairness"), 3)
    return row


def _emit(rows: List[dict], as_json: bool, out) -> None:
    if as_json:
        json.dump(rows if len(rows) > 1 else rows[0], out, indent=2)
        out.write("\n")
        return
    # Rows may have heterogeneous keys (multi-flow rows grow fairness
    # columns); the table shows the union, blank where absent.
    headers = list(dict.fromkeys(k for r in rows for k in r))
    table = render_table(headers, [[r.get(h, "") for h in headers] for r in rows])
    out.write(table + "\n")


def _timing_line(aggs, jobs: int, wall_s: float,
                 events: Optional[int] = None) -> str:
    """One-line sweep timing summary (points, workers, wall, events/sec).

    *events* overrides the event count (the grid report's total excludes
    cache hits, so warm re-runs don't report fictitious throughput).
    """
    points = sum(len(a.runs) for a in aggs)
    if events is None:
        events = sum(r.events_processed for a in aggs for r in a.runs)
    rate = events / wall_s if wall_s > 0 else 0.0
    return (
        f"# points={points} workers={min(jobs, points)} "
        f"wall={wall_s:.2f}s events/sec={rate:,.0f}"
    )


def _cache_suffix(report) -> str:
    """Cache/chunk/kernel annotations for the timing line (empty when default)."""
    suffix = ""
    if report.chunk > 1:
        suffix += f" chunk={report.chunk}"
    if report.kernel != "pure":
        suffix += f" kernel={report.kernel}"
        components = getattr(report, "kernel_components", ())
        if components:
            suffix += f"[{'+'.join(components)}]"
    if report.cache_used:
        suffix += (f" cache hits={report.cache_hits} "
                   f"misses={report.cache_misses}")
        if report.cache_skipped:
            suffix += f" skipped={report.cache_skipped}"
    return suffix


def _make_monitor(args, total_points: int) -> Optional[GridMonitor]:
    """A grid monitor when --live/--status or a telemetry export asks.

    ``--metrics-out``/``--progress-out`` without ``--live`` still need
    the monitor collecting events — just with no stream to render to.
    """
    live = getattr(args, "live", False)
    exports = getattr(args, "metrics_out", None) or \
        getattr(args, "progress_out", None)
    if not live and not exports:
        return None
    return GridMonitor(total_points, stream=sys.stderr if live else None)


def _export_monitor(args, monitor: Optional[GridMonitor]) -> None:
    """Write the OpenMetrics / progress-JSONL exports when requested."""
    if monitor is None:
        return
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        monitor.write_openmetrics(metrics_out)
        sys.stderr.write(f"wrote OpenMetrics grid telemetry to "
                         f"{metrics_out}\n")
    progress_out = getattr(args, "progress_out", None)
    if progress_out:
        count = monitor.write_jsonl(progress_out)
        sys.stderr.write(f"wrote {count} progress events to "
                         f"{progress_out}\n")


def _run_specs(args, specs):
    """Run replicated specs through the parallel runner, with timing."""
    jobs = resolve_jobs(args.jobs)
    cache = False if getattr(args, "no_cache", False) else None
    monitor = _make_monitor(args, len(specs) * args.runs)
    start = time.perf_counter()
    aggs, report = run_replicated_grid_report(
        specs, runs=args.runs, jobs=jobs, cache=cache,
        chunk=getattr(args, "chunk", None), monitor=monitor,
    )
    wall = time.perf_counter() - start
    _export_monitor(args, monitor)
    for notice in report.notices:
        sys.stderr.write(f"note: {notice}\n")
    line = _timing_line(aggs, jobs, wall, events=report.total_events)
    suffix = _cache_suffix(report)
    if report.run_id:
        suffix += f" run={report.run_id}"
    return aggs, line + suffix


def _resolve_probes(names: Optional[List[str]]) -> tuple:
    """Expand ``--probe`` values; 'all' selects every registered probe."""
    if not names:
        return ()
    if "all" in names:
        return PROBES.names()
    for name in names:
        PROBES.get(name)  # raises UnknownNameError with choices
    return tuple(dict.fromkeys(names))


def _write_series(timeseries: Dict[str, TimeSeries], path: str,
                  meta: Optional[dict] = None) -> None:
    doc: Dict[str, object] = {name: ts.to_dict()
                              for name, ts in timeseries.items()}
    if meta:
        # Run-level annotations (dropped trace records, kernel-fallback
        # notices) ride along under a key no probe can claim; 'repro
        # report' surfaces them instead of parsing them as a series.
        doc["_meta"] = meta
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _instrumented_run(args, spec, out):
    """Single in-process run with tracing and/or profiling attached.

    The parallel runner ships specs to worker processes, so a Tracer or
    SimProfiler living in this process could never observe them; when
    ``--trace-out``/``--chrome-trace``/``--profile`` is given we run the
    one experiment here instead.
    """
    if args.runs > 1:
        sys.stderr.write(
            "note: --trace-out/--chrome-trace/--profile run in-process; "
            f"forcing --runs 1 (requested {args.runs})\n"
        )
    tracer = None
    if args.trace_out or args.chrome_trace:
        tracer = Tracer(keep=True, categories=tuple(args.trace_category or ()))
    profiler = SimProfiler() if args.profile else None
    start = time.perf_counter()
    result = run_experiment(spec, tracer=tracer, profiler=profiler)
    wall = time.perf_counter() - start
    stats = RunSet()
    stats.add_run(result.scalar_metrics())
    agg = ReplicatedResult(spec=spec, runs=[result], stats=stats)
    notices: List[str] = []
    # What an uninstrumented run would have used: the explicit request,
    # else the built-dependent default. Instrumented runs always got pure.
    uninstrumented = resolve_kernel().name
    if uninstrumented != "pure":
        notices.append(
            f"instrumented run: pure kernel used instead of "
            f"{uninstrumented!r}"
        )
    if tracer is not None:
        if tracer.dropped_records:
            notices.append(
                f"trace ring buffer dropped {tracer.dropped_records} "
                "oldest records"
            )
            sys.stderr.write(
                f"note: trace ring buffer dropped {tracer.dropped_records} "
                "oldest records (raise Tracer(max_records=...) to keep more)\n"
            )
        if args.trace_out:
            count = export_jsonl(tracer.records, args.trace_out)
            sys.stderr.write(f"wrote {count} trace records to "
                             f"{args.trace_out}\n")
        if args.chrome_trace:
            count = export_chrome_trace(tracer.records, args.chrome_trace)
            sys.stderr.write(f"wrote {count} Chrome trace events to "
                             f"{args.chrome_trace} (open in Perfetto)\n")
    timing = _timing_line([agg], jobs=1, wall_s=wall)
    meta = {
        "notices": notices,
        "dropped_trace_records": tracer.dropped_records if tracer else 0,
    } if notices else None
    return agg, timing, profiler, meta


def _cmd_run(args, out) -> int:
    if args.scenario is not None:
        specs = expand_scenario(load_scenario_doc(args.scenario))
        if len(specs) != 1:
            sys.stderr.write(
                f"error: scenario {args.scenario!r} expands to "
                f"{len(specs)} points; 'repro run' takes exactly one "
                f"(use 'repro grid --scenario' for the full grid)\n"
            )
            return 2
        spec = specs[0]
    else:
        spec = _spec_from_args(
            args,
            cc=args.cc,
            pacing_mode=args.pacing,
            pacing_stride=args.stride,
            fixed_cwnd_segments=args.fixed_cwnd,
            fixed_pacing_rate_mbps=args.fixed_pacing_mbps,
            disable_model=args.disable_model,
        )
    probes = _resolve_probes(args.probe)
    if probes:
        spec = replace(spec, probes=probes)
    profiler = None
    series_meta = None
    if args.trace_out or args.chrome_trace or args.profile:
        agg, timing, profiler, series_meta = _instrumented_run(args, spec, out)
    else:
        (agg,), timing = _run_specs(args, [spec])
    _emit([_result_dict(agg)], args.json, out)
    if not args.json:
        out.write(timing + "\n")
    if probes and args.series_out:
        _write_series(agg.runs[0].timeseries, args.series_out,
                      meta=series_meta)
        sys.stderr.write(f"wrote {len(agg.runs[0].timeseries)} time series "
                         f"to {args.series_out}\n")
    if profiler is not None:
        out.write("\n" + profiler.render(top=10) + "\n")
    return 0


def _cmd_report(args, out) -> int:
    with open(args.series_file, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        sys.stderr.write(f"error: {args.series_file!r} is not a series "
                         "JSON object (expected 'run --series-out' output)\n")
        return 2
    meta = doc.pop("_meta", None)
    if isinstance(meta, dict):
        for notice in meta.get("notices") or []:
            sys.stderr.write(f"note: {notice}\n")
    wanted = args.probe
    series = {}
    for name, payload in doc.items():
        if wanted and not any(name.startswith(w) for w in wanted):
            continue
        series[name] = TimeSeries.from_dict(payload)
    if not series:
        sys.stderr.write("error: no matching time series "
                         f"in {args.series_file!r}\n")
        return 2
    points = max(2, args.points)
    # Series sampled on the same clock grid share one chart; labelled or
    # odd-grid series get their own.
    groups: Dict[tuple, List[TimeSeries]] = {}
    for ts in series.values():
        small = ts.downsample(points)
        groups.setdefault(tuple(small.t_ns), []).append(small)
    first = True
    for t_grid, members in groups.items():
        if not first:
            out.write("\n")
        first = False
        t_ms = [t / 1e6 for t in t_grid]
        chart = [(f"{ts.name} [{ts.unit}]" if ts.unit else ts.name, ts.values)
                 for ts in members]
        title = ", ".join(ts.name for ts in members)
        out.write(render_series("t_ms", t_ms, chart, title=title) + "\n")
    return 0


def _cmd_grid(args, out) -> int:
    specs = expand_scenario(load_scenario_doc(args.scenario))
    if not specs:
        sys.stderr.write(
            f"error: scenario {args.scenario!r} expands to no points\n"
        )
        return 2
    aggs, timing = _run_specs(args, specs)
    _emit([_result_dict(agg) for agg in aggs], args.json, out)
    if not args.json:
        out.write(timing + "\n")
    return 0


def _scenario_files() -> List[str]:
    """Scenario JSON names under the scenario directory, sorted.

    The directory defaults to ``benchmarks/scenarios`` relative to the
    working directory (the repo layout); ``$REPRO_SCENARIO_DIR``
    overrides it. Missing directory -> empty list, not an error.
    """
    root = os.environ.get("REPRO_SCENARIO_DIR",
                          os.path.join("benchmarks", "scenarios"))
    try:
        names = os.listdir(root)
    except OSError:
        return []
    return sorted(os.path.splitext(n)[0] for n in names
                  if n.endswith(".json"))


def _cmd_list(args, out) -> int:
    sections = {
        "cc": "congestion controls",
        "executor": "executors",
        "medium": "media",
        "device": "devices",
        "cpu-config": "CPU configs",
        "probe": "probes",
        "scenario": "scenarios",
        "kernel": "kernels",
    }
    registries = all_registries()
    scenarios = _scenario_files()

    def _kernel_entry(kernel) -> str:
        """``compiled (gcc ...) [loop+timers+...]`` or an unavailable note."""
        if not kernel.available:
            return f"{kernel.name} (unavailable: {kernel.why_unavailable})"
        entry = kernel.describe()
        components = compiled_components(kernel)
        if components:
            entry += f" [{'+'.join(components)}]"
        return entry

    if args.json:
        payload = {key: list(reg.names()) for key, reg in registries.items()}
        payload["scenario"] = scenarios
        payload["kernel"] = {
            kernel.name: {
                "available": kernel.available,
                "compiler": kernel.compiler,
                "compiled_components": list(compiled_components(kernel)),
            }
            for _, kernel in KERNELS.items()
        }
        json.dump(payload, out, indent=2)
        out.write("\n")
        return 0
    width = max(len(title) for title in sections.values())
    for key, reg in registries.items():
        title = sections.get(key, key)
        out.write(f"{title.rjust(width)}: {', '.join(reg.names())}\n")
    if scenarios:
        out.write(f"{'scenarios'.rjust(width)}: {', '.join(scenarios)}\n")
    kernel_entries = ", ".join(
        _kernel_entry(kernel) for _, kernel in KERNELS.items()
    )
    out.write(f"{'kernels'.rjust(width)}: {kernel_entries}\n")
    return 0


def _cmd_cache(args, out) -> int:
    cache = ResultCache()
    if args.cache_command == "path":
        out.write(cache.root + "\n")
        return 0
    if args.cache_command == "stats":
        stats = cache.stats()
        if args.json:
            json.dump(stats.to_dict(), out, indent=2)
            out.write("\n")
        else:
            out.write(stats.render() + "\n")
        return 0
    assert args.cache_command == "clear"
    removed = cache.clear(stale_only=args.stale)
    what = "stale cache entries" if args.stale else "cache entries"
    out.write(f"removed {removed} {what} under {cache.root}\n")
    return 0


def _when(ts) -> str:
    """Record timestamp as local wall-clock text ('-' when absent)."""
    try:
        return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(float(ts)))
    except (TypeError, ValueError, OverflowError, OSError):
        return "-"


def _runs_list_row(record: dict) -> dict:
    """One 'repro runs list' table row from a ledger record."""
    kind = record.get("kind", "?")
    if kind == "grid":
        points = record.get("points", [])
        count = len(points)
        first = points[0].get("label", "") if points else ""
        label = f"{first} (+{count - 1})" if count > 1 else first
    else:
        count = 1
        label = record.get("label", "")
    cache = record.get("cache") or {}
    if cache.get("used"):
        cache_col = f"{cache.get('hits', 0)}h/{cache.get('misses', 0)}m"
    else:
        cache_col = "-"
    row = {
        "id": str(record.get("id", ""))[:16],
        "when": _when(record.get("ts")),
        "kind": kind,
        "points": count,
        "kernel": record.get("kernel", "?"),
        "cache": cache_col,
        "events/sec": f"{record.get('events_per_sec', 0):,.0f}",
        "label": label,
    }
    errors = record.get("errors", 0)
    if errors:
        row["label"] += f" [{errors} errors]"
    return row


def _cmd_runs(args, out) -> int:
    # Constructed directly (not via resolve_ledger) so reads work even
    # under REPRO_LEDGER=off — the kill-switch gates writes, not
    # inspection, mirroring how 'repro cache stats' always works.
    ledger = RunLedger()
    if args.runs_command == "path":
        out.write(ledger.path + "\n")
        return 0
    if args.runs_command == "list":
        records = ledger.records(limit=args.limit, kind=args.kind)
        if args.json:
            json.dump(records, out, indent=2)
            out.write("\n")
            return 0
        if not records:
            out.write(f"no ledger records under {ledger.path}\n")
            return 0
        rows = [_runs_list_row(r) for r in records]
        headers = list(rows[0])
        out.write(render_table(
            headers, [[row[h] for h in headers] for row in rows]) + "\n")
        return 0
    if args.runs_command == "merge":
        return _cmd_runs_merge(args, out)
    if args.runs_command == "prune":
        if args.keep < 0:
            sys.stderr.write(f"error: --keep must be >= 0, got {args.keep}\n")
            return 2
        removed = ledger.prune(keep=args.keep)
        out.write(f"removed {removed} ledger records "
                  f"(kept newest {args.keep}) under {ledger.root}\n")
        return 0
    if args.runs_command == "show":
        try:
            record = ledger.find(args.run_id)
        except (KeyError, ValueError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        json.dump(record, out, indent=2)
        out.write("\n")
        return 0
    assert args.runs_command == "diff"
    try:
        rec_a = ledger.find(args.run_a)
        rec_b = ledger.find(args.run_b)
    except (KeyError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    rows, code = diff_records(rec_a, rec_b, tol=args.tol)
    if args.json:
        json.dump({"differing": rows, "exit_code": code}, out, indent=2)
        out.write("\n")
        return code
    if code == 2:
        sys.stderr.write(
            f"error: records {rec_a.get('id')} and {rec_b.get('id')} "
            "share no spec digests (nothing comparable)\n")
        return code
    if not rows:
        out.write(f"records match (all shared metrics within "
                  f"tol={args.tol:g})\n")
        return code
    table_rows = [[r["digest"][:12], r["metric"],
                   "-" if r["a"] is None else f"{r['a']:g}",
                   "-" if r["b"] is None else f"{r['b']:g}",
                   "-" if r["delta"] is None else f"{r['delta']:+g}"]
                  for r in rows]
    out.write(render_table(["digest", "metric", "a", "b", "delta"],
                           table_rows) + "\n")
    out.write(f"{len(rows)} metric(s) differ beyond tol={args.tol:g}\n")
    return code


def _cmd_perf(args, out) -> int:
    from .obs import perf_trend

    history = perf_trend.load_history(args.history)
    if not history:
        sys.stderr.write(
            f"error: no history entries in {args.history!r} "
            "(benchmarks/perf_harness.py appends one per invocation)\n")
        return 2
    if args.json:
        json.dump(history, out, indent=2)
        out.write("\n")
    else:
        out.write(perf_trend.render_trend(history) + "\n")
    if args.check_regression is None:
        return 0
    latest = history[-1]
    prior = perf_trend.comparable_entries(
        history[:-1], kernel=latest.get("kernel"),
        quick=bool(latest.get("quick")), cpu_count=latest.get("cpu_count"))
    if not prior:
        out.write("# regression gate: no earlier comparable entries "
                  "(kernel/quick/cpus must match); nothing to gate\n")
        return 0
    baseline = perf_trend.median_baseline(prior)
    current = {name: float(value)
               for name, value in latest.get("events_per_sec", {}).items()}
    regressed = perf_trend.check_trend(current, baseline,
                                       args.check_regression)
    if regressed:
        for name, gain in regressed:
            out.write(f"# REGRESSION {name}: {gain:+.1%} vs the median of "
                      f"{len(prior)} comparable entries "
                      f"(budget -{args.check_regression:g}%)\n")
        return 1
    out.write(f"# regression gate: ok — {len(current)} point(s) within "
              f"{args.check_regression:g}% of the {len(prior)}-entry "
              "median\n")
    return 0


def _single_run_agg(spec, result) -> ReplicatedResult:
    """Wrap one grid result as a 1-run aggregate for the table renderer."""
    stats = RunSet()
    stats.add_run(result.scalar_metrics())
    return ReplicatedResult(spec=spec, runs=[result], stats=stats)


def _cmd_sweep_scenario(args, out) -> int:
    specs = expand_scenario(load_scenario_doc(args.scenario))
    if not specs:
        sys.stderr.write(
            f"error: scenario {args.scenario!r} expands to no points\n"
        )
        return 2
    if not args.distributed:
        # Same semantics as 'repro grid': one box, the process pool.
        args.runs = 1
        aggs, timing = _run_specs(args, specs)
        _emit([_result_dict(agg) for agg in aggs], args.json, out)
        if not args.json:
            out.write(timing + "\n")
        return 0
    if args.no_cache:
        sys.stderr.write(
            "error: --no-cache is incompatible with --distributed — the "
            "shared result cache is how workers return results\n"
        )
        return 2
    name = os.path.splitext(os.path.basename(args.scenario))[0]
    queue_dir = args.queue or default_queue_dir(name, grid_digest(specs))
    monitor = None
    if args.live or args.metrics_out or args.progress_out:
        monitor = DistMonitor(len(specs),
                              stream=sys.stderr if args.live else None)
    try:
        report = run_distributed(
            specs, queue_dir,
            chunk=args.chunk,
            workers=args.workers,
            worker_jobs=args.jobs,
            lease_s=args.lease_timeout,
            wait_timeout_s=args.wait_timeout,
            monitor=monitor,
            name=name,
        )
    except (ValueError, DistributedSweepError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _export_monitor(args, monitor)
    for notice in report.notices:
        sys.stderr.write(f"note: {notice}\n")
    aggs = [_single_run_agg(spec, result)
            for spec, result in zip(specs, report.results)]
    _emit([_result_dict(agg) for agg in aggs], args.json, out)
    if not args.json:
        line = f"# queue={queue_dir} " + report.summary_line()
        if report.run_id:
            line += f" run={report.run_id}"
        out.write(line + "\n")
    return 0


def _cmd_worker(args, out) -> int:
    try:
        report = run_worker(
            args.pull,
            jobs=args.jobs,
            lease_s=args.lease_timeout,
            idle_timeout_s=args.idle_timeout,
            poll_s=args.poll,
            max_chunks=args.max_chunks,
            cache_root=args.cache_dir,
        )
    except (ValueError, WorkerError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if args.json:
        json.dump({
            "worker_id": report.worker_id,
            "chunks": report.chunks,
            "points": report.points,
            "computed": report.computed,
            "cached": report.cached,
            "errors": report.errors,
            "events": report.events,
            "wall_s": report.wall_s,
            "events_per_sec": report.events_per_sec,
            "exit_reason": report.exit_reason,
        }, out, indent=2)
        out.write("\n")
    else:
        out.write(report.summary_line() + "\n")
    return 0


def _cmd_runs_merge(args, out) -> int:
    # A queue directory is accepted directly: its ledgers/ subdirectory
    # holds one shard per worker, which is exactly what needs merging
    # after a distributed sweep.
    sources: List[str] = []
    for source in args.sources:
        ledgers_sub = os.path.join(source, "ledgers")
        if os.path.isdir(ledgers_sub):
            shards = sorted(
                os.path.join(ledgers_sub, n) for n in os.listdir(ledgers_sub)
                if os.path.isdir(os.path.join(ledgers_sub, n)))
            if not shards:
                sys.stderr.write(f"note: queue {source!r} has no worker "
                                 "ledgers to merge\n")
            sources.extend(shards)
        else:
            sources.append(source)
    dest, added = merge_ledgers(sources, dest=args.into)
    out.write(f"merged {added} new record(s) from {len(sources)} "
              f"ledger(s) into {dest.path}\n")
    return 0


def _cmd_compare(args, out) -> int:
    specs = [
        _spec_from_args(args, cc=cc, pacing_stride=args.stride)
        for cc in ("cubic", "bbr")
    ]
    aggs, timing = _run_specs(args, specs)
    rows = [_result_dict(agg) for agg in aggs]
    _emit(rows, args.json, out)
    if not args.json:
        cubic, bbr = rows[0], rows[1]
        gap = 100 * (1 - bbr["goodput_mbps"] / max(1e-9, cubic["goodput_mbps"]))
        out.write(f"\nBBR vs Cubic goodput gap: {gap:.1f}%\n")
        out.write(timing + "\n")
    return 0


def _cmd_sweep(args, out) -> int:
    spec = _spec_from_args(args, cc="bbr")
    jobs = resolve_jobs(args.jobs)
    monitor = _make_monitor(args, len(args.strides) * args.runs)
    start = time.perf_counter()
    results = sweep_strides(spec, strides=args.strides, runs=args.runs,
                            jobs=jobs, cache=False if args.no_cache else None,
                            chunk=args.chunk, monitor=monitor)
    wall = time.perf_counter() - start
    _export_monitor(args, monitor)
    rows = []
    for stride in args.strides:
        agg = results[float(stride)]
        row = _result_dict(agg)
        row = {"stride": f"{stride:g}x", **row}
        del row["label"]
        rows.append(row)
    _emit(rows, args.json, out)
    if not args.json:
        out.write(_timing_line(list(results.values()), jobs, wall) + "\n")
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if getattr(args, "kernel", None):
        # Exported (not just resolved here) so grid/replication worker
        # processes inherit the same backend selection.
        os.environ[KERNEL_ENV_VAR] = args.kernel
        # Resolve once up front: if the compiled extension is missing
        # this prints the fallback notice before any output, not midway
        # through a grid.
        resolve_kernel(args.kernel)
    if args.command == "run":
        return _cmd_run(args, out)
    if args.command == "grid":
        return _cmd_grid(args, out)
    if args.command == "compare":
        return _cmd_compare(args, out)
    if args.command == "sweep":
        return _cmd_sweep_scenario(args, out)
    if args.command == "worker":
        return _cmd_worker(args, out)
    if args.command == "sweep-strides":
        return _cmd_sweep(args, out)
    if args.command == "report":
        return _cmd_report(args, out)
    if args.command == "cache":
        return _cmd_cache(args, out)
    if args.command == "runs":
        return _cmd_runs(args, out)
    if args.command == "perf":
        return _cmd_perf(args, out)
    if args.command == "list":
        return _cmd_list(args, out)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
