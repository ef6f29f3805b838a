"""Per-layer metrics of one traced workload run, named after the modules.

Host-time metrics (``*_s``) come from :class:`tracing.LayerTracer` spans
and vary from run to run. Counts and simulated-clock values (``*.count``,
``*.calls``, ``*.sim_cycles``, ``sim.events``, drops, retransmits ...)
are exact: a change that only speeds the simulator up must not move them.
"""

from __future__ import annotations

import statistics
from typing import Dict, Tuple

__all__ = ["WORK_KINDS", "UNITS", "per_layer_metrics"]

#: network-stack work kinds submitted through the executor seam
WORK_KINDS = ("sendmsg", "xmit", "pacing-timer", "ack", "retx", "rto")

_SPAN_SELF = (
    "sim.run", "cpu.core", "tcp.ack", "tcp.send_packet", "tcp.receiver",
    "tcp.pacing", "cc.bbr", "cc.bbr2", "cc.cubic", "netsim.link",
    "netsim.queue", "netsim.media", "apps",
)
_SPAN_CALLS = ("tcp.ack", "tcp.send_packet", "cc.bbr", "cc.bbr2", "cc.cubic",
               "core.experiment")


def _units() -> Dict[str, str]:
    units = {
        "kernel.load_s": "s",
        "core.scenario.expand_s": "s",
        "sim.events": "count",
        "cpu.sim_busy_frac": "ratio",
        "tcp.retx_segments": "count",
        "tcp.rto_count": "count",
        "tcp.pacing.periods": "count",
        "netsim.link.packets": "count",
        "netsim.router_drops": "count",
        "netsim.phone_drops": "count",
        "core.experiment.build_s": "s",
        "core.experiment.collect_s": "s",
        "apps.flows.started": "count",
        "apps.flows.completed": "count",
        "runner.dispatch_s": "s",
        "runner.first_result_s": "s",
        "runner.point_wall_s.p50": "s",
        "runner.errors": "count",
        "cache.get_s": "s",
        "cache.put_s": "s",
        "cache.hits": "count",
        "cache.misses": "count",
        "cache.put_failures": "count",
        "obs.ledger.append_s": "s",
        "obs.ledger.records": "count",
        "obs.ledger.failures": "count",
        "trace.overhead_frac": "ratio",
        "trace.attributed_frac": "ratio",
    }
    for span in _SPAN_SELF:
        units[f"{span}.self_s"] = "s"
    for span in _SPAN_CALLS:
        units[f"{span}.calls"] = "count"
    for kind in WORK_KINDS:
        units[f"cpu.work.{kind}.count"] = "count"
        units[f"cpu.work.{kind}.self_s"] = "s"
        units[f"cpu.work.{kind}.sim_cycles"] = "cycles"
    return units


#: metric name -> unit, for every per-layer metric this module computes
UNITS: Dict[str, str] = _units()


def per_layer_metrics(sim_run, coordinator, load_s: float, expand_s: float,
                      overhead: float) -> Dict[str, float]:
    """Assemble the per-layer metrics.

    *sim_run* is ``(tracer, report)`` of the one-process traced grid.
    *coordinator* is ``(tracer, report, monitor, wall_s, ledger,
    first_result_s)`` of the grid traced at the workload's own worker
    count (the same run when that is 1).
    """
    tracer, report = sim_run
    computed = [
        r for i, r in enumerate(report.results)
        if i not in report.cache_hit_indices and not hasattr(r, "traceback")
    ]
    m: Dict[str, float] = {
        "kernel.load_s": load_s,
        "core.scenario.expand_s": expand_s,
        "sim.events": report.total_events,
        "cpu.sim_busy_frac": (
            statistics.fmean(r.cpu_busy_fraction for r in computed)
            if computed else 0.0
        ),
        "tcp.retx_segments": sum(r.retransmitted_segments for r in computed),
        "tcp.rto_count": sum(r.rto_count for r in computed),
        "tcp.pacing.periods": sum(r.pacing_periods for r in computed),
        "netsim.link.packets": tracer.counts.get("netsim.link.packets", 0),
        "netsim.router_drops": sum(r.router_dropped_segments for r in computed),
        "netsim.phone_drops": sum(r.phone_dropped_segments for r in computed),
        "core.experiment.build_s": tracer.build_s,
        "core.experiment.collect_s": tracer.collect_s,
        "apps.flows.started": sum(r.flow_count for r in computed),
        "apps.flows.completed": sum(r.flows_completed for r in computed),
        "trace.overhead_frac": overhead,
        "trace.attributed_frac": tracer.attributed_frac(),
    }
    for span in _SPAN_SELF:
        m[f"{span}.self_s"] = tracer.span(span)[1]
    for span in _SPAN_CALLS:
        m[f"{span}.calls"] = tracer.span(span)[0]
    for kind in WORK_KINDS:
        count, cycles = tracer.work.get(kind, (0, 0))
        m[f"cpu.work.{kind}.count"] = count
        m[f"cpu.work.{kind}.self_s"] = tracer.span(f"cpu.work.{kind}")[1]
        m[f"cpu.work.{kind}.sim_cycles"] = cycles

    ctracer, creport, monitor, wall_s, ledger, first_result_s = coordinator
    point_walls = [e["wall_s"] for e in monitor.events_log
                   if e["kind"] == "done"]
    computed_points = creport.points - creport.cache_hits - len(creport.errors)
    records = len(ledger.records())
    m.update({
        "runner.dispatch_s": wall_s - sum(point_walls) / creport.jobs,
        "runner.first_result_s": first_result_s,
        "runner.point_wall_s.p50": (
            statistics.median(point_walls) if point_walls else 0.0
        ),
        "runner.errors": len(creport.errors),
        "cache.get_s": ctracer.span("cache.get")[2],
        "cache.put_s": ctracer.span("cache.put")[2],
        "cache.hits": creport.cache_hits,
        "cache.misses": creport.cache_misses,
        "cache.put_failures": ctracer.counts.get("cache.put_failures", 0),
        "obs.ledger.append_s": ctracer.span("obs.ledger")[2],
        "obs.ledger.records": records,
        # one run record per computed point plus the grid record; counted
        # from the ledger file, so failed appends in workers show too
        "obs.ledger.failures": max(0, computed_points + 1 - records),
    })
    if set(m) != set(UNITS):
        raise RuntimeError(f"metric set drifted: {sorted(set(m) ^ set(UNITS))}")
    return m
