"""One measuring process of the benchmark: ``child.py <role> <args.json>``.

``run.py`` starts every measurement in a fresh interpreter so that
set-up time, CPU time and peak memory belong to one grid and nothing
else. Roles:

* ``info``    -- kernel provenance and the workload's spec digests;
* ``prep``    -- untimed: pure-kernel reference digests for the points
  that need them, and the result-cache template for prefilled points;
* ``setup``   -- set-up only, up to the first dispatch (more ``setup_s``
  samples);
* ``measure`` -- set-up, then one timed grid through the public API on
  the default kernel (the end-to-end metrics), paused after set-up and,
  on the serial path, at point boundaries, so that ``run.py`` can time
  its host-speed probe between the timed segments;
* ``trace``   -- untraced and traced pure-kernel grids (the per-layer
  metrics).

Each role writes one JSON object to the ``out`` path named in its args.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import sys
import time
from typing import Optional

#: version directory the prep role writes cached results under; consumers
#: copy its entries into their own cache's version directory, whatever
#: kernel fingerprint that has
TEMPLATE_FINGERPRINT = "0" * 64


def result_digest(result) -> str:
    """SHA-256 of a result's ``scalar_metrics()`` (exact float repr)."""
    payload = json.dumps(result.scalar_metrics(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _workload_specs(args):
    from repro.core.scenario import expand_scenario
    from workloads import WORKLOADS

    workload = WORKLOADS[args["workload"]]
    doc = workload.doc(args["seed"], args["seconds"])
    t0 = time.perf_counter()
    specs = expand_scenario(doc)
    return workload, specs, time.perf_counter() - t0


def _fresh_stores(workdir: str, name: str, template: Optional[str] = None):
    """A fresh result cache (prefilled from *template*) and run ledger."""
    from repro.cache import ResultCache
    from repro.obs.ledger import RunLedger

    root = os.path.join(workdir, name)
    cache = ResultCache(root=os.path.join(root, "cache"))
    t0 = time.monotonic()
    if template:
        source = os.path.join(template, TEMPLATE_FINGERPRINT[:16])
        shutil.copytree(source, cache.version_dir)
    prefill_s = time.monotonic() - t0
    ledger = RunLedger(root=os.path.join(root, "ledger"))
    # run_experiment appends run records through the env-configured
    # default ledger (in pool workers too): point it at this grid's ledger.
    os.environ["REPRO_LEDGER_DIR"] = ledger.root
    return cache, ledger, prefill_s


def _cpu_s() -> float:
    """Host CPU seconds of this process plus its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _self_peak_kib() -> int:
    """Peak resident KiB of this process since its exec (``VmHWM``).

    Not ``RUSAGE_SELF``: its ``ru_maxrss`` keeps the resident size this
    process had before its exec, as a copy of ``run.py``.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _require_children_ended() -> None:
    """Fail unless every child process this one started has been waited for.

    ``RUSAGE_CHILDREN`` (CPU time and peak memory of the pool workers)
    only covers children that were waited for, so a grid that leaves a
    worker running would under-report both and read as a gain. Zombies
    are reaped here, which adds them to ``RUSAGE_CHILDREN``.
    """
    alive = multiprocessing.active_children()
    if alive:
        raise RuntimeError(
            f"{len(alive)} worker process(es) still running after the grid: "
            "their CPU time and memory would not be counted")
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no children left
        if pid == 0:
            raise RuntimeError(
                "a child process is still running after the grid: its CPU "
                "time and memory would not be counted")


def _run_grid(specs, jobs, cache, ledger):
    """One monitored grid: (report, monitor, wall_s, cpu_s, start epoch)."""
    from repro.obs.live import GridMonitor
    from repro.runner import run_grid_report

    monitor = GridMonitor(len(specs))
    cpu0 = _cpu_s()
    wall0 = time.time()
    t0 = time.monotonic()
    report = run_grid_report(specs, jobs=jobs, raise_on_error=False,
                             cache=cache, monitor=monitor, ledger=ledger)
    wall = time.monotonic() - t0
    _require_children_ended()
    return report, monitor, wall, _cpu_s() - cpu0, wall0


class _Segments:
    """Splits a timed grid into segments; run.py probes the host between them.

    At each :meth:`pause` the current segment ends, this process tells
    ``run.py`` over a pipe and blocks until ``run.py`` has timed its
    host-speed probe, then the next segment starts. So the probe never
    shares the host with the grid, and each segment is timed next to a
    probe. ``wall`` and ``cpu`` hold each segment's seconds; the pauses
    are in neither.
    """

    def __init__(self, fds):
        self._ready, self._go = fds
        self.wall, self.cpu = [], []

    def handoff(self) -> None:
        """Let run.py probe now; block until it has."""
        os.write(self._ready, b"p")
        if os.read(self._go, 1) != b"g":
            raise RuntimeError("run.py closed the probe pipe")

    def begin(self) -> None:
        self._wall0, self._cpu0 = time.monotonic(), _cpu_s()

    def elapsed(self) -> float:
        return time.monotonic() - self._wall0

    def end(self) -> None:
        self.wall.append(time.monotonic() - self._wall0)
        self.cpu.append(_cpu_s() - self._cpu0)

    def pause(self) -> None:
        self.end()
        self.handoff()
        self.begin()


#: a grid segment ends at the first point boundary after this many seconds
MIN_SEGMENT_S = 0.4


def _pausing_monitor(total: int, segments: _Segments):
    """A GridMonitor that pauses *segments* at point boundaries, once the
    current segment has run ``MIN_SEGMENT_S``.

    Only for the serial path, where the monitor is called in this process
    between points; with pool workers the grid is one segment.
    """
    from repro.obs.live import GridMonitor

    class PausingMonitor(GridMonitor):
        def record(self, event):
            super().record(event)
            if event[0] in ("done", "error") \
                    and segments.elapsed() >= MIN_SEGMENT_S:
                segments.pause()

    return PausingMonitor(total)


def _digests(report):
    """Per-point digest, or None for a point that raised."""
    return [
        None if hasattr(r, "traceback") else result_digest(r)
        for r in report.results
    ]


def _first_done_s(monitor, wall0: float) -> float:
    """Wall seconds from dispatch to the first computed point's result."""
    done = [e["ts"] for e in monitor.events_log if e["kind"] == "done"]
    return min(done) - wall0 if done else 0.0


def role_info(args):
    from repro.core.scenario import spec_digest
    from repro.kernel import KERNELS, kernel_info

    _, specs, _ = _workload_specs(args)
    compiled = KERNELS.get("compiled")
    return {
        "compiled_available": compiled.available,
        "compiled_components": kernel_info(compiled)["compiled_components"]
        if compiled.available else [],
        "python": sys.version.split()[0],
        "spec_digests": [spec_digest(s) for s in specs],
    }


def role_prep(args):
    from repro import run_experiment
    from repro.cache import ResultCache

    workload, specs, _ = _workload_specs(args)
    os.environ["REPRO_KERNEL"] = "pure"
    template = ResultCache(root=args["template"],
                           fingerprint=TEMPLATE_FINGERPRINT)
    digests = {}
    for i in sorted(set(args["reference"]) | set(range(workload.prefill))):
        result = run_experiment(specs[i], ledger=False)
        digests[i] = result_digest(result)
        if i < workload.prefill and not template.put(specs[i], result):
            raise OSError(f"could not prefill the cache template at {i}")
    return {"digests": digests}


def _set_up(args):
    """Everything before the first dispatch, and its wall seconds since the
    interpreter was spawned (the cache prefill copy excluded)."""
    workload, specs, _ = _workload_specs(args)
    cache, ledger, prefill_s = _fresh_stores(
        args["workdir"], "measure", args.get("template"))
    setup_s = time.monotonic() - args["t_spawn"] - prefill_s
    return workload, specs, cache, ledger, setup_s


def role_setup(args):
    return {"setup_s": _set_up(args)[-1]}


def role_measure(args):
    from repro.obs.live import GridMonitor
    from repro.runner import run_grid_report
    from workloads import grid_jobs

    workload, specs, cache, ledger, setup_s = _set_up(args)
    jobs = grid_jobs(workload)
    segments = _Segments(args["probe_fds"])
    segments.handoff()  # the probe after set-up, before the grid
    monitor = (_pausing_monitor(len(specs), segments) if jobs == 1
               else GridMonitor(len(specs)))
    segments.begin()
    report = run_grid_report(specs, jobs=jobs, raise_on_error=False,
                             cache=cache, monitor=monitor, ledger=ledger)
    _require_children_ended()
    segments.end()
    peak_kib = (_self_peak_kib()
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": setup_s,
        "segments": {"wall": segments.wall, "cpu": segments.cpu},
        "peak_rss_mib": peak_kib / 1024.0,
        "digests": _digests(report),
        "kernel_info": {"name": report.kernel,
                        "compiled_components": list(report.kernel_components)},
    }


def role_trace(args):
    from repro.kernel import KERNELS, kernel_info, resolve_kernel
    from tracing import COORDINATOR_LAYERS, LayerTracer
    from workloads import grid_jobs
    import layers

    t0 = time.perf_counter()
    kernel_info(resolve_kernel())
    KERNELS.get("compiled").available  # loads the extension, if built
    load_s = time.perf_counter() - t0
    os.environ["REPRO_KERNEL"] = "pure"
    workload, specs, expand_s = _workload_specs(args)
    template = args.get("template")
    jobs = grid_jobs(workload)
    runs = {}

    cache, ledger, _ = _fresh_stores(args["workdir"], "untraced", template)
    report, _, _, base_cpu, _ = _run_grid(specs, 1, cache, ledger)
    runs["untraced"] = _digests(report)

    cache, ledger, _ = _fresh_stores(args["workdir"], "traced", template)
    tracer = LayerTracer()
    with tracer:
        report, monitor, wall, cpu, wall0 = _run_grid(specs, 1, cache, ledger)
    runs["traced"] = _digests(report)
    coordinator = (tracer, report, monitor, wall, ledger,
                   _first_done_s(monitor, wall0))
    sim_run = (tracer, report)

    if jobs > 1:
        cache, ledger, _ = _fresh_stores(args["workdir"], "coordinator",
                                         template)
        ctracer = LayerTracer(COORDINATOR_LAYERS)
        with ctracer:
            creport, cmonitor, cwall, _, cwall0 = _run_grid(specs, jobs,
                                                            cache, ledger)
        runs["coordinator"] = _digests(creport)
        coordinator = (ctracer, creport, cmonitor, cwall, ledger,
                       _first_done_s(cmonitor, cwall0))

    metrics = layers.per_layer_metrics(
        sim_run=sim_run,
        coordinator=coordinator,
        load_s=load_s,
        expand_s=expand_s,
        overhead=cpu / base_cpu - 1.0 if base_cpu > 0 else 0.0,
    )
    return {"metrics": metrics, "runs": runs}


ROLES = {
    "info": role_info,
    "prep": role_prep,
    "setup": role_setup,
    "measure": role_measure,
    "trace": role_trace,
}


def main(argv) -> int:
    role, args_path = argv[1], argv[2]
    with open(args_path, encoding="utf-8") as fh:
        args = json.load(fh)
    out = ROLES[role](args)
    with open(args["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
