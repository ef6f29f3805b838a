"""Outside-in layer tracing: wrap ``repro`` entry points, account self time.

Nothing under ``src/`` knows about this module. :class:`LayerTracer`
replaces the public entry points of each simulator module (class
attributes, and the one module-level binding the grid runner calls) with
timing wrappers, and :meth:`LayerTracer.uninstall` puts every original
object back. Spans are kept in memory as per-name accumulators:

* ``calls``  -- how many times the span was entered (exact in a
  deterministic run);
* ``self_s`` -- host seconds inside the span minus the host seconds its
  child spans cover;
* ``total_s`` -- host seconds inside the span.

A span's name is the layer it belongs to (``tcp.ack``, ``cc.bbr``,
``netsim.link`` ...). The executor seam ``NetStackExecutor.submit`` /
``submit_for`` (pure Python under both kernels) is wrapped to count work
items and the simulated cycles they charge per work kind, and to wrap
each item's callback in a ``cpu.work.<kind>`` span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["LAYERS", "COORDINATOR_LAYERS", "LayerTracer"]

#: (layer, module, class, attributes or None for "public", span)
#: ``None`` attributes mean every public method and property of the class,
#: inherited ones included (they are shadowed on the class, then removed).
_TARGETS: Tuple[Tuple[str, str, Optional[str], Optional[Tuple[str, ...]], str], ...] = (
    ("cpu", "repro.cpu.core", "CpuCore",
     ("submit", "submit_work", "_start_next", "_complete"), "cpu.core"),
    ("tcp", "repro.tcp.connection", "TcpSender", ("on_ack_packet",), "tcp.ack"),
    ("tcp", "repro.tcp.stack", "MobileTcpStack", ("send_packet",),
     "tcp.send_packet"),
    ("tcp", "repro.tcp.receiver", "TcpReceiverEndpoint", ("on_data",),
     "tcp.receiver"),
    ("tcp.pacing", "repro.tcp.pacing", "PacingController", None, "tcp.pacing"),
    ("cc", "repro.cc.bbr", "Bbr", None, "cc.bbr"),
    ("cc", "repro.cc.bbr2", "Bbr2", None, "cc.bbr2"),
    ("cc", "repro.cc.cubic", "Cubic", None, "cc.cubic"),
    ("netsim", "repro.netsim.link", "Link", ("send", "_tx_done"), "netsim.link"),
    ("netsim", "repro.netsim.queue", "DropTailQueue",
     ("enqueue", "_pump", "_tx_done", "sample_backlog"), "netsim.queue"),
    ("netsim", "repro.netsim.media", "VariableRateLink", ("_update",),
     "netsim.media"),
    ("apps", "repro.apps.flows", "FlowClient", None, "apps"),
    ("apps", "repro.apps.flows", "FlowClient", ("_on_rtt_sample",), "apps"),
    ("apps", "repro.apps.iperf", "IperfServerApp",
     ("goodput_bps_between", "flow_goodput_bps_between"), "apps"),
    ("cache", "repro.cache", "ResultCache", ("get",), "cache.get"),
    ("cache", "repro.cache", "ResultCache", ("put",), "cache.put"),
    ("obs.ledger", "repro.obs.ledger", "RunLedger",
     ("record_run", "record_grid"), "obs.ledger"),
)

#: (span, attribute) -> (counter, count only calls that report failure
#: by returning ``None`` or ``False``)
_COUNTERS = {
    ("netsim.link", "send"): ("netsim.link.packets", False),
    ("cache.put", "put"): ("cache.put_failures", True),
}

#: FlowClient methods returning the event callbacks that start static
#: flows and spawn churn flows; the returned callables get an ``apps`` span
_APPS_FACTORIES = ("_starter", "_spawner")

#: every layer this tracer can wrap
LAYERS = frozenset({t[0] for t in _TARGETS} | {"core.experiment", "sim"})

#: layers that run in the coordinating process of a multi-worker grid
COORDINATOR_LAYERS = frozenset({"cache", "obs.ledger"})


def _public_members(cls) -> List[str]:
    """Public functions and properties of *cls* and its non-object bases."""
    names = []
    for name in dir(cls):
        if name.startswith("_"):
            continue
        raw = inspect.getattr_static(cls, name)
        if inspect.isfunction(raw) or isinstance(raw, property):
            names.append(name)
    return names


class LayerTracer:
    """Install timing wrappers on ``repro`` layers; remove them afterwards.

    Use as a context manager (or call :meth:`install` / :meth:`uninstall`).
    *layers* selects what to wrap (default: all of :data:`LAYERS`). The
    ``cpu`` layer counts work items and simulated cycles per kind at the
    executor seam and puts a ``cpu.work.<kind>`` span around each item's
    callback.
    """

    def __init__(self, layers: Optional[Iterable[str]] = None):
        self.layers = frozenset(LAYERS if layers is None else layers)
        unknown = self.layers - LAYERS
        if unknown:
            raise ValueError(f"unknown layers {sorted(unknown)}")
        #: span name -> [calls, self_s, total_s]
        self.spans: Dict[str, List[float]] = {}
        #: work kind -> [items submitted, simulated cycles charged]
        self.work: Dict[str, List[int]] = {}
        #: counters kept at span boundaries (see ``_COUNTERS``)
        self.counts: Dict[str, int] = {}
        #: summed run_experiment time before / after the event loop ran
        self.build_s = 0.0
        self.collect_s = 0.0
        # child-time accumulators of the open spans; index 0 is a sentinel
        self._stack: List[float] = [0.0]
        self._sim_window: Optional[Tuple[float, float]] = None
        self._patches: List[Tuple[object, str, bool, object]] = []

    # -- context manager -------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- span accounting -------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - t0
                children = stack.pop()
                stack[-1] += duration
                stats[0] += 1
                stats[1] += duration - children
                stats[2] += duration

        return wrapper

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        had_own = attr in vars(owner)
        raw = vars(owner)[attr] if had_own else inspect.getattr_static(owner, attr)
        if isinstance(raw, property):
            new = property(make(raw.fget), raw.fset, raw.fdel, raw.__doc__)
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, had_own, raw))

    def install(self) -> "LayerTracer":
        """Wrap the selected layers' entry points (idempotent per tracer)."""
        if self._patches:
            return self
        for layer, module_name, class_name, attrs, span in _TARGETS:
            if layer not in self.layers:
                continue
            owner = getattr(importlib.import_module(module_name), class_name)
            for attr in attrs if attrs is not None else _public_members(owner):
                self._patch(owner, attr, self._maker(span, attr))
        if "apps" in self.layers:
            from repro.apps.flows import FlowClient

            for attr in _APPS_FACTORIES:
                self._patch(FlowClient, attr, self._factory_maker("apps"))
        if "sim" in self.layers:
            from repro.sim.engine import EventLoop

            self._patch(EventLoop, "run", self._sim_run_maker)
        if "core.experiment" in self.layers:
            import repro.runner

            self._patch(repro.runner, "run_experiment", self._experiment_maker)
        if "cpu" in self.layers:
            from repro.cpu.softirq import NetStackExecutor

            for attr in ("submit", "submit_for"):
                self._patch(NetStackExecutor, attr, self._executor_maker)
        return self

    def uninstall(self) -> None:
        """Put every original attribute back, in reverse patch order."""
        while self._patches:
            owner, attr, had_own, raw = self._patches.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    @property
    def installed(self) -> bool:
        """Whether wrappers are currently in place."""
        return bool(self._patches)

    # -- wrapper factories -----------------------------------------------------

    def _maker(self, span: str, attr: str) -> Callable[[Callable], Callable]:
        counter = _COUNTERS.get((span, attr))

        def make(fn: Callable) -> Callable:
            if counter is not None:
                fn = self._counted(fn, *counter)
            return self._span(span, fn)

        return make

    def _counted(self, fn: Callable, key: str, only_failures: bool) -> Callable:
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not only_failures or result is None or result is False:
                counts[key] += 1
            return result

        return wrapper

    def _factory_maker(self, span: str) -> Callable[[Callable], Callable]:
        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._span(span, fn(*args, **kwargs))

            return wrapper

        return make

    def _sim_run_maker(self, fn: Callable) -> Callable:
        timed = self._span("sim.run", fn)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf()
            try:
                return timed(*args, **kwargs)
            finally:
                self._sim_window = (start, perf())

        return wrapper

    def _experiment_maker(self, fn: Callable) -> Callable:
        timed = self._span("core.experiment", fn)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._sim_window = None
            start = perf()
            try:
                return timed(*args, **kwargs)
            finally:
                end = perf()
                if self._sim_window is not None:
                    sim_start, sim_end = self._sim_window
                    self.build_s += sim_start - start
                    self.collect_s += end - sim_end

        return wrapper

    def _executor_maker(self, fn: Callable) -> Callable:
        count = self._count_work

        if fn.__name__ == "submit_for":
            @functools.wraps(fn)
            def wrapper(executor, flow_id, cycles, callback, name="work",
                        *rest, **kwargs):
                callback = count(name, cycles, callback)
                return fn(executor, flow_id, cycles, callback, name, *rest,
                          **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(executor, cycles, callback, name="work", *rest,
                        **kwargs):
                callback = count(name, cycles, callback)
                return fn(executor, cycles, callback, name, *rest, **kwargs)

        return wrapper

    def _count_work(self, name: str, cycles: int, callback: Callable) -> Callable:
        entry = self.work.get(name)
        if entry is None:
            entry = self.work[name] = [0, 0]
        entry[0] += 1
        entry[1] += cycles
        return self._span(f"cpu.work.{name}", callback)

    # -- results ---------------------------------------------------------------

    def span(self, name: str) -> Tuple[int, float, float]:
        """(calls, self_s, total_s) of span *name* (zeros if never entered)."""
        calls, self_s, total_s = self.spans.get(name, (0, 0.0, 0.0))
        return int(calls), self_s, total_s

    def attributed_frac(self) -> float:
        """Share of ``run_experiment`` host time inside named layer spans.

        The part left over is ``run_experiment``'s own code: building the
        testbed and reading metrics out of it, outside any wrapped layer.
        """
        _, root_self, root_total = self.span("core.experiment")
        if root_total <= 0.0:
            return 0.0
        return 1.0 - root_self / root_total
