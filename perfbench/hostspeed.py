"""Host-speed probe: scale measured times to a reference host speed.

The 2-vCPU hosts this benchmark runs on share their cores with other
tenants, and their speed drifts by tens of percent within seconds and
over minutes. So ``run.py`` times a short fixed probe next to every
timed interval: before a measuring process starts, at each pause of that
process (after set-up, and on the serial path at point boundaries at
least ``child.MIN_SEGMENT_S`` apart) and after the process and every
process it started have ended. Each interval is multiplied by
``PROBE_REF_S / probe``, with the mean of the two probes around it:
seconds as a host running the probe in ``PROBE_REF_S`` would take.

The probe does the kinds of work a simulation does (attribute updates,
dict stores, a heap) over a working set of a few MiB, and it runs on the
CPU the measured work ran on (``run._pinned``). On one such host, scaling
each third of a second of grid by the probes around it cut the spread of
run medians from 0.16 to 0.02 (``pacing_lowend``) and from 0.12 to 0.07
(``ackpath_wifi``, where the rest is the seed's own work); one probe
before and one after a whole 3-second grid, on whichever CPU the
scheduler chose, had made that spread wider, not narrower.

The probe is plain Python in this file, and it runs in the ``run.py``
process, which imports no simulator code, while the measuring process is
blocked: nothing the program under test runs, leaves running or
allocates shares a process with it.
"""

from __future__ import annotations

import gc
import heapq
import os
import random
import time

__all__ = ["PROBE_REF_S", "probe_s", "host_scale"]

#: probe pass time of the reference host (2-vCPU x86, Python 3.11,
#: uncontended); only fixes the scale, so it is a constant
PROBE_REF_S = 0.045

#: objects the probe walks: a working set of a few MiB, like a simulation's
_OBJECTS = 200_000
_STEPS = 30_000


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key: int):
        self.key = key
        self.value = 0.0


_working_set = None


def _build():
    rng = random.Random(1)
    slots = [_Slot(i) for i in range(_OBJECTS)]
    order = [rng.randrange(_OBJECTS) for _ in range(_STEPS)]
    return slots, order


def _probe_pass() -> float:
    """Random attribute updates, dict stores and a bounded heap: the kinds
    of work an event-driven simulation does, over a fixed working set (a
    tight integer loop misses the cache contention that slows the grid)."""
    slots, order = _working_set
    heap, index, total = [], {}, 0.0
    for step, key in enumerate(order):
        slot = slots[key]
        slot.value += 1.5
        total += slot.key * 0.5
        index[key] = slot
        heapq.heappush(heap, (slot.value + step * 1e-3, step))
        if len(heap) > 64:
            heapq.heappop(heap)
    return total


def _timed_passes(passes: int) -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(passes):
            _probe_pass()
        return (time.perf_counter() - t0) / passes
    finally:
        if enabled:
            gc.enable()


def probe_s() -> float:
    """Mean host seconds of one probe pass, with the collector paused, on
    each CPU this process may run on in turn (the CPUs a measured process
    started from here runs on)."""
    global _working_set
    if _working_set is None:
        _working_set = _build()
    cpus = os.sched_getaffinity(0)
    if len(cpus) == 1:
        return _timed_passes(2)
    # A pool grid is one segment of about a second between two probes, so
    # a longer probe per CPU (noisy short probes widened its spread)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_timed_passes(4))
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def host_scale(probes) -> float:
    """Factor that turns this host's seconds into reference-host seconds."""
    return PROBE_REF_S / (sum(probes) / len(probes))
