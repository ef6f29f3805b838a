"""The benchmark's workloads: closed-loop batch grids built from a seed.

Every workload is a scenario document expanded with the public
:func:`repro.core.scenario.expand_scenario` and run through
:func:`repro.runner.run_grid_report`; the caller waits for the whole
grid. ``seed`` sets every spec's seed, and ``seconds`` (the contract's
run length) sizes the simulated duration, so the same pair always yields
the same specs. The durations are calibrated on a 2-vCPU x86 host so a
run measures about ``seconds`` of host time; see README.md.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict

__all__ = ["DEFAULT_SEED", "WORKLOADS", "Workload", "grid_jobs"]

#: the seed whose per-point reference digests ship in reference/
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    why: str
    #: worker processes for the timed grid (0 = ``min(2, nproc)``)
    jobs: int
    #: repetitions of the timed grid per run, each in a fresh interpreter
    reps: Callable[[int], int]
    #: scenario document for (seed, seconds)
    doc: Callable[[int, int], Dict[str, Any]]
    #: leading grid points put in the result cache before timing starts
    prefill: int = 0


def _scaled(seconds: int, host_s_per_sim_s: float, reps: int) -> float:
    """Simulated duration that makes one rep cost ``seconds / reps`` host s."""
    return round(max(seconds, 1) / reps / host_s_per_sim_s, 3)


# Host seconds the whole grid takes per simulated second on the pure
# kernel (2-vCPU x86 host, Python 3.11; for ackpath_wifi per derived
# seed). Fixed constants, not measured at run time: the specs, and so
# every exact count, must depend only on (seed, seconds).
_PACING_COST = 3.33
_ACKPATH_COST = 4.0
_PACING_REPS = 5
_ACKPATH_REPS = 5
_ACKPATH_SEEDS = 4
#: churn points simulate this long: about 0.1 s of host time each
_SWEEP_DURATION_S = 0.8
#: host seconds one sweep_resume repetition takes at two workers,
#: interpreter start and host-speed probes included
_SWEEP_REP_S = 1.8
_SWEEP_POINTS = 32


def _pacing_doc(seed: int, seconds: int) -> Dict[str, Any]:
    duration = _scaled(seconds, _PACING_COST, _PACING_REPS)
    return {
        "name": "pacing_lowend",
        "base": {"cc": "bbr", "duration_s": duration,
                 "warmup_s": round(duration / 4, 3), "seed": seed},
        "grid": {"cpu_config": ["low-end", "mid-end"],
                 "connections": [5, 20],
                 "pacing_stride": [1.0, 10.0]},
    }


def _ackpath_doc(seed: int, seconds: int) -> Dict[str, Any]:
    # WiFi capacity follows a seeded random process, so a point's work
    # swings with its seed. Each configuration runs _ACKPATH_SEEDS points,
    # and every point of the grid has a seed of its own (disjoint across
    # benchmark seeds), so that 16 independent capacity traces average
    # out: over twenty benchmark seeds the grid's event count varies by
    # 1.8% (standard deviation over mean), and by 2.8% when the four
    # configurations shared their seeds.
    duration = _scaled(seconds, _ACKPATH_COST * _ACKPATH_SEEDS, _ACKPATH_REPS)
    ccs, cpu_configs = ["cubic", "bbr2"], ["default", "high-end"]
    first = _ACKPATH_SEEDS * len(ccs) * len(cpu_configs) * seed
    return {
        "name": "ackpath_wifi",
        "base": {"connections": 10, "medium": "wifi", "duration_s": duration,
                 "warmup_s": round(duration / 4, 3)},
        "grid": {"cc": ccs,
                 "cpu_config": cpu_configs,
                 "seed": [first + i for i in range(_ACKPATH_SEEDS)]},
        # grid seeds are first..first+3, and these set first+4 and up, so
        # no entry matches a seed another one set
        "overrides": [
            {"match": {"cc": cc, "cpu_config": cpu, "seed": first + i},
             "set": {"seed": first + _ACKPATH_SEEDS * k + i}}
            for k, (cc, cpu) in enumerate(itertools.product(ccs, cpu_configs))
            if k
            for i in range(_ACKPATH_SEEDS)
        ],
    }


def _sweep_doc(seed: int, seconds: int) -> Dict[str, Any]:
    # Shaped like benchmarks/scenarios/churn_poisson.json, with the same
    # offered load split into four times as many transfers: a grid's work
    # follows the number of arrivals, and with 5 arrivals/s of 500 kB the
    # seeds' event counts spread 0.06, with 20/s of 125 kB 0.016. The
    # point seeds of two benchmark seeds never overlap.
    return {
        "name": "sweep_resume",
        "base": {
            "duration_s": _SWEEP_DURATION_S,
            "warmup_s": 0.2,
            "netem": {"rate_bps": 1e8},
            "flows": [
                {"cc": "bbr"},
                {"cc": "cubic", "count": 0, "arrival_rate_hz": 20.0,
                 "mean_transfer_bytes": 125000, "start_s": 0.05},
            ],
        },
        "grid": {"seed": [_SWEEP_POINTS * seed + i
                          for i in range(_SWEEP_POINTS)]},
    }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="pacing_lowend",
            why="BBR on saturated low-end/mid-end Pixel 4 cores: pacing-timer "
                "and xmit work queue up (Figs 2, 8); event loop, cpu, "
                "tcp.pacing and BBR dominate",
            jobs=1,
            reps=lambda seconds: _PACING_REPS,
            doc=_pacing_doc,
        ),
        Workload(
            name="ackpath_wifi",
            why="Cubic and BBR2 over WiFi on unsaturated cores: ACK "
                "processing, the pure-Python CC models and WiFi rate "
                "timers dominate; Cubic is unpaced",
            jobs=1,
            reps=lambda seconds: _ACKPATH_REPS,
            doc=_ackpath_doc,
        ),
        Workload(
            name="sweep_resume",
            why="32 short churn points, half already cached, at two "
                "workers: grid dispatch, worker start-up, cache and "
                "ledger I/O and flow churn dominate",
            jobs=0,
            reps=lambda seconds: max(3, round(seconds / _SWEEP_REP_S)),
            doc=_sweep_doc,
            prefill=_SWEEP_POINTS // 2,
        ),
    )
}


def grid_jobs(workload: Workload) -> int:
    """Worker count for the timed grid (0 means ``min(2, nproc)``)."""
    if workload.jobs:
        return workload.jobs
    return min(2, os.cpu_count() or 1)
