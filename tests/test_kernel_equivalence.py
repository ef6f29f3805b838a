"""Compiled-kernel backend: selection, fallback, and pure-equivalence.

The pure-python simulator is the behavioral reference; the C extension
(:mod:`repro._ckernel`) must be *bit-identical* — same event order, same
seq tie-breaks, same float expressions. The property-style tests drive
both backends through the same randomized loop workload and through
full experiments (scalar metrics, event counts, probe time series
compared for exact equality).

Everything else here covers backend selection (compiled by default when
built, pure otherwise) and the graceful degradation paths: the extension
being absent at import time, instrumented runs, and the C types refusing
instrumentation they cannot honour.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import os
import random

import pytest

import repro.kernel as kernel_mod
from repro import (
    ExperimentSpec,
    SimProfiler,
    Tracer,
    code_fingerprint,
    kernel_fingerprint,
    kernel_info,
    load_scenario,
    run_experiment,
)
from repro.kernel import (
    KERNEL_ENV_VAR,
    KERNELS,
    compiled_for,
    requested_kernel,
    resolve_kernel,
)
from repro.netsim import MEDIA
from repro.sim import EventLoop, SimulationError
from repro.tcp.rate_sample import DeliveryRateEstimator
from repro.tcp.rtt import MinRttFilter, RttEstimator
from repro.tcp.scoreboard import Scoreboard

COMPILED = KERNELS.get("compiled")

needs_compiled = pytest.mark.skipif(
    not COMPILED.available,
    reason=f"compiled kernel not built ({COMPILED.why_unavailable})",
)


@pytest.fixture
def kernel_env(monkeypatch):
    """Select a backend for run_experiment via the environment."""

    def select(name: str) -> None:
        monkeypatch.setenv(KERNEL_ENV_VAR, name)

    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    return select


# -- loop-level equivalence -----------------------------------------------------


def _run_workload(loop, seed: int) -> list:
    """Drive *loop* through a deterministic random schedule/cancel workload.

    Delays mix sub-2 ms fire-path work with RTO-scale timers. Both
    backends must consume the RNG in the same order, so any divergence
    in fire order or timing shows up as a log mismatch.
    """
    rng = random.Random(seed)
    log = []
    pending = {}
    counter = [0]

    def pick_delay() -> int:
        bucket = rng.random()
        if bucket < 0.4:
            return rng.randrange(0, 1 << 21)
        if bucket < 0.8:
            return rng.randrange(1 << 21, 40_000_000)
        return rng.randrange(40_000_000, 600_000_000)

    def schedule() -> None:
        tag = counter[0]
        counter[0] += 1
        event = loop.call_after(pick_delay(), fire, tag)
        pending[tag] = event

    def fire(tag: int) -> None:
        pending.pop(tag, None)
        log.append((loop.now, tag))
        roll = rng.random()
        if roll < 0.55:
            schedule()
        if roll < 0.25 and pending:
            victim = rng.choice(sorted(pending))
            pending.pop(victim).cancel()
        elif roll < 0.45 and pending:
            victim = rng.choice(sorted(pending))
            pending.pop(victim).cancel()
            schedule()

    for _ in range(60):
        schedule()
    loop.run(until=3_000_000_000)
    return log


@needs_compiled
@pytest.mark.parametrize("seed", [7, 23, 1009])
def test_compiled_loop_fires_identically_to_pure(seed):
    """Property: the C loop never changes what fires, when, or in what order."""
    pure_log = _run_workload(EventLoop(), seed)
    compiled_log = _run_workload(COMPILED.make_loop(), seed)
    assert pure_log, "workload should fire at least some events"
    assert compiled_log == pure_log


@needs_compiled
@pytest.mark.parametrize("seed", [7, 23, 1009])
def test_compiled_loop_agrees_on_events_processed(seed):
    pure = EventLoop()
    comp = COMPILED.make_loop()
    _run_workload(pure, seed)
    _run_workload(comp, seed)
    assert comp.events_processed == pure.events_processed


# -- experiment-level equivalence (metrics, event counts, probe series) --------


def _experiment_specs():
    return {
        "bbr_lowend": ExperimentSpec(
            cc="bbr", connections=2, cpu_config="low-end",
            duration_s=1.0, warmup_s=0.2, seed=7,
        ),
        "cubic_wifi": ExperimentSpec(
            cc="cubic", connections=2, medium=MEDIA.get("wifi"),
            duration_s=1.0, warmup_s=0.2, seed=23,
        ),
        "bbr2_probes": ExperimentSpec(
            cc="bbr2", connections=1, duration_s=1.0, warmup_s=0.2,
            seed=1009, probes=("cwnd", "srtt", "delivery_rate"),
        ),
    }


@needs_compiled
@pytest.mark.parametrize("name", sorted(_experiment_specs()))
def test_experiment_results_bit_identical_across_kernels(name, kernel_env):
    """The full result — every scalar, every probe sample — must match."""
    spec = _experiment_specs()[name]
    kernel_env("pure")
    pure = dataclasses.asdict(run_experiment(spec))
    kernel_env("compiled")
    compiled = dataclasses.asdict(run_experiment(spec))
    assert compiled == pure


# -- selection and fallback ----------------------------------------------------


@needs_compiled
def test_resolve_kernel_defaults_to_compiled_when_built(kernel_env, capsys):
    assert requested_kernel() is None
    assert resolve_kernel().name == "compiled"
    assert capsys.readouterr().err == ""


def test_resolve_kernel_defaults_to_pure_without_extension(
        kernel_env, simulate_missing_ckernel, capsys):
    """Nothing built, nothing asked for: pure is the default, not a fallback."""
    simulate_missing_ckernel()
    assert resolve_kernel().name == "pure"
    assert capsys.readouterr().err == ""


def test_resolve_kernel_prefers_argument_over_env(kernel_env):
    kernel_env("pure")
    assert resolve_kernel().name == "pure"
    # the argument wins even when the env says otherwise
    kernel_env("compiled")
    assert resolve_kernel("pure").name == "pure"


def test_resolve_kernel_unknown_name_raises(kernel_env):
    from repro.registry import UnknownNameError

    with pytest.raises(UnknownNameError):
        resolve_kernel("turbo")


def test_resolve_kernel_junk_env_fails_fast(kernel_env):
    """An inherited bogus REPRO_KERNEL must never silently pick a backend."""
    kernel_env("turbo")
    with pytest.raises(ValueError) as excinfo:
        resolve_kernel()
    message = str(excinfo.value)
    assert KERNEL_ENV_VAR in message
    assert "compiled" in message and "pure" in message
    assert "turbo" in message


def test_resolve_kernel_blank_env_means_unset(
        kernel_env, simulate_missing_ckernel):
    kernel_env("   ")
    assert requested_kernel() is None
    default = "compiled" if COMPILED.available else "pure"
    assert resolve_kernel().name == default
    simulate_missing_ckernel()
    assert resolve_kernel().name == "pure"


def test_requested_kernel_is_argument_then_env(kernel_env):
    assert requested_kernel() is None
    assert requested_kernel("compiled") == "compiled"
    kernel_env("pure")
    assert requested_kernel() == "pure"
    assert requested_kernel("compiled") == "compiled"


def test_instrumented_run_falls_back_to_pure_with_notice(monkeypatch, capsys):
    monkeypatch.setattr(kernel_mod, "_noticed", set())
    kernel = resolve_kernel("compiled", instrumented=True)
    assert kernel.name == "pure"
    err = capsys.readouterr().err
    assert "instrumented" in err and "pure" in err
    # once per process, not once per run
    resolve_kernel("compiled", instrumented=True)
    assert capsys.readouterr().err == ""


def test_missing_extension_falls_back_to_pure(simulate_missing_ckernel, capsys):
    """An explicit compiled request that cannot load still says so."""
    simulate_missing_ckernel()
    assert not COMPILED.available
    assert "no compiler at install" in COMPILED.why_unavailable
    kernel = resolve_kernel("compiled")
    assert kernel.name == "pure"
    assert "falling back to the pure kernel" in capsys.readouterr().err


def test_missing_extension_env_request_still_notices(
        simulate_missing_ckernel, kernel_env, capsys):
    """REPRO_KERNEL=compiled on a pure-only install: one notice, then quiet."""
    simulate_missing_ckernel()
    kernel_env("compiled")
    assert resolve_kernel().name == "pure"
    assert "kernel 'compiled' is unavailable" in capsys.readouterr().err
    assert resolve_kernel().name == "pure"
    assert capsys.readouterr().err == ""


def test_missing_extension_still_runs_experiments(
        simulate_missing_ckernel, kernel_env):
    """REPRO_KERNEL=compiled on a pure-only install must still work."""
    simulate_missing_ckernel()
    kernel_env("compiled")
    spec = ExperimentSpec(cc="bbr", duration_s=0.5, warmup_s=0.1)
    result = run_experiment(spec)
    assert result.events_processed > 0


def test_compiled_for_is_none_for_pure_loops():
    assert compiled_for(EventLoop()) is None


@needs_compiled
def test_compiled_for_identifies_compiled_loops():
    loop = COMPILED.make_loop()
    assert compiled_for(loop) is not None


def test_kernel_info_reports_active_backend(kernel_env, simulate_missing_ckernel):
    """With no argument, kernel_info describes the default for this build."""
    info = kernel_info()
    if COMPILED.available:
        assert info["name"] == "compiled"
        assert info["compiler"] == COMPILED.compiler
        assert "loop" in info["compiled_components"]
    simulate_missing_ckernel()
    assert kernel_info() == {
        "name": "pure",
        "compiler": None,
        "compiled_components": [],
    }


@needs_compiled
def test_kernel_info_reports_compiler_for_compiled():
    info = kernel_info(COMPILED)
    assert info["name"] == "compiled"
    assert isinstance(info["compiler"], str) and info["compiler"]
    # the ACK hot path families must all be covered by the built extension
    for family in ("loop", "scoreboard", "rate-sampler", "rtt-filters", "cc-bbr"):
        assert family in info["compiled_components"]


# -- instrumentation guards on the C types -------------------------------------


@needs_compiled
def test_profiled_experiment_falls_back_and_profiles_fully(kernel_env):
    """A profiler under --kernel compiled must never come back empty."""
    kernel_env("compiled")
    profiler = SimProfiler()
    result = run_experiment(
        ExperimentSpec(cc="bbr", duration_s=0.5, warmup_s=0.1),
        profiler=profiler,
    )
    assert profiler.total_events == result.events_processed


@needs_compiled
def test_compiled_loop_refuses_profiler():
    loop = COMPILED.make_loop()
    with pytest.raises(SimulationError, match="pure"):
        loop.set_profiler(SimProfiler())


@needs_compiled
def test_traced_components_stay_pure_on_compiled_loop():
    """Routing must not hand a tracing component to the tracerless C kernel."""
    from repro.cpu.core import CpuCore

    loop = COMPILED.make_loop()
    tracer = Tracer(enabled=True)
    core = CpuCore(loop, 1e9, "cpu0", tracer)
    assert type(core) is CpuCore  # pure python, tracer honoured


@needs_compiled
def test_c_component_constructor_rejects_enabled_tracer():
    ck = kernel_mod._load_ckernel()
    loop = COMPILED.make_loop()
    with pytest.raises(ValueError, match="pure"):
        ck.CpuCore(loop, 1e9, "cpu0", Tracer(enabled=True))


# -- ACK hot path: property-style scoreboard/estimator equivalence -------------

#: every externally observable RateSample field
_RS_FIELDS = (
    "delivered_bytes", "interval_ns", "rtt_ns", "delivered_total",
    "prior_delivered", "prior_inflight_segments", "newly_acked_segments",
    "newly_sacked_segments", "newly_lost_segments", "is_app_limited",
    "ack_time_ns", "min_rtt_expired",
)

#: every externally observable TxRecord field
_REC_FIELDS = (
    "seq", "end_seq", "segments", "sent_ns", "delivered_at_send",
    "delivered_time_at_send", "first_sent_at_send", "is_app_limited",
    "retransmitted", "sacked", "lost", "sacked_segments", "last_sent_ns",
)


def _rs_tuple(rs):
    return tuple(getattr(rs, f) for f in _RS_FIELDS)


def _rec_tuple(rec):
    return tuple(getattr(rec, f) for f in _REC_FIELDS)


def _sb_state(sb, delivery):
    """Everything an ACK can change, down to per-record flags."""
    return {
        "snd_una": sb.snd_una,
        "highest_sacked": sb.highest_sacked,
        "packets_out": sb.packets_out,
        "sacked_out": sb.sacked_out,
        "lost_out": sb.lost_out,
        "retrans_out": sb.retrans_out,
        "inflight": sb.inflight_segments,
        "has_inflight": sb.has_inflight,
        "retx_total": sb.total_retransmitted_segments,
        "records": [_rec_tuple(r) for r in sb.records],
        "delivered_bytes": delivery.delivered_bytes,
        "delivered_time_ns": delivery.delivered_time_ns,
        "first_sent_ns": delivery.first_sent_ns,
        "app_limited_until": delivery.app_limited_until,
    }


def _run_ack_workload(seed: int, loop) -> list:
    """Drive one scoreboard + estimator pair through a random ACK storm.

    Exercises every per-ACK transition the connection uses: in-order
    transmission, cumulative ACKs (including partial, mid-record ones),
    out-of-order SACK blocks, reorder-threshold loss marking, lost-record
    retransmission, RTO mark-all-lost with timer re-arm off the oldest
    unacked record, and recovery-exit mark clearing. Both backends must
    consume the RNG identically, so any state divergence desynchronises
    the traces and fails the comparison.
    """
    rng = random.Random(seed)
    mss = 1000
    sb = Scoreboard(mss, loop=loop)
    delivery = DeliveryRateEstimator(loop=loop)
    now = 0
    seq = 0
    trace = []
    for _ in range(120):
        # a flight of fresh transmissions
        for _ in range(rng.randrange(1, 6)):
            segments = rng.randrange(1, 5)
            now += rng.randrange(1_000, 50_000)
            rec = delivery.send_record(
                now, seq, seq + segments * mss, segments,
                sb.has_inflight, rng.random() < 0.2,
            )
            rec.last_sent_ns = now
            sb.on_transmit(rec)
            seq += segments * mss
        # one ACK: cumulative point plus up to two (possibly overlapping,
        # non-mss-aligned) SACK blocks
        una = sb.snd_una
        span = seq - una
        if rng.random() < 0.55 and span > 0:
            ack = una + rng.randrange(0, span + 1)
        else:
            ack = una
        blocks = []
        for _ in range(rng.randrange(0, 3)):
            if span <= 0:
                break
            start = una + rng.randrange(0, span)
            end = min(seq, start + rng.randrange(1, 6 * mss))
            if end > start:
                blocks.append((start, end))
        now += rng.randrange(10_000, 200_000)
        rs, acked_bytes = sb.process_ack(
            delivery, ack, blocks, now, sb.inflight_segments,
            rng.random() < 0.1,
        )
        trace.append(("ack", _rs_tuple(rs), acked_bytes, _sb_state(sb, delivery)))
        # drain the retransmission queue
        if rng.random() < 0.5:
            lost = sb.next_lost_record()
            while lost is not None:
                now += rng.randrange(1_000, 10_000)
                sb.on_retransmit(lost)
                lost.last_sent_ns = now
                lost = sb.next_lost_record()
            trace.append(("retx", _sb_state(sb, delivery)))
        # RTO: presume everything lost, re-arm off the oldest unacked record
        if rng.random() < 0.15:
            newly_lost = sb.mark_all_lost()
            oldest = sb.oldest_unacked_record()
            rearm = oldest.last_sent_ns if oldest is not None else None
            trace.append(("rto", newly_lost, rearm, _sb_state(sb, delivery)))
        # recovery episode over
        if rng.random() < 0.2:
            sb.clear_loss_marks()
            trace.append(("clear", _sb_state(sb, delivery)))
    return trace


@needs_compiled
@pytest.mark.parametrize("seed", [7, 23, 1009])
def test_scoreboard_ack_path_equivalent_across_kernels(seed):
    """Property: the C scoreboard/estimator pair never diverges from pure."""
    pure_trace = _run_ack_workload(seed, None)
    compiled_trace = _run_ack_workload(seed, COMPILED.make_loop())
    assert any(op[0] == "rto" for op in pure_trace), "workload must hit RTO"
    assert any(op[0] == "retx" for op in pure_trace), "workload must retransmit"
    assert len(compiled_trace) == len(pure_trace)
    for step, (pure_op, compiled_op) in enumerate(
        zip(pure_trace, compiled_trace)
    ):
        assert compiled_op == pure_op, f"divergence at step {step}"


@needs_compiled
def test_ack_path_components_route_to_c_on_compiled_loop():
    """The PR 6 routing rule extends to the whole ACK hot path."""
    ck = kernel_mod._load_ckernel()
    loop = COMPILED.make_loop()
    assert type(Scoreboard(1448, loop=loop)) is ck.Scoreboard
    assert type(DeliveryRateEstimator(loop=loop)) is ck.DeliveryRateEstimator
    assert type(RttEstimator(loop=loop)) is ck.RttEstimator
    assert type(MinRttFilter(loop=loop)) is ck.MinRttFilter
    # without a compiled loop the reference implementations run
    assert type(Scoreboard(1448)) is Scoreboard
    assert type(DeliveryRateEstimator()) is DeliveryRateEstimator
    assert type(RttEstimator()) is RttEstimator
    assert type(MinRttFilter()) is MinRttFilter


@needs_compiled
def test_churn_experiment_bit_identical_across_kernels(kernel_env):
    """Multi-flow churn (Poisson cubic arrivals vs one BBR flow) matches too."""
    path = os.path.join(
        os.path.dirname(__file__), os.pardir,
        "benchmarks", "scenarios", "churn_poisson.json",
    )
    specs = load_scenario(path)
    assert specs, "churn_poisson should expand to at least one point"
    kernel_env("pure")
    pure = [dataclasses.asdict(run_experiment(spec)) for spec in specs]
    kernel_env("compiled")
    compiled = [dataclasses.asdict(run_experiment(spec)) for spec in specs]
    assert compiled == pure


# -- cache fingerprints distinguish backends -----------------------------------


def test_kernel_fingerprint_distinguishes_backends():
    base = code_fingerprint()
    assert kernel_fingerprint("pure") == base
    assert kernel_fingerprint("compiled") != base
    # deterministic: same input, same derived version
    assert kernel_fingerprint("compiled") == kernel_fingerprint("compiled")


# -- perf harness: single-core parallel skip -----------------------------------


def _load_perf_harness():
    path = os.path.join(
        os.path.dirname(__file__), os.pardir, "benchmarks", "perf_harness.py"
    )
    spec = importlib.util.spec_from_file_location("perf_harness", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_parallel_scaling_skipped_on_single_core(monkeypatch):
    """One core: no speedup claim, an explicit skip marker instead."""
    harness = _load_perf_harness()
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert harness.measure_parallel_scaling(0.2, 0.05) == {
        "skipped_reason": "single core"
    }
