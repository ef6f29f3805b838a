"""Tests for the parallel experiment runner (:mod:`repro.runner`).

The load-bearing property is determinism: fanning a grid across worker
processes must change *nothing* about the results — same metrics, same
ordering — versus the serial path. Short simulations keep these quick.
"""

import pytest

from repro import (
    ExperimentGridError,
    ExperimentSpec,
    GridPointError,
    resolve_chunk,
    resolve_jobs,
    run_grid,
    run_grid_report,
    run_replicated,
    run_replicated_grid,
    run_replicated_parallel,
)
from repro.runner import (
    CHUNK_ENV_VAR,
    JOBS_ENV_VAR,
    MAX_AUTO_CHUNK,
    TASKS_PER_WORKER,
    _replication_specs,
)


def _quick(**overrides) -> ExperimentSpec:
    defaults = dict(duration_s=0.8, warmup_s=0.2)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def _grid():
    return [
        _quick(cc=cc, connections=n)
        for cc in ("bbr", "cubic")
        for n in (1, 2)
    ]


# -- determinism ------------------------------------------------------------


def test_parallel_grid_matches_serial_exactly():
    specs = _grid()
    serial = run_grid(specs, jobs=1)
    parallel = run_grid(specs, jobs=4)
    assert len(serial) == len(parallel) == len(specs)
    for s, p, spec in zip(serial, parallel, specs):
        # Results come back in grid order regardless of completion order.
        assert s.spec == p.spec == spec
        assert s.scalar_metrics() == p.scalar_metrics()
        assert s.per_flow_goodput_mbps == p.per_flow_goodput_mbps
        assert s.events_processed == p.events_processed


def test_parallel_replication_matches_serial_run_replicated():
    spec = _quick(cc="bbr", connections=2)
    serial = run_replicated(spec, runs=3)
    pooled = run_replicated_parallel(spec, runs=3, jobs=3)
    assert len(serial.runs) == len(pooled.runs) == 3
    for s, p in zip(serial.runs, pooled.runs):
        assert s.spec == p.spec  # identical derived seeds
        assert s.scalar_metrics() == p.scalar_metrics()
    assert serial.goodput_mbps == pooled.goodput_mbps
    assert serial.goodput_stdev == pooled.goodput_stdev
    for name in serial.stats.names():
        assert serial.stats.mean(name) == pooled.stats.mean(name)


def test_replication_seeds_match_serial_derivation():
    spec = _quick(seed=7)
    seeds = [s.seed for s in _replication_specs(spec, 4)]
    assert seeds == [7, 1007, 2007, 3007]


def test_run_replicated_grid_orders_by_spec():
    specs = [_quick(cc="bbr"), _quick(cc="cubic")]
    aggs = run_replicated_grid(specs, runs=2, jobs=2)
    assert [a.spec.cc for a in aggs] == ["bbr", "cubic"]
    assert all(len(a.runs) == 2 for a in aggs)


# -- error capture ----------------------------------------------------------


def test_failing_point_is_captured_not_fatal():
    good = _quick()
    bad = ExperimentSpec(duration_s=0.5, warmup_s=1.0)  # warmup >= duration
    results = run_grid([good, bad, good], jobs=2, raise_on_error=False)
    assert results[0].scalar_metrics() == results[2].scalar_metrics()
    err = results[1]
    assert isinstance(err, GridPointError)
    assert err.index == 1
    assert err.spec == bad
    assert "ValueError" in err.error
    assert "warmup must be shorter" in err.traceback


def test_failing_point_raises_after_grid_completes():
    bad = ExperimentSpec(duration_s=0.5, warmup_s=1.0)
    with pytest.raises(ExperimentGridError) as excinfo:
        run_grid([_quick(), bad], jobs=1)
    assert len(excinfo.value.errors) == 1
    assert excinfo.value.errors[0].index == 1


# -- chunked dispatch -------------------------------------------------------


def _chunk_grid():
    specs = [_quick(cc="bbr", seed=s) for s in range(1, 6)]
    bad = ExperimentSpec(duration_s=0.5, warmup_s=1.0)  # warmup >= duration
    specs.insert(2, bad)
    return specs, 2


def test_chunked_matches_unchunked_ordering_and_errors():
    specs, bad_index = _chunk_grid()
    unchunked = run_grid_report(specs, jobs=3, chunk=1, raise_on_error=False)
    chunked = run_grid_report(specs, jobs=3, chunk=2, raise_on_error=False)
    assert unchunked.chunk == 1 and chunked.chunk == 2
    assert len(unchunked.results) == len(chunked.results) == len(specs)
    for i, (u, c) in enumerate(zip(unchunked.results, chunked.results)):
        if i == bad_index:
            assert isinstance(u, GridPointError)
            assert isinstance(c, GridPointError)
            assert c.index == bad_index and c.spec == specs[bad_index]
            assert "warmup must be shorter" in c.traceback
        else:
            assert u.spec == c.spec == specs[i]
            assert u.scalar_metrics() == c.scalar_metrics()


def test_oversized_chunk_batches_whole_grid_into_one_task():
    specs = [_quick(cc=cc) for cc in ("bbr", "cubic")]
    report = run_grid_report(specs, jobs=2, chunk=64)
    assert report.chunk == 64
    assert [r.spec for r in report.results] == specs


def test_chunk_summary_line():
    specs = [_quick(cc="bbr", seed=s) for s in range(1, 5)]
    report = run_grid_report(specs, jobs=2, chunk=2)
    assert "chunk=2" in report.summary_line()


# -- chunk resolution -------------------------------------------------------


def test_resolve_chunk_explicit_wins(monkeypatch):
    monkeypatch.setenv(CHUNK_ENV_VAR, "7")
    assert resolve_chunk(3, points=100, jobs=2) == 3


def test_resolve_chunk_env_var(monkeypatch):
    monkeypatch.setenv(CHUNK_ENV_VAR, "5")
    assert resolve_chunk(points=100, jobs=2) == 5


def test_resolve_chunk_auto_sizing(monkeypatch):
    monkeypatch.delenv(CHUNK_ENV_VAR, raising=False)
    assert resolve_chunk(points=0, jobs=4) == 1
    assert resolve_chunk(points=8, jobs=4) == 1
    # 100 points on 2 workers: ceil(100 / (2 * TASKS_PER_WORKER))
    expected = -(-100 // (2 * TASKS_PER_WORKER))
    assert resolve_chunk(points=100, jobs=2) == expected
    assert resolve_chunk(points=100_000, jobs=2) == MAX_AUTO_CHUNK


@pytest.mark.parametrize("env", ["0", "-1", "2.5", "many"])
def test_resolve_chunk_bad_env(monkeypatch, env):
    monkeypatch.setenv(CHUNK_ENV_VAR, env)
    with pytest.raises(ValueError, match="REPRO_CHUNK"):
        resolve_chunk(points=10, jobs=2)


def test_resolve_chunk_rejects_bad_arguments():
    with pytest.raises(ValueError):
        resolve_chunk(0)
    with pytest.raises(ValueError):
        resolve_chunk(-3)
    with pytest.raises(ValueError):
        resolve_chunk(2.5)
    with pytest.raises(ValueError):
        resolve_chunk(True)


# -- jobs resolution / fallback ---------------------------------------------


def test_resolve_jobs_explicit_wins(monkeypatch):
    monkeypatch.setenv(JOBS_ENV_VAR, "8")
    assert resolve_jobs(3) == 3


def test_resolve_jobs_env_var(monkeypatch):
    monkeypatch.setenv(JOBS_ENV_VAR, "5")
    assert resolve_jobs() == 5


@pytest.mark.parametrize("env", ["lots", "2.5", "0", "-4"])
def test_resolve_jobs_bad_env(monkeypatch, env):
    """Junk REPRO_JOBS fails fast, naming the variable — not deep in the
    executor."""
    monkeypatch.setenv(JOBS_ENV_VAR, env)
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        resolve_jobs()


def test_resolve_jobs_rejects_nonpositive():
    with pytest.raises(ValueError):
        resolve_jobs(0)
    with pytest.raises(ValueError):
        resolve_jobs(-2)


def test_resolve_jobs_rejects_non_integers():
    with pytest.raises(ValueError, match="integer"):
        resolve_jobs(2.5)
    with pytest.raises(ValueError, match="integer"):
        resolve_jobs(True)


def test_report_serial_fallback_for_single_point():
    report = run_grid_report([_quick()], jobs=4)
    assert report.jobs == 1  # capped at the point count
    assert report.points == 1
    assert report.total_events > 0
    assert report.events_per_sec > 0
    assert "points=1" in report.summary_line()


def test_report_caps_workers_at_point_count():
    report = run_grid_report([_quick(), _quick(cc="cubic")], jobs=16)
    assert report.jobs == 2
    assert not report.errors


def test_empty_grid():
    report = run_grid_report([], jobs=4)
    assert report.results == []
    assert report.points == 0


def test_summary_line_renders_notices():
    report = run_grid_report([_quick()], jobs=1)
    assert "[note:" not in report.summary_line()
    report.notices.append("kernel 'compiled' unavailable; ran pure")
    line = report.summary_line()
    assert "[note: kernel 'compiled' unavailable; ran pure]" in line


def test_default_grid_on_pure_only_install_has_no_note(
        monkeypatch, simulate_missing_ckernel, capsys):
    """Landing on pure because nothing is built is the default, not a fallback."""
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    simulate_missing_ckernel()
    report = run_grid_report([_quick()], jobs=1)
    assert report.kernel == "pure"
    assert "[note:" not in report.summary_line()
    assert capsys.readouterr().err == ""


def test_explicit_kernel_that_cannot_load_is_noted(
        monkeypatch, simulate_missing_ckernel, capsys):
    monkeypatch.setenv("REPRO_KERNEL", "compiled")
    simulate_missing_ckernel()
    report = run_grid_report([_quick()], jobs=1)
    assert report.kernel == "pure"
    assert ("[note: kernel 'compiled' unavailable; grid ran 'pure']"
            in report.summary_line())
    assert "kernel 'compiled' is unavailable" in capsys.readouterr().err
