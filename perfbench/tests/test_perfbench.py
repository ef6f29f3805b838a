"""Tests of the benchmark itself (not of the simulator).

    python3 -m pytest perfbench/tests -q

They run every workload at a tiny size (``--seconds 1``), so they take
about a minute; the compiled-kernel check skips when the extension is
not built.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
from tracing import LayerTracer, _TARGETS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

from repro.core.scenario import expand_scenario  # noqa: E402

TINY_SECONDS = 1


@pytest.fixture(scope="module")
def contract():
    return run.load_contract()


def _tiny_specs(name, seed=5):
    return expand_scenario(WORKLOADS[name].doc(seed, TINY_SECONDS))


def _grid(specs):
    from repro.runner import run_grid_report

    return run_grid_report(specs, jobs=1, cache=False, ledger=False)


def test_contract_names_every_workload_and_layer_metric(contract):
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == layers.UNITS
    assert {m["name"] for m in contract["end_to_end"]} == set(run.E2E_METRICS)
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_declared_metric(contract, name, trace):
    outcome = run.run_benchmark(name, seed=3, seconds=TINY_SECONDS,
                                trace=trace)
    line = run.result_line(outcome, contract, trace)
    declared = contract["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] >= len(_tiny_specs(name, seed=3))
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        for name_ in run.E2E_METRICS:
            assert line["metrics"][name_]["value"] > 0
    else:
        assert line["metrics"]["sim.events"]["value"] > 0
        assert line["metrics"]["trace.attributed_frac"]["value"] > 0.5
    provenance = outcome["provenance"]
    for key in ("git_head", "dirty", "kernel", "kernel_components",
                "build_fell_back", "python", "nproc"):
        assert key in provenance


def _wrapped_attributes():
    import importlib

    import repro.runner
    from repro.apps.flows import FlowClient
    from repro.cpu.softirq import NetStackExecutor
    from repro.sim.engine import EventLoop

    owners = {EventLoop, FlowClient, NetStackExecutor}
    for _, module, cls, _, _ in _TARGETS:
        owners.add(getattr(importlib.import_module(module), cls))
    snapshot = {owner: dict(vars(owner)) for owner in owners}
    snapshot[repro.runner] = {"run_experiment": repro.runner.run_experiment}
    return snapshot


def test_uninstall_restores_every_attribute_and_stops_recording():
    specs = _tiny_specs("pacing_lowend")[:2]
    before = _wrapped_attributes()
    tracer = LayerTracer()
    with tracer:
        assert tracer.installed
        traced = _grid(specs)
    assert not tracer.installed
    after = _wrapped_attributes()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        for key, value in attrs.items():
            assert after[owner][key] is value, f"{owner}.{key} not restored"
    spans = {k: list(v) for k, v in tracer.spans.items()}
    work = {k: list(v) for k, v in tracer.work.items()}
    assert spans["sim.run"][0] == len(specs)
    untraced = _grid(specs)
    assert tracer.spans == spans and tracer.work == work
    assert untraced.total_events == traced.total_events


def test_corrupt_reference_digest_counts_as_failed(contract, tmp_path):
    name = "pacing_lowend"
    reference = run.compute_reference(name, seed=3, seconds=TINY_SECONDS)
    first = sorted(reference)[0]
    reference[first] = "0" * 64
    path = tmp_path / "digests.json"
    path.write_text(json.dumps({name: reference}))
    outcome = run.run_benchmark(name, seed=3, seconds=TINY_SECONDS,
                                trace=False, reference_path=str(path))
    line = run.result_line(outcome, contract, False)
    assert outcome["provenance"]["reference"] == "shipped digests"
    reps = WORKLOADS[name].reps(TINY_SECONDS)
    assert line["failed"] == reps and not line["correct"]
    assert line["failed"] / line["attempted"] > 0


def test_missing_shipped_digest_counts_as_failed(contract, tmp_path,
                                                 monkeypatch):
    name = "pacing_lowend"
    # as for the default seed at the contract's run length, at a tiny size
    monkeypatch.setattr(run, "uses_shipped_reference", lambda *_: True)
    reference = run.compute_reference(name, seed=3, seconds=TINY_SECONDS)
    del reference[sorted(reference)[0]]
    path = tmp_path / "digests.json"
    path.write_text(json.dumps({name: reference}))
    outcome = run.run_benchmark(name, seed=3, seconds=TINY_SECONDS,
                                trace=False, reference_path=str(path))
    line = run.result_line(outcome, contract, False)
    assert line["failed"] == WORKLOADS[name].reps(TINY_SECONDS)
    assert not line["correct"]


def test_default_seed_uses_only_the_shipped_digests(contract):
    from repro.core.scenario import spec_digest

    seconds = contract["run_seconds"]
    assert run.uses_shipped_reference(DEFAULT_SEED, seconds)
    assert not run.uses_shipped_reference(DEFAULT_SEED + 1, seconds)
    assert not run.uses_shipped_reference(DEFAULT_SEED, seconds + 1)
    with open(run.REFERENCE_PATH, encoding="utf-8") as fh:
        shipped = json.load(fh)
    for name, workload in WORKLOADS.items():
        specs = expand_scenario(workload.doc(DEFAULT_SEED, seconds))
        assert {spec_digest(s) for s in specs} == set(shipped[name]), name


def test_live_child_after_grid_fails_loudly():
    import multiprocessing
    import time

    import child

    worker = multiprocessing.Process(target=time.sleep, args=(30,))
    worker.start()
    try:
        with pytest.raises(RuntimeError, match="still running"):
            child._require_children_ended()
    finally:
        worker.kill()
        worker.join()
    child._require_children_ended()


def test_serial_grid_pauses_at_point_boundaries(monkeypatch):
    import threading

    import child
    from repro.runner import run_grid_report

    specs = _tiny_specs("ackpath_wifi")[:4]
    monkeypatch.setattr(child, "MIN_SEGMENT_S", 0.0)
    ready_r, ready_w = os.pipe()
    go_r, go_w = os.pipe()
    pauses = []

    def serve():
        while os.read(ready_r, 1):
            pauses.append(1)
            os.write(go_w, b"g")

    server = threading.Thread(target=serve)
    server.start()
    try:
        segments = child._Segments([ready_w, go_r])
        segments.begin()
        report = run_grid_report(
            specs, jobs=1, cache=False, ledger=False,
            monitor=child._pausing_monitor(len(specs), segments))
        segments.end()
    finally:
        os.close(ready_w)
        server.join()
        for fd in (ready_r, go_r, go_w):
            os.close(fd)
    # one pause per point, so run.py probes between every two segments
    assert len(pauses) == len(specs)
    assert len(segments.wall) == len(segments.cpu) == len(specs) + 1
    assert all(w >= 0 for w in segments.wall)
    assert report.total_events > 0


def _exact_counts(specs):
    tracer = LayerTracer({"cpu"})
    with tracer:
        report = _grid(specs)
    counts = {f"cpu.work.{k}": tuple(v) for k, v in tracer.work.items()}
    counts["sim.events"] = report.total_events
    for field in ("pacing_periods", "retransmitted_segments", "rto_count",
                  "router_dropped_segments", "phone_dropped_segments"):
        counts[field] = sum(getattr(r, field) for r in report.results)
    return counts


def test_exact_counts_repeat_and_match_across_kernels(monkeypatch):
    from repro.kernel import KERNELS

    specs = _tiny_specs("pacing_lowend") + _tiny_specs("ackpath_wifi")
    monkeypatch.setenv("REPRO_KERNEL", "pure")
    pure = _exact_counts(specs)
    assert pure == _exact_counts(specs)
    assert pure["cpu.work.xmit"][0] > 0 and pure["pacing_periods"] > 0
    if not KERNELS.get("compiled").available:
        pytest.skip("compiled kernel not built")
    monkeypatch.setenv("REPRO_KERNEL", "compiled")
    assert _exact_counts(specs) == pure
