"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload pacing_lowend --seed 1 \\
        --seconds 16 --trace 0

The run builds the compiled-kernel extension in place (as
``pip install -e .`` does), then starts each measurement in a fresh
interpreter with a scrubbed environment: no ``REPRO_*`` variable of the
caller's shell reaches it, and the result cache and run ledger live in
fresh directories under ``.perfbench_work/`` in the checkout. Every
point's ``scalar_metrics()`` is checked against the pure-kernel
reference: for the default seed at the contract's run length, the
digests shipped in ``reference/digests.json`` (a point they miss
fails); for any other seed or length, a pure re-run outside the timed
region.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (medians
over the workload's repetitions, times scaled segment by segment to the
reference host speed by the ``hostspeed.py`` probes timed between them,
on the same CPU; ``setup_s`` also counts the set-up-only processes; the
unscaled seconds, probes and scale factors are printed on ``# reps`` and
``# setups`` lines); ``--trace 1``
reports its per-layer metrics from a traced pure-kernel run. The last
stdout line is the result object; the line before it is the provenance
stamp.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import operator
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostspeed import host_scale, probe_s  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, grid_jobs  # noqa: E402

#: seconds any one measuring process may take before the run is abandoned
CHILD_TIMEOUT_S = 150
#: where the result caches, ledgers and child I/O of a run live
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
REFERENCE_PATH = os.path.join(HERE, "reference", "digests.json")


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (no result line printed)."""


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_layout() -> None:
    """Refuse to run anywhere but a source checkout of the simulator."""
    for rel in ("setup.py", os.path.join("src", "repro", "__init__.py"),
                os.path.join("src", "repro", "_ckernel.c")):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise BenchmarkError(
                f"{rel} not found under {ROOT}: run from a source checkout")


def isolated_env() -> dict:
    """The caller's environment minus every REPRO_* knob, plus our paths.

    ``run_child`` adds a default cache and ledger directory per process,
    so nothing a measurement does can reach ``~/.cache/repro-bbr``.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + HERE
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    return env


def build_extension(env: dict) -> dict:
    """``setup.py build_ext --inplace``; never fatal (pure is the fallback)."""
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S * 4,
    )
    output = proc.stdout + proc.stderr
    return {
        "returncode": proc.returncode,
        "fell_back": proc.returncode != 0
        or "could not build the compiled simulation kernel" in output,
        "log_tail": output.strip().splitlines()[-3:],
    }


def git_stamp(env: dict) -> dict:
    """HEAD and dirty flag of the checkout, or ``unknown`` outside git."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) \
                != os.path.realpath(ROOT):
            return {"git_head": "unknown", "dirty": None}
        head = git("rev-parse", "HEAD").stdout.strip() or "unknown"
        status = git("status", "--porcelain", "--untracked-files=no")
        return {"git_head": head, "dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.SubprocessError):
        return {"git_head": "unknown", "dirty": None}


def _kill_group(pgid: int) -> bool:
    """SIGKILL what is left of process group *pgid*; True if any was left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


def _serve_probes(proc, ready_r: int, go_w: int, on_pause, deadline: float):
    """Run *on_pause* each time the child pauses, until it closes the pipe."""
    while True:
        readable, _, _ = select.select(
            [ready_r], [], [], max(deadline - time.monotonic(), 0))
        if not readable:
            raise subprocess.TimeoutExpired(proc.args, CHILD_TIMEOUT_S)
        if not os.read(ready_r, 1):
            return  # the child closed its end: it has exited
        on_pause()
        os.write(go_w, b"g")


def run_child(role: str, args: dict, env: dict, workdir: str,
              on_pause=None) -> dict:
    """Run one ``child.py`` role in a fresh interpreter; return its JSON.

    With *on_pause*, the child gets a pipe pair and this process calls
    ``on_pause()`` each time the child pauses on it (``_Segments``).
    """
    tag = f"{role}-{len(os.listdir(workdir))}"
    args = dict(args, out=os.path.join(workdir, tag + ".out.json"),
                workdir=os.path.join(workdir, tag))
    os.makedirs(args["workdir"])
    args_path = os.path.join(workdir, tag + ".args.json")
    child_env = dict(env, REPRO_CACHE_DIR=os.path.join(args["workdir"], "c"),
                     REPRO_LEDGER_DIR=os.path.join(args["workdir"], "l"))
    fds = []
    if on_pause is not None:
        ready_r, ready_w = os.pipe()
        go_r, go_w = os.pipe()
        fds = [ready_r, ready_w, go_r, go_w]
        args["probe_fds"] = [ready_w, go_r]
    # set-up time is counted from here: interpreter start to first dispatch
    args["t_spawn"] = time.monotonic()
    with open(args_path, "w", encoding="utf-8") as fh:
        json.dump(args, fh)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        # Own session, so a timeout also takes down the child's pool workers.
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), role, args_path],
            cwd=ROOT, env=child_env, start_new_session=True,
            pass_fds=args.get("probe_fds", ()),
        )
        try:
            if on_pause is not None:
                for fd in (ready_w, go_r):  # the child's ends
                    os.close(fd)
                    fds.remove(fd)
                _serve_probes(proc, ready_r, go_w, on_pause, deadline)
            proc.wait(timeout=max(deadline - time.monotonic(), 0))
        except BaseException as exc:
            _kill_group(proc.pid)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchmarkError(f"{role} process timed out") from None
            raise
    finally:
        for fd in fds:
            os.close(fd)
    if _kill_group(proc.pid):
        raise BenchmarkError(f"{role} process left processes running")
    if proc.returncode != 0:
        raise BenchmarkError(f"{role} process exited with {proc.returncode}")
    with open(args["out"], encoding="utf-8") as fh:
        return json.load(fh)


def load_reference(workload: str, path: str = REFERENCE_PATH) -> dict:
    """Shipped pure-kernel digests of *workload*: spec digest -> digest."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh).get(workload, {})
    except FileNotFoundError:
        return {}


def count_mismatches(digests, reference) -> int:
    """Points that raised, have no reference (None) or differ from it."""
    return sum(1 for got, want in zip(digests, reference)
               if got is None or got != want)


def uses_shipped_reference(seed: int, seconds: int) -> bool:
    """Whether the shipped digests alone are the reference of a run.

    True for the default seed at the contract's run length: there a point
    the digests do not cover fails instead of being re-run on pure (which,
    while pure is the default kernel, would check the program against
    itself).
    """
    return seed == DEFAULT_SEED and seconds == load_contract()["run_seconds"]


class _Workspace:
    """A fresh work directory under WORK_DIR, removed on exit."""

    def __enter__(self) -> str:
        os.makedirs(WORK_DIR, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # another run still uses it


def _reference(workload, base, env, workdir, shipped, shipped_only):
    """Reference digest per point, the points the shipped digests miss,
    and the prefill cache template (or None).

    Unless *shipped_only*, missed points are re-run on the pure kernel
    here, outside any timed region, in the same process that fills the
    cache template; with it, their reference stays None (a failure).
    """
    info = run_child("info", base, env, workdir)
    reference = [shipped.get(d) for d in info["spec_digests"]]
    missing = [i for i, d in enumerate(reference) if d is None]
    rerun = [] if shipped_only else missing
    template = None
    if rerun or workload.prefill:
        template = os.path.join(workdir, "template")
        prep = run_child("prep", dict(base, reference=rerun,
                                      template=template), env, workdir)
        for i in rerun:
            reference[i] = prep["digests"][str(i)]
    return info, reference, missing, template if workload.prefill else None


def compute_reference(workload_name: str, seed: int, seconds: int) -> dict:
    """Pure-kernel digests of every point: spec digest -> result digest."""
    check_layout()
    env = isolated_env()
    base = {"workload": workload_name, "seed": seed, "seconds": seconds}
    with _Workspace() as workdir:
        info, reference, _, _ = _reference(
            WORKLOADS[workload_name], base, env, workdir, {}, False)
    return dict(zip(info["spec_digests"], reference))


def _measure_rep(child_args: dict, env: dict, workdir: str) -> dict:
    """One measuring process, each of its timed segments next to a probe.

    This process times the host-speed probe before the child starts, at
    each of the child's pauses (after set-up and between grid segments)
    and after the child and its workers have ended. Each segment is
    scaled by the mean of the two probes around it, so a change of host
    speed within the grid is corrected where it happens. The probes run
    here while the child is blocked, so nothing the program under test
    runs, leaves running or allocates shares a process with them.
    ``times`` keeps the unscaled seconds, ``scaled`` what the metrics
    report.
    """
    probes = [probe_s()]
    rep = run_child("measure", child_args, env, workdir,
                    on_pause=lambda: probes.append(probe_s()))
    probes.append(probe_s())
    segments = rep.pop("segments")
    if len(probes) != len(segments["wall"]) + 2:
        raise BenchmarkError(f"{len(probes)} probes for "
                             f"{len(segments['wall'])} timed segments")
    # scales[0] brackets set-up; scales[1 + j] brackets grid segment j
    scales = [host_scale(probes[j:j + 2]) for j in range(len(probes) - 1)]
    rep["times"] = {"setup_s": rep.pop("setup_s"),
                    "grid_wall_s": sum(segments["wall"]),
                    "cpu_s": sum(segments["cpu"])}
    rep["scaled"] = {
        "setup_s": rep["times"]["setup_s"] * scales[0],
        "grid_wall_s": sum(map(operator.mul, segments["wall"], scales[1:])),
        "cpu_s": sum(map(operator.mul, segments["cpu"], scales[1:])),
        "peak_rss_mib": rep["peak_rss_mib"],
    }
    rep["probe_s"] = probes
    rep["host_scale"] = rep["scaled"]["grid_wall_s"] \
        / rep["times"]["grid_wall_s"]
    return rep


def _reference_source(missing, shipped_only: bool) -> str:
    if not missing:
        return "shipped digests"
    if shipped_only:
        return f"shipped digests, {len(missing)} point(s) missing (failed)"
    return f"pure re-run of {len(missing)} point(s)"


#: set-up-only processes per run: set-up is a short interval, so its
#: median needs more samples than the repetitions alone give
SETUP_RUNS = 6


def _setup_runs(child_args: dict, env: dict, workdir: str) -> dict:
    """``SETUP_RUNS`` set-up-only processes, a probe before and after each."""
    probes, times = [probe_s()], []
    for _ in range(SETUP_RUNS):
        times.append(run_child("setup", child_args, env, workdir)["setup_s"])
        probes.append(probe_s())
    return {"setup_s": times, "probe_s": probes,
            "scaled": [t * host_scale(probes[i:i + 2])
                       for i, t in enumerate(times)]}


@contextlib.contextmanager
def _pinned(cpus):
    """Run this process, and so the processes it starts, on *cpus* only.

    A vCPU of a shared host slows down with the load on its own physical
    core, so a probe says little about a grid on another vCPU (in one
    test, scaling by a probe on whichever vCPU the scheduler chose left a
    spread of 0.20; pinned, 0.07). So a serial measurement and the
    probes around it share one CPU; with pool workers the measurement
    keeps every CPU and ``probe_s`` probes each in turn.
    """
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, own)


#: end-to-end metrics each measure process reports
E2E_METRICS = ("setup_s", "grid_wall_s", "cpu_s", "peak_rss_mib")


def run_benchmark(workload_name: str, seed: int, seconds: int, trace: bool,
                  reference_path: str = REFERENCE_PATH) -> dict:
    """One benchmark run: metrics, point counts, per-rep data, provenance."""
    check_layout()
    workload = WORKLOADS[workload_name]
    shipped_only = uses_shipped_reference(seed, seconds)
    env = isolated_env()
    base = {"workload": workload_name, "seed": seed, "seconds": seconds}
    with _Workspace() as workdir:
        build = build_extension(env)
        info, reference, missing, template = _reference(
            workload, base, env, workdir,
            load_reference(workload_name, reference_path), shipped_only)
        child_args = dict(base, template=template)
        if trace:
            out = run_child("trace", child_args, env, workdir)
            runs = list(out["runs"].values())
            metrics, reps, setups = out["metrics"], [], {}
            kernel = {"name": "pure", "compiled_components": []}
        else:
            cpus = os.sched_getaffinity(0)
            one_cpu = {max(cpus)}
            with _pinned(one_cpu if grid_jobs(workload) == 1 else cpus):
                reps = [_measure_rep(child_args, env, workdir)
                        for _ in range(workload.reps(seconds))]
            with _pinned(one_cpu):
                setups = _setup_runs(child_args, env, workdir)
            runs = [rep["digests"] for rep in reps]
            metrics = {name: statistics.median(rep["scaled"][name]
                                               for rep in reps)
                       for name in E2E_METRICS}
            metrics["setup_s"] = statistics.median(
                [rep["scaled"]["setup_s"] for rep in reps]
                + setups["scaled"])
            kernel = reps[0]["kernel_info"]

    provenance = dict(
        git_stamp(env),
        workload=workload_name,
        seed=seed,
        seconds=seconds,
        trace=int(trace),
        kernel=kernel["name"],
        kernel_components=kernel["compiled_components"],
        compiled_available=info["compiled_available"],
        compiled_build_components=info["compiled_components"],
        build_fell_back=build["fell_back"],
        python=info["python"],
        nproc=os.cpu_count(),
        reference=_reference_source(missing, shipped_only),
    )
    if missing and shipped_only:
        print(f"perfbench: {len(missing)} point(s) have no shipped reference "
              "digest and count as failed; regenerate the digests with "
              "perfbench/make_reference.py only when results are meant to "
              "change", file=sys.stderr)
    if build["fell_back"]:
        print("perfbench: WARNING: compiled-kernel build FAILED, the compiled "
              f"kernel is unavailable: {' | '.join(build['log_tail'])}",
              file=sys.stderr)
    return {
        "metrics": metrics,
        "reps": reps,
        "setups": setups,
        "attempted": sum(len(r) for r in runs),
        "failed": sum(count_mismatches(r, reference) for r in runs),
        "provenance": provenance,
    }


def result_line(outcome: dict, contract: dict, trace: bool) -> dict:
    """The contract's result object, metrics named and united as declared."""
    declared = contract["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in outcome["metrics"]:
            raise BenchmarkError(f"metric {name!r} was not measured")
        metrics[name] = {"value": outcome["metrics"][name],
                         "unit": entry["unit"]}
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        contract = load_contract()
        seconds = args.seconds if args.seconds is not None \
            else contract["run_seconds"]
        outcome = run_benchmark(args.workload, args.seed, seconds,
                                bool(args.trace))
        line = result_line(outcome, contract, bool(args.trace))
    except (BenchmarkError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    attempted = max(line["attempted"], 1)
    print(f"# failed_frac {line['failed'] / attempted:.6f} "
          f"({line['failed']} of {line['attempted']} points)")
    for name, metric in line["metrics"].items():
        print(f"# {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    reps = outcome["reps"]
    if reps:
        raw = {name: statistics.median(rep["times"][name] for rep in reps)
               for name in reps[0]["times"]}
        raw["setup_s"] = statistics.median(
            [rep["times"]["setup_s"] for rep in reps]
            + outcome["setups"]["setup_s"])
        scale = statistics.median(rep["host_scale"] for rep in reps)
        print(f"# unscaled medians over {len(reps)} repetitions "
              f"(host scale {scale:.4f}): "
              + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
        print("# reps " + json.dumps(
            [{key: rep[key] for key in ("times", "probe_s", "host_scale")}
             for rep in reps]))
        print("# setups " + json.dumps(outcome["setups"]))
    print("# provenance " + json.dumps(outcome["provenance"], sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
