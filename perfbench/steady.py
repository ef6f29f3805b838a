"""Steadiness mode: repeat the benchmark and judge its spread by the bounds.

    python3 perfbench/steady.py --runs 10 --out set-a.json
    python3 perfbench/steady.py --runs 10 --out set-b.json --trace
    python3 perfbench/steady.py --compare set-a.json set-b.json

Each round runs every workload once through ``run.py`` with the round's
seed (seeds ``--seed``, ``--seed``+1, ...), alternating the workload order
between rounds. For every end-to-end metric it prints the median and
quartiles over the rounds and the quartile spread as a share of the
median, marked ``steady`` below a third of the metric's bound, ``ok``
within it and ``WIDE`` beyond it. ``--trace`` adds one traced run per
workload and prints its per-layer block. ``--compare`` checks that a
second set's medians are within each metric's bound of a first set's, in
either direction.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    provenance = lines[-2]
    return {"result": result, "provenance": provenance}


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarize(results, contract) -> dict:
    """workload -> metric -> {values, q1, median, q3, spread}."""
    out = {}
    for workload, runs in results.items():
        out[workload] = {}
        for metric in contract["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            out[workload][metric["name"]] = {
                "values": values, "q1": q1, "median": med, "q3": q3,
                "spread": (q3 - q1) / med if med else float("inf"),
            }
    return out


def print_summary(summary, contract) -> bool:
    """Print the table; True when every bounded spread is within bound."""
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    ok = True
    for workload, metrics in summary.items():
        print(f"== {workload} (n={len(next(iter(metrics.values()))['values'])})")
        for name, s in metrics.items():
            bound = bounds[name]["bound"]
            if s["spread"] < bound / 3:
                verdict = "steady"
            elif s["spread"] <= bound:
                verdict = "ok"
            else:
                verdict, ok = "WIDE", False
            print(f"  {name:16s} median {s['median']:10.4f} "
                  f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} "
                  f"spread {s['spread']:6.3f} bound {bound:.2f} {verdict}")
    return ok


def compare(first, second, contract) -> bool:
    """True when every second-set median is within its bound of the first's,
    in either direction (two sets of the same code must agree)."""
    ok = True
    for workload in first:
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = first[workload][name]["median"]
            b = second[workload][name]["median"]
            change = (b - a) / a if a else 0.0
            worse = change if metric["better"] == "lower" else -change
            if abs(change) <= bound:
                verdict = "ok"
            else:
                verdict, ok = ("WORSE" if worse > 0 else "BETTER"), False
            print(f"{workload:14s} {name:16s} {a:10.4f} -> {b:10.4f} "
                  f"({change:+.3f}, bound {bound:.2f}) {verdict}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--trace", action="store_true",
                        help="also print one traced per-layer block per workload")
    parser.add_argument("--out", help="write the set (results + summary) here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    contract = load_contract()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                sets.append(json.load(fh)["summary"])
        return 0 if compare(sets[0], sets[1], contract) else 1

    seconds = args.seconds or contract["run_seconds"]
    workloads = args.workloads or [w["name"] for w in contract["workloads"]]
    results = {w: [] for w in workloads}
    for k in range(args.runs):
        order = workloads if k % 2 == 0 else workloads[::-1]
        for workload in order:
            run = run_once(workload, args.seed + k, seconds, 0)
            results[workload].append(run["result"])
            values = {n: round(m["value"], 4)
                      for n, m in run["result"]["metrics"].items()}
            print(f"# round {k} {workload} seed {args.seed + k} "
                  f"failed {run['result']['failed']} {values}", flush=True)
    print(run["provenance"])
    summary = summarize(results, contract)
    ok = print_summary(summary, contract)
    failed = sum(r["failed"] for runs in results.values() for r in runs)
    attempted = sum(r["attempted"] for runs in results.values() for r in runs)
    print(f"failed_frac {failed / max(attempted, 1):.6f} "
          f"({failed} of {attempted} points)")
    if args.trace:
        for workload in workloads:
            traced = run_once(workload, args.seed, seconds, 1)["result"]
            print(f"== {workload} per-layer (traced, seed {args.seed})")
            for name, metric in traced["metrics"].items():
                print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"results": results, "summary": summary}, fh, indent=1)
    return 0 if ok and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
