#!/usr/bin/env python3
"""Run every workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py                      # 10 seeds, every workload
    python3 perfbench/spread.py --seeds 1-5 --workloads build-large
    python3 perfbench/spread.py --trace 1 --seeds 1  # per-layer metrics

For each workload and metric it prints the median over the seeds and the
distance between the first and third quartile as a share of that median
(statistics.quantiles with n=4), next to the metric's bound in
BENCHMARK.json; a spread at or above the bound is marked. Each run is one
call of perfbench/run.py with the benchmark's run_seconds; its wall time is
printed too. --out writes every run's result and stamp line as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(Q3 - Q1) / median of `values`, quartiles as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    t0 = time.time()
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {p.returncode}")
    lines = p.stdout.strip().split("\n")
    return json.loads(lines[-2]), json.loads(lines[-1]), time.time() - t0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    a = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    runs = []
    for w in a.workloads.split(","):
        results = []
        for seed in seeds_of(a.seeds):
            stamp, result, wall = run_once(w, seed, bench["run_seconds"], a.trace)
            runs.append({"workload": w, "seed": seed, "wall_s": wall, "stamp": stamp,
                         "result": result})
            results.append(result)
            print(f"{w} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} wall={wall:.1f}s", flush=True)
        print(f"\n{w}: {len(results)} runs")
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            line = f"  {name:34s} {med:14.6g} {m['unit']:6s}"
            if len(values) >= 2 and med != 0:
                s = spread(values)
                b = bounds.get(name)
                mark = "" if b is None or name == "setup_s" or s < b else "  OVER BOUND"
                line += f"  spread {s:7.4f}" + (f"  bound {b}" if b is not None else "") + mark
            print(line)
        print()
    if a.out:
        with open(a.out, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
