#!/usr/bin/env python3
"""Repeatability proof: runs the benchmark command of BENCHMARK.json in
sets of runs with distinct seeds and records, per workload and end-to-end
metric, each set's median and quartiles, the spread (IQR / median), the
worst single-run deviation from the set median, and how far the second
set's median is worse than the first's.

usage: python3 benchmark/repeat.py [--sets 2] [--runs 10] [--out benchmark/out/repeat.json]
Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    began = time.time()
    done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stdout}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(argv)}: {result['failed']} failed ops")
    return {name: m["value"] for name, m in result["metrics"].items()}, time.time() - began


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med,
        "worst_single_run_deviation": max(abs(v - med) for v in values) / med,
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="benchmark/out/repeat.json")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    wanted = [w for w in args.workloads.split(",") if w] or [w["name"] for w in bench["workloads"]]
    report = {"command": bench["command"], "run_seconds": bench["run_seconds"], "runs_per_set": args.runs, "workloads": {}}
    worst = []
    for workload in wanted:
        sets = []
        for s in range(args.sets):
            runs, walls = [], []
            for r in range(args.runs):
                metrics, wall = run_once(bench["command"], workload, 1000 * (s + 1) + r, bench["run_seconds"])
                runs.append(metrics)
                walls.append(wall)
                print(f"{workload} set {s + 1} run {r + 1}: {wall:.1f} s", file=sys.stderr)
            sets.append({"wall_s_median": statistics.median(walls),
                         "metrics": {m["name"]: summarize([run[m["name"]] for run in runs]) for m in bench["end_to_end"]}})
        entry = {"sets": sets, "second_vs_first": {}}
        for m in bench["end_to_end"]:
            a, b = sets[0]["metrics"][m["name"]], sets[-1]["metrics"][m["name"]]
            worse = (b["median"] - a["median"]) / a["median"] * (1 if m["better"] == "lower" else -1)
            entry["second_vs_first"][m["name"]] = worse
            spread = max(s["metrics"][m["name"]]["spread"] for s in sets)
            worst.append((spread / m["bound"], workload, m["name"], spread, worse, m["bound"]))
        report["workloads"][workload] = entry
    json.dump(report, open(args.out, "w"), indent=1)
    print(f"{'workload':<18}{'metric':<22}{'spread':>9}{'2nd worse by':>14}{'bound':>8}")
    for _, workload, name, spread, worse, bound in sorted(worst, reverse=True):
        flag = "  <-- over a third of the bound" if spread > bound / 3 else ""
        print(f"{workload:<18}{name:<22}{spread:>9.4f}{worse:>14.4f}{bound:>8.2f}{flag}")


if __name__ == "__main__":
    main()
