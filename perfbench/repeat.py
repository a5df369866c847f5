#!/usr/bin/env python3
"""Run one workload of the benchmark under several seeds and summarize.

Run from the repository root:

    python3 perfbench/repeat.py --workload serve-read --runs 10 [--seconds 30] [--first-seed 1]

For every metric it prints the median, the first and third quartiles of the
runs and their spread, (Q3 - Q1) / median, as statistics.quantiles gives
them. The host fingerprint of every run must agree (seed aside): results
from different hosts, toolchains or code are never merged. Pass --json FILE
to keep the raw results.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", default=None)
    a = ap.parse_args()
    seconds = a.seconds
    if seconds is None:
        with open("BENCHMARK.json") as f:
            seconds = json.load(f)["run_seconds"]

    host, results = None, []
    for seed in range(a.first_seed, a.first_seed + a.runs):
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(a.trace)],
            capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        fp = json.loads(lines[0].split(" ", 1)[1])
        fp.pop("seed")
        if host is None:
            host = fp
        elif fp != host:
            sys.exit(f"seed {seed}: host fingerprint {fp} differs from {host}; not merging")
        res = json.loads(lines[-1])
        results.append(res)
        vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} {vals}",
              flush=True)

    print(f"host {json.dumps(host, sort_keys=True)}")
    print(f"{'metric':34} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in sorted(results[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        unit = results[0]["metrics"][name]["unit"]
        print(f"{name:34} {unit:6} {q2:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f}")
    print(f"correct in {sum(r['correct'] for r in results)} of {len(results)} runs; "
          f"failed ops {sum(r['failed'] for r in results)} of {sum(r['attempted'] for r in results)}")
    if a.json:
        with open(a.json, "w") as f:
            json.dump({"host": host, "results": results}, f, indent=1)


if __name__ == "__main__":
    main()
