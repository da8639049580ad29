#!/usr/bin/env python3
"""Run one benchmark workload N times, each with another seed, and print
every metric's median, quartiles and spread.

    python3 perfbench/spread.py --workload study-cold --runs 10 [--first-seed 1]
                                [--seconds 20] [--trace 0] [--json out.json]

Run from the repository root. The spread is the distance between the first
and the third quartile (statistics.quantiles(values, n=4)) as a share of the
median; for end-to-end metrics it is compared with the metric's bound in
BENCHMARK.json, where a spread above a third of the bound is flagged. Use it
to set the bounds and to re-check that the benchmark is steady.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    res["stderr"] = proc.stderr.splitlines()
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="also write every run's result line and log to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        res = run_once(args.workload, seed, seconds, args.trace)
        if not res["correct"]:
            raise SystemExit(f"seed {seed}: outputs failed their checks")
        results.append(res)
        share = res["failed"] / res["attempted"]
        print(f"seed {seed}: attempted {res['attempted']}, failed {res['failed']} ({share:.6f})",
              file=sys.stderr)

    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"{args.workload}: {len(results)} runs of {seconds}s; failed share(s) {shares}")
    print(f"{'metric':40} {'unit':>6} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        print(f"{name:40} {unit:>6} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()
