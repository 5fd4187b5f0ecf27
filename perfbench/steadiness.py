#!/usr/bin/env python3
"""Run each workload N times, with seeds 1..N, and report how steady the
end-to-end metrics are.

    python3 perfbench/steadiness.py [--runs 10] [--workloads sweep,groups,randomgraph]

For every workload and end-to-end metric of BENCHMARK.json it prints the
median, the first and third quartiles (statistics.quantiles, n=4), the
spread (Q3 - Q1) / median and the metric's bound. A spread wider than the
bound is marked WIDE, one wider than a third of it is marked "near". It also
prints the share of failed operations of every run, which must be the same
in all runs. Run it from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.time()
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.exit("%s seed %d failed with exit code %d" % (workload, seed, res.returncode))
    out = json.loads(lines[-1])
    out["wall_s"] = time.time() - t0
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_once(spec, workload, seed))
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        walls = [r["wall_s"] for r in runs]
        print("== %s: %d runs, seeds 1..%d, run_seconds %d, correct %s, failed share %s, "
              "wall %.0f-%.0f s" % (workload, len(runs), args.runs, spec["run_seconds"],
                                    all(r["correct"] for r in runs),
                                    ",".join("%.4f" % s for s in shares), min(walls), max(walls)))
        print("%-16s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            mark = "WIDE" if spread > m["bound"] else "near" if spread > m["bound"] / 3 else ""
            print("%-16s %12.4f %12.4f %12.4f %8.4f %6.2f %s" %
                  (m["name"], med, q1, q3, spread, m["bound"], mark))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
