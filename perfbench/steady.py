#!/usr/bin/env python3
"""Steadiness check: run one workload N times and report each end-to-end
metric's median, quartiles and spread against its bound.

    python3 perfbench/steady.py --workload record [--runs 10] [--seed0 1]

Run from the root of a checkout. Run i uses seed seed0 + i. The spread is
(q3 - q1) / median with the quartiles of Python's
statistics.quantiles(values, n=4); the bounds and the run length
(run_seconds) come from BENCHMARK.json. Exit status 1 when a spread
(setup_s excepted) exceeds a third of its bound, or when a run fails or
reports failed operations.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("run failed: %s (exit %d)" % (" ".join(cmd),
                                                         done.returncode))
    return json.loads(lines[-1])


def summarize(spec, results):
    rows = []
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        rows.append((m, statistics.median(vals), q1, q3, spread))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]

    ok = True
    results = []
    for i in range(args.runs):
        seed = args.seed0 + i
        r = run_once(args.workload, seed, seconds)
        share = r["failed"] / r["attempted"]
        print("seed %d: correct=%s attempted=%d failed=%d (%.6f)"
              % (seed, r["correct"], r["attempted"], r["failed"], share),
              file=sys.stderr)
        ok = ok and r["correct"] and r["failed"] == 0
        results.append(r)

    print("%s, %d runs, %d s" % (args.workload, args.runs, seconds))
    print("%-22s %-6s %14s %14s %14s %8s %6s %6s" %
          ("metric", "unit", "median", "q1", "q3", "spread", "bound",
           "/bound"))
    for m, med, q1, q3, spread in summarize(spec, results):
        frac = spread / m["bound"]
        print("%-22s %-6s %14.6g %14.6g %14.6g %8.4f %6.3f %6.2f" %
              (m["name"], m["unit"], med, q1, q3, spread, m["bound"], frac))
        if m["name"] != "setup_s" and frac > 1.0 / 3.0:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
