#!/usr/bin/env python3
"""Build (on first use) and run the end-to-end benchmark.

    python3 perfbench/run.py --workload record|repair|ingest --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --test      # the statistics helpers' unit tests

Run from the root of a checkout. The benchmark is compiled from the
library sources under src/ into .bench_build/perfbench (CMake, Release);
build output goes to stderr, so the last line of stdout is the result
line printed by the benchmark binary. See perfbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def env():
    # Compiler and benchmark temporaries stay inside the checkout.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    e = dict(os.environ)
    e["TMPDIR"] = tmp
    return e


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "eval", "engine.h")):
        fail("library sources not found under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env(), stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def main(argv):
    if argv == ["--test"]:
        done = subprocess.run([build("perfbench_stats_test")], cwd=ROOT,
                              env=env())
        return done.returncode
    binary = build("perfbench")
    sys.stdout.flush()
    done = subprocess.run([binary] + argv, cwd=ROOT, env=env())
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
