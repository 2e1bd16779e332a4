"""Self-test of the benchmark.

Run from the root of a checkout::

    python3 benchmarks/selftest/selftest.py

It runs every workload at a tiny size, untraced and traced, and requires a
correct verdict with no failed operation and exactly the metric names that
BENCHMARK.json declares.  It then plants one wrong answer per workload and
requires the checker to report it as one failed operation.  Last, it runs
the benchmark in a directory that holds only BENCHMARK.json and the
benchmark, and requires a non-zero exit without a result line.
Exit status 0 means every check passed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload, *extra, cwd=ROOT, trace=0):
    cmd = [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        for trace, names in ((0, end_to_end), (1, per_layer)):
            res = result_of(run(name, trace=trace))
            expect(res is not None and res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{name} trace={trace}: runs correct with no failed operation")
            expect(res is not None and set(res["metrics"]) == names,
                   f"{name} trace={trace}: reports exactly the declared metrics")
        res = result_of(run(name, "--plant-wrong"))
        expect(res is not None and not res["correct"] and res["failed"] == 1,
               f"{name}: a planted wrong answer counts as one failed operation")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(spec["workloads"][0]["name"], cwd=bare)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "without src/nilgeom the benchmark exits non-zero and prints no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
