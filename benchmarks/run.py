"""Seeded benchmark for nilgeom.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload laplace-mix --seed 1 --seconds 15 --trace 0

Workloads: laplace-mix, jet-orders, coalgebra-dims (see README.md).
With ``--trace 0`` the last line printed is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run instead.  Set-up time is the median of several fresh set-ups,
each a new interpreter that imports nilgeom and builds the workload's inputs;
half of them are made before the run and half after it.
Raw summaries and trace files go to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("laplace-mix", "jet-orders", "coalgebra-dims")
SETUP_REPEATS = 7
PROCESS_TIMEOUT_S = 170


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs and two rounds (self-test)")
    p.add_argument("--plant-wrong", action="store_true", help="plant one wrong answer (self-test)")
    return p.parse_args(argv)


class Worker:
    """A worker process; ``ready_s`` is the time from launch to its
    ``ready`` line, i.e. interpreter start, import and input building."""

    def __init__(self, cmd, env, cwd):
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(PROCESS_TIMEOUT_S, self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.finish()
            raise RuntimeError(f"worker did not get ready (exit {self.proc.returncode})")

    def finish(self):
        """Wait for the worker; returns its remaining stdout lines."""
        try:
            rest = self.proc.stdout.read().splitlines()
            self.proc.wait()
        finally:
            self.timer.cancel()
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return rest


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nilgeom", "__init__.py")):
        print("error: run from the root of a nilgeom checkout (src/nilgeom not found)", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--root", root,
           "--scratch", scratch, "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.plant_wrong:
        cmd.append("--plant-wrong")
    if args.trace:
        cmd += ["--trace-file", stem + ".spans.jsonl.gz"]
    def fresh_setups(count):
        for _ in range(count):
            w = Worker(cmd + ["--phase", "setup"], env, root)
            setups.append(w.ready_s)
            w.finish()

    # the host's speed drifts over seconds: set-ups before and after the run
    # sample more of it than back-to-back ones
    extra = 0 if args.trace else (SETUP_REPEATS - 1) // 2
    setups = []
    try:
        fresh_setups(extra)
        w = Worker(cmd + ["--phase", "run"], env, root)
        setups.append(w.ready_s)
        summary = json.loads(w.finish()[-1])
        fresh_setups(extra)
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary["setup_samples_s"] = setups
    with open(stem + ".json", "w") as fh:
        json.dump(summary, fh, indent=1)
    if args.trace:
        metrics = summary["per_layer"]
    else:
        metrics = {
            "throughput_ops_per_s": {"value": summary["throughput_ops_per_s"], "unit": "ops/s"},
            "latency_p50_ms": {"value": summary["latency_p50_ms"], "unit": "ms"},
            "latency_p90_ms": {"value": summary["latency_p90_ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": summary["wrong"] == 0, "attempted": summary["attempted"],
              "failed": summary["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
