"""One benchmark process: set up a workload, run it, check it.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's ``src``.
It prints ``ready`` once the workload's inputs are built; in the ``setup``
phase it stops there, so that ``run.py`` can time fresh set-ups.  In the
``run`` phase it then repeats whole rounds of the operation list, one call
at a time (closed loop, one client), until ``--seconds`` have passed, at
least ``MIN_ROUNDS`` rounds and ``MIN_OPS`` calls were made.  Outputs are
compared between rounds and checked against the references after the timed
region; the last line it prints is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

MIN_OPS = 100
# each operation's best time is taken over at least three calls
MIN_ROUNDS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--phase", choices=("setup", "run"), required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", required=True, help="checkout root holding src/nilgeom")
    p.add_argument("--scratch", required=True, help="directory for the workload's input files")
    p.add_argument("--trace-file", default=None)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    p.add_argument("--plant-wrong", action="store_true",
                   help="replace one output by another operation's, for the self-test")
    return p.parse_args(argv)


class Failed:
    """An operation that raised; never equal to anything."""

    def __init__(self, exc):
        self.message = f"{type(exc).__name__}: {exc}"


def main(argv=None):
    args = parse_args(argv)
    tracer = None
    import nilgeom

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(nilgeom.__file__).startswith(src + os.sep):
        sys.exit(f"nilgeom was imported from {nilgeom.__file__}, not from {src}")
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    cli_env = workloads.CliEnv(args.scratch) if tracer and args.workload == "laplace-mix" else None
    ops = workloads.build(args.workload, args.seed, tiny=args.tiny, cli_env=cli_env)
    print("ready", flush=True)
    if args.phase == "setup":
        return 0

    first, later_mismatch, latencies, timed = None, [], [], 0.0
    best = [float("inf")] * len(ops)
    rounds = 0
    if tracer:
        tracer.loop_started()
    run_started = perf_counter()
    while True:
        results = []
        round_start = perf_counter()
        for i, op in enumerate(ops):
            t0 = perf_counter()
            try:
                result = tracer.run_op(i, op.kind, op.run) if tracer else op.run()
            except Exception as exc:  # a failing operation is counted, not fatal
                result = Failed(exc)
            latencies.append(perf_counter() - t0)
            best[i] = min(best[i], latencies[-1])
            results.append(result)
        timed += perf_counter() - round_start
        rounds += 1
        done = (perf_counter() - run_started >= args.seconds and rounds >= MIN_ROUNDS
                and rounds * len(ops) >= MIN_OPS) or (args.tiny and rounds >= 2)
        if done and args.plant_wrong:
            plant(ops, results)
        # outside the timed region: keep round one, compare the rest with it
        if first is None:
            first = results
        else:
            later_mismatch += [(i, r) for i, (r, r0) in enumerate(zip(results, first)) if not same(r, r0)]
        if done:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    per_layer = None
    if tracer:
        tracer.uninstall()
        import_ms = cli_import_ms(args.root) if cli_env else 0.0
        per_layer = tracer.per_layer(rounds, import_ms)
        if args.trace_file:
            tracer.write(args.trace_file)

    wrong, raised, notes = check(ops, first, later_mismatch)
    attempted = rounds * len(ops)
    failed = raised + wrong
    for note in notes[:20]:
        print(note, file=sys.stderr)
    # Each operation is timed at its best call of the run.  On a shared 2-core
    # VM the CPU speed one process gets was seen to swing by up to 2x from
    # second to second; statistics over every call follow those swings, best
    # times follow the program.
    summary = {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "timed_s": timed,
        "throughput_ops_per_s": (attempted - failed) / attempted * len(ops) / sum(best),
        "latency_p50_ms": 1000 * statistics.median(best),
        "latency_p90_ms": 1000 * statistics.quantiles(best, n=10, method="inclusive")[8],
        "peak_rss_mb": peak_rss_mb,
        "all_calls": {
            "throughput_ops_per_s": (attempted - failed) / timed,
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_p90_ms": 1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
        },
        "per_kind_best_ms": per_kind(ops, best),
        "per_layer": per_layer,
    }
    print(json.dumps(summary))
    return 0


def same(a, b):
    if isinstance(a, Failed) or isinstance(b, Failed):
        return False
    return a == b


def plant(ops, results):
    """Swap in the output of another operation of the same kind."""
    for i, op in enumerate(ops):
        for j in range(len(ops)):
            if j != i and ops[j].kind == op.kind and not same(results[i], results[j]):
                results[i] = results[j]
                return
    raise SystemExit("no operation pair to plant a wrong answer in")


def check(ops, first, later_mismatch):
    """Returns (wrong answers, raised operations, notes).  Round one is checked
    against the references; an output of a later round that differs from
    round one is checked too, and for the CLI it is wrong by itself, since a
    repeated command must print the same bytes."""
    wrong = raised = 0
    notes = []

    def verdict(i, result):
        nonlocal wrong, raised
        if isinstance(result, Failed):
            raised += 1
            notes.append(f"op {i} ({ops[i].kind}) raised {result.message}")
            return
        try:
            ok = bool(ops[i].check(result, first))
        except Exception as exc:  # a reference that cannot be computed is a failed check
            ok = False
            notes.append(f"op {i} ({ops[i].kind}) check raised {type(exc).__name__}: {exc}")
        if not ok:
            wrong += 1
            notes.append(f"op {i} ({ops[i].kind}) gave a wrong answer")

    for i, result in enumerate(first):
        verdict(i, result)
    for i, result in later_mismatch:
        failed_before = wrong + raised
        verdict(i, result)
        if ops[i].kind.startswith("cli.") and wrong + raised == failed_before:
            wrong += 1
            notes.append(f"op {i} ({ops[i].kind}) printed different bytes on a repeat")
    return wrong, raised, notes


def per_kind(ops, latencies):
    """Median best time per operation kind and size, for the scaling curves."""
    groups = {}
    for k, dt in enumerate(latencies):
        op = ops[k % len(ops)]
        size = ",".join(f"{a}={v}" for a, v in sorted(op.attrs.items()))
        groups.setdefault(f"{op.kind}[{size}]", []).append(dt)
    return {key: 1000 * statistics.median(v) for key, v in sorted(groups.items())}


def cli_import_ms(root, repeats=5):
    """Median fresh-interpreter time of ``import nilgeom.cli`` minus that of
    an empty interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    bare, full = [], []
    for _ in range(repeats):
        for code, bucket in (("pass", bare), ("import nilgeom.cli", full)):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True)
            bucket.append(perf_counter() - t0)
    return 1000 * (statistics.median(full) - statistics.median(bare))


if __name__ == "__main__":
    sys.exit(main())
