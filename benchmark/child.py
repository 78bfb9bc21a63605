"""One repetition of a benchmark workload, in a fresh interpreter.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.  It
imports the package, builds the generator table (the set-up), runs the
workload, compares every output with its expected value, and prints one JSON
object as its last line of standard output.  Timestamps come from
``time.monotonic``, which is system-wide, so the parent can measure from the
moment it started this interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy
import semiinv
from semiinv import generators

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=("setup",) + tuple(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--sweep-trials", type=int, default=workloads.SWEEP_TRIALS)
    parser.add_argument("--flip-mutant", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package = Path(semiinv.__file__).resolve()
    if ROOT / "src" not in package.parents:
        print(f"error: imported semiinv from {package}, not from this checkout",
              file=sys.stderr)
        return 2
    try:
        return run(args)
    except tracing.CoverageError as exc:
        print(f"error: tracing coverage guard: {exc}", file=sys.stderr)
        return 3


def run(args) -> int:
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}:{args.seed}:{os.getpid()}")
        tracer.install()
    t0 = time.monotonic()
    generators.generator_table()
    t_setup = time.monotonic()
    record = {"t_setup": t_setup, "table_build_s": t_setup - t0}
    if args.workload == "setup":
        print(json.dumps(record))
        return 0

    options = {"sweep_trials": args.sweep_trials, "flip_mutant": args.flip_mutant}
    checks, config, verify_outputs = workloads.RUNNERS[args.workload](args.seed, options)
    t_end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    ledger = workloads.Ledger()
    verify_outputs(ledger)
    workloads.check_pinned_outputs(ledger)
    points, points_s = workloads.modular_points(checks)
    record.update(
        t_end=t_end,
        peak_rss_mb=peak_rss_mb,
        points=points,
        points_s=points_s,
        ledger=ledger.entries,
        verdicts=ledger.verdicts,
        config=config,
        versions={"semiinv": semiinv.__version__, "numpy": numpy.__version__},
    )
    if tracer is not None:
        summary = tracer.summary()
        tracer.check_coverage(args.workload, summary)
        record["layers"] = tracing.layer_metrics(summary, tracer.counters)
        tracer.write(ROOT / ".bench_build" / "spans" / f"{args.workload}.npz")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
