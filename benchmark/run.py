"""The semiinv benchmark.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition of a workload runs in a fresh
interpreter (``child.py``) with ``jobs=1``, because every ``semiinv``
invocation pays for the package import and the lazy ``lru_cache`` builds.

With ``--trace 0`` it measures, with tracing off:

* ``wall_s``: from starting the interpreter to the last verdict, median over
  the repetitions that fit in ``--seconds`` (at least one);
* ``setup_s``: from starting the interpreter until ``import semiinv`` and
  ``generators.generator_table()`` have returned, median over extra set-up-only
  interpreters and the repetitions;
* ``peak_rss_mb``: peak resident memory of the workload process, median.

With ``--trace 1`` it runs the workload once untraced and once traced, and
reports the per-layer metrics of the traced run, the tracing overhead (traced
minus untraced ``wall_s``), the wrong verdicts, and ``points_per_s``: modular
identity evaluations per second in the untraced run, 0 on a workload that
evaluates no points.

Every output is compared with its expected value; a mismatch counts in
``failed`` against the comparisons ``attempted``.  The last line of standard
output is the result object; the line before it records provenance and the
raw samples.  The exit code is 0 when the benchmark ran, whatever the
verdicts, and nonzero, without a result, when it could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("certify-default", "modular-sweep", "exact-algebra")
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, extra=()) -> dict:
    """One fresh interpreter; returns its record with setup_s and wall_s
    measured from the moment it was started."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} printed no record")
    record = json.loads(lines[-1])
    record["setup_s"] = record["t_setup"] - t_spawn
    if "t_end" in record:
        record["wall_s"] = record["t_end"] - t_spawn
    return record


def child_options(args) -> list:
    extra = []
    if args.sweep_trials is not None:
        extra += ["--sweep-trials", str(args.sweep_trials)]
    if args.flip_mutant:
        extra.append("--flip-mutant")
    return extra


def measure(args) -> tuple:
    """Untraced repetitions; returns (metrics, reps, setups)."""
    options = child_options(args)
    spawn("setup", args.seed)  # warm-up: byte-compiles the package in a new checkout
    setups = [spawn("setup", args.seed)["setup_s"] for _ in range(SETUP_PROBES)]
    reps = []
    deadline = time.monotonic() + args.seconds
    while not reps or time.monotonic() + reps[-1]["wall_s"] <= deadline:
        reps.append(spawn(args.workload, args.seed, options))
    setups += [r["setup_s"] for r in reps]
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    return metrics, reps, setups


def trace(args, units: dict) -> tuple:
    """One untraced and one traced repetition; returns (metrics, reps)."""
    options = child_options(args)
    plain = spawn(args.workload, args.seed, options)
    traced = spawn(args.workload, args.seed, options + ["--trace"])
    values = dict(traced["layers"])
    values["generators.table_build_s"] = traced["table_build_s"]
    values["verify.checks"] = traced["verdicts"]
    values["wrong_verdicts"] = sum(not e["ok"] for e in traced["ledger"])
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    values["points_per_s"] = plain["points"] / plain["points_s"] if plain["points"] else 0.0
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"no value for per-layer metrics: {', '.join(missing)}")
    metrics = {name: (values[name], units[name]) for name in units}
    return metrics, [plain, traced]


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, reps: list) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": reps[0]["versions"]["numpy"],
        "semiinv": reps[0]["versions"]["semiinv"],
        "config": reps[0]["config"],
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="semiinv benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # hooks for smoke.py: a tiny modular-sweep, and a mutant expected to PASS
    parser.add_argument("--sweep-trials", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--flip-mutant", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "semiinv" / "__init__.py").is_file():
        print(f"error: no semiinv package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics, reps = trace(args, units)
            samples = {"reps": len(reps)}
        else:
            metrics, reps, setups = measure(args)
            samples = {
                "reps": len(reps),
                "wall_s": [r["wall_s"] for r in reps],
                "setup_s": setups,
                "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    entries = [e for r in reps for e in r["ledger"]]
    wrong = [e["name"] for e in entries if not e["ok"]]
    for name in wrong:
        print(f"wrong verdict: {name}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args, reps), "samples": samples}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(entries),
        "failed": len(wrong),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
