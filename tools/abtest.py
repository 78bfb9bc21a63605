"""A/B comparison of the benchmark's end-to-end metrics between two revisions.

    python3 tools/abtest.py PARENT [--dry-run] > BENCH_<n>.json

Run from the root of a git checkout with the change committed.  It extracts
PARENT and HEAD with ``git archive`` into the sibling directories ``parent``
and ``change`` (paths of one length) of a new temporary directory, and runs
``benchmark/run.py`` unchanged in each, as a user would, in subprocesses that
share one recorded environment.  For every workload it runs one pair per seed
of SEEDS and then one pair at the held-out seed, the parent first in
even-numbered pairs and the change first in odd ones, so that a drift of the
machine's speed does not favour a side.  The protocol is fixed in the
constants below; it has no options.

The result, one JSON object, goes to standard output and progress to
standard error.  For each workload and metric it gives each side's samples
in seed order, their median and quartiles (inclusive method) and IQR, the
number of pairs in which the change read lower, and the held-out pair.  It
also records the revisions, the environment, the commands, the operations
each side attempted and failed, ``wc -l`` of each side's package and a
digest of each side's ``benchmark/``, which must agree.
``--dry-run`` prints the commands, in order, and runs none of them.

Standard library only; the package does not import this file.
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
import tempfile
import time
from pathlib import Path

WORKLOADS = ("certify-default", "modular-sweep", "exact-algebra")
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
SEEDS = tuple(range(1, 11))
HELD_OUT_SEED = 9001
SECONDS = 5
ENV = {"PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1"}
SIDES = ("parent", "change")
PACKAGE = Path("src") / "semiinv"


def run_command(workload: str, seed: int) -> list:
    """The benchmark command for one run, from the root of a side's tree."""
    return ["python3", "benchmark/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS)]


def schedule() -> list:
    """(workload, seed, sides in run order) for every pair: SEEDS and then
    HELD_OUT_SEED per workload, the parent first in even-numbered pairs."""
    seeds = SEEDS + (HELD_OUT_SEED,)
    return [(workload, seed, SIDES if i % 2 == 0 else SIDES[::-1])
            for workload in WORKLOADS for i, seed in enumerate(seeds)]


def archive_commands(parent: str, root: str) -> list:
    return [f"git archive {rev} | tar -x -C {root}/{side}"
            for rev, side in ((parent, "parent"), ("HEAD", "change"))]


def spread(samples: list) -> dict:
    """Median, quartiles (inclusive method) and IQR of the samples."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"samples": samples, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: dict) -> dict:
    """runs[workload][side] is the list of run.py results, one per pair in
    schedule order, the held-out pair last; each result maps a metric to its
    value, plus "attempted" and "failed"."""
    out = {}
    for workload, sides in runs.items():
        seeded = {side: results[:-1] for side, results in sides.items()}
        entry = {}
        for metric in METRICS:
            values = {side: [r[metric] for r in seeded[side]] for side in SIDES}
            entry[metric] = {
                **{side: spread(values[side]) for side in SIDES},
                "change_lower": sum(c < p for p, c in zip(values["parent"], values["change"])),
                "pairs": len(values["parent"]),
                "held_out": {side: sides[side][-1][metric] for side in SIDES},
            }
        entry["operations"] = {
            side: {key: sum(r[key] for r in sides[side]) for key in ("attempted", "failed")}
            for side in SIDES
        }
        out[workload] = entry
    return out


def line_counts(tree: Path) -> dict:
    """wc -l of the package's modules, and their total."""
    counts = {path.name: path.read_bytes().count(b"\n") for path in sorted((tree / PACKAGE).glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def tree_digest(directory: Path) -> str:
    """sha256 over the relative paths and bytes of a directory's files."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_once(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(run_command(workload, seed), cwd=tree, env=dict(os.environ, **ENV),
                          stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    return {**values, "attempted": result["attempted"], "failed": result["failed"]}


def git(*args) -> str:
    return subprocess.run(["git", *args], stdout=subprocess.PIPE, text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="A/B benchmark of PARENT against HEAD")
    parser.add_argument("parent", help="the parent revision")
    parser.add_argument("--dry-run", action="store_true", help="print the commands only")
    args = parser.parse_args(argv)
    pairs = schedule()
    if args.dry_run:
        for command in archive_commands(args.parent, "TMP"):
            print(command)
        for workload, seed, order in pairs:
            for side in order:
                print(f"cd TMP/{side} && " + " ".join(run_command(workload, seed)))
        return 0
    revs = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", "HEAD")}
    with tempfile.TemporaryDirectory(prefix="semiinv-abtest-") as tmp:
        root = Path(tmp)
        print(f"extracting into {root}", file=sys.stderr)
        for side, rev in revs.items():
            (root / side).mkdir()
            archive = subprocess.run(["git", "archive", rev], stdout=subprocess.PIPE, check=True).stdout
            subprocess.run(["tar", "-x", "-C", str(root / side)], input=archive, check=True)
        started = time.time()
        runs = {workload: {side: [] for side in SIDES} for workload in WORKLOADS}
        for workload, seed, order in pairs:
            for side in order:
                runs[workload][side].append(run_once(root / side, workload, seed))
            print(f"{workload} seed {seed} done", file=sys.stderr)
        run_s = round(time.time() - started, 1)
        lines = {side: line_counts(root / side) for side in SIDES}
        benchmark = {side: tree_digest(root / side / "benchmark") for side in SIDES}
    print(json.dumps({
        "tool": "tools/abtest.py",
        "protocol": {
            "command": " ".join(run_command("W", "S")),
            "workloads": WORKLOADS, "seeds": SEEDS, "held_out_seed": HELD_OUT_SEED,
            "order": "the parent first in even-numbered pairs of each workload, counting from 0",
            "env": ENV, "archive": archive_commands(args.parent, "TMP"),
        },
        "provenance": {
            "revisions": revs, "python": platform.python_version(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "run_s": run_s,
        },
        "lines": lines,
        "benchmark_sha256": benchmark,
        "workloads": summarize(runs),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
