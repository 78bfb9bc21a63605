"""A/B comparison of two revisions: the benchmark's end-to-end metrics, the
tier-1 wall time, and whether their outputs are identical.

    python3 tools/abtest.py PARENT [--dry-run] > BENCH_<n>.json

Run from the root of a git checkout with the change committed.  It extracts
PARENT and HEAD with ``git archive`` into the sibling directories ``parent``
and ``change`` (paths of one length) of a new temporary directory, and runs
``benchmark/run.py`` unchanged in each, as a user would, in subprocesses that
share one recorded environment.  For every workload it runs one pair per seed
of SEEDS and then one pair at the held-out seed, the parent first in
even-numbered pairs and the change first in odd ones, so that a drift of the
machine's speed does not favour a side.  Then it copies each tree into
sibling directories whose names are MEMORY_PADS characters longer, and in
each pair of copies runs MEMORY_PAIRS alternating pairs per workload of
``run.py --seconds 1`` for peak_rss_mb, whose allocator layout moves with
the length of a tree's path.  Then it runs the tier-1 tests
TIER1_RUNS times per side, alternating the same way, the output commands
(output_commands: every command keyed in tests/emission_digests.json,
derive-st in text and JSON, verify all in JSON in both modes, and verify all
in JSON at 1001 trials) once per side, and last each per-layer probe of
PROBES PROBE_RUNS times per side, alternating, each run in a fresh
interpreter that times the probe's body PROBE_REPEATS times, clearing the
caches the body fills before each repeat, runs it once more under
tracemalloc, and prints the median time and the tracemalloc peak.  The
protocol is fixed in the constants below; it has no options.

The result, one JSON object, goes to standard output and progress to
standard error.  For each workload and metric it gives each side's samples
in seed order, their median and quartiles (inclusive method) and IQR, the
number of pairs in which the change read lower, and the held-out pair.
Under "memory" it gives, per workload and path length, each side's
peak_rss_mb in pair order and the median over the pairs of change minus
parent, and the spread (largest minus smallest) of those medians across the
lengths.  It also records the revisions, the environment (with the numpy
and C library versions and every MALLOC_* or PYTHONMALLOC variable, which
set the allocator), the commands, the operations each side attempted and
failed, ``wc -l`` of each side's package and a digest of each side's
``benchmark/``, which must agree.  Under
"tier1" it gives each side's wall times and result lines, and under
"outputs" each output command's sha256 per side, of its standard output
with every "elapsed_s" of a JSON report dropped, its exit code where it is
not 0, and ``outputs_identical``.  Under "probes" it gives, per probe and
side, the median and quartiles of the runs' medians and, under peak_mib,
of their tracemalloc peaks, or ``absent`` with the reason
when the side's tree lacks a name the probe uses.  ``--dry-run`` prints the
commands, in order, and runs none of them.

Standard library only; the package does not import this file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
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
TIER1_RUNS = 3
TIER1 = ["python3", "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
CLI = ["python3", "-m", "semiinv.cli"]
# the side's own source tree, for the tier-1, output and probe commands
SIDE_ENV = {**ENV, "PYTHONPATH": "src"}
# runs per side of each probe, alternating: a fresh interpreter runs a probe
# in one of two speed modes (a generator table in about 11.5 or 18.5 ms),
# and with 11 runs each side's first quartile reads the fast one
PROBE_RUNS = 11
# each probe run times its body PROBE_REPEATS times in one interpreter
PROBE_REPEATS = 7
# peak_rss_mb at several path lengths: the extra characters of the sibling
# copies' names, and the pairs per workload and length
MEMORY_PADS = (2, 11, 23)
MEMORY_PAIRS = 5
MEMORY_SECONDS = 1
# Per-layer probes.  A probe's head imports what it uses, or prints
# {"absent": the name the tree lacks} and exits, and defines clear(), which
# clears the caches the body fills, and body(), the work it measures.
# probe_script(name) appends PROBE_TAIL, which runs clear() and body() as
# many times as its argument says, timing body(), then once more under
# tracemalloc, and prints one JSON line: {"s": the median seconds of the
# timed repeats, "peak_mib": the tracemalloc peak of the last body()}.
PROBES = {
    # the S/T check: a cold sl3_certificate_for_f_polynomial of S and of T,
    # after the generator table and derive_st are built; the four verified
    # span actions are cleared before each repeat
    "hwv.sl3_certificate_for_f_polynomial": '''\
import json, sys
try:
    from semiinv import generators, hwv, relations
    build, derive = generators.generator_table, relations.derive_st
    certify, clear = hwv.sl3_certificate_for_f_polynomial, hwv._span_action_verified.cache_clear
except (ImportError, AttributeError) as missing:
    print(json.dumps({"absent": str(missing)}))
    sys.exit()
build()
s4, t6 = derive()


def body():
    verdicts = certify(s4), certify(t6)
    if verdicts != (True, True):
        sys.exit(f"the certificate refused S or T: {verdicts}")
''',
    # the generator table: a cold generators_of of the generic triple, then
    # reads of h and q, so that a tree that builds h with the table and one
    # that builds it on first read time the same work; each repeat builds a
    # new table, which caches nothing outside itself
    "generators.generators_of": '''\
import json, sys
try:
    from semiinv import generators
    triple, build = generators.generic_triple, generators.generators_of
except (ImportError, AttributeError) as missing:
    print(json.dumps({"absent": str(missing)}))
    sys.exit()


def clear():
    pass


def body():
    table = build(triple())
    table.h, table.q
''',
    # the cold q build: the three 9x9 determinants of q on the generic
    # triple, which caches nothing
    "generators.determinant_sum": '''\
import json, sys
try:
    from semiinv import generators
    triple, build = generators.generic_triple, generators.determinant_sum
except (ImportError, AttributeError) as missing:
    print(json.dumps({"absent": str(missing)}))
    sys.exit()


def clear():
    pass


def body():
    build(triple(), "q")
''',
}
PROBE_TAIL = '''
import statistics, time, tracemalloc

seconds = []
for _ in range(int(sys.argv[1])):
    clear()
    started = time.perf_counter()
    body()
    seconds.append(time.perf_counter() - started)
clear()
tracemalloc.start()
body()
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({"s": statistics.median(seconds), "peak_mib": peak / 2**20}))
'''


def probe_script(name: str) -> str:
    """The script of a probe: its head, then PROBE_TAIL."""
    return PROBES[name] + PROBE_TAIL


def run_command(workload: str, seed: int, seconds: int = SECONDS) -> list:
    """The benchmark command for one run, from the root of a side's tree."""
    return ["python3", "benchmark/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]


def in_turn(i: int) -> tuple:
    """The sides in run order for pair i: the parent first when i is even."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def schedule() -> list:
    """(workload, seed, sides in run order) for every pair: SEEDS and then
    HELD_OUT_SEED per workload, the parent first in even-numbered pairs."""
    seeds = SEEDS + (HELD_OUT_SEED,)
    return [(workload, seed, in_turn(i)) for workload in WORKLOADS for i, seed in enumerate(seeds)]


def memory_schedule() -> list:
    """(workload, pad, seed, sides in run order) for every memory pair: per
    workload and pad, MEMORY_PAIRS pairs at the first seeds of SEEDS, the
    parent first in even-numbered pairs."""
    return [(workload, pad, SEEDS[i], in_turn(i))
            for workload in WORKLOADS for pad in MEMORY_PADS for i in range(MEMORY_PAIRS)]


def padded(side: str, pad: int) -> str:
    """The name of a side's sibling copy, pad characters longer."""
    return side + "_" * pad


def alternating(runs: int) -> tuple:
    """The sides in run order for runs pairs, alternating as in_turn."""
    return tuple(side for i in range(runs) for side in in_turn(i))


TIER1_ORDER = alternating(TIER1_RUNS)
PROBE_ORDER = alternating(PROBE_RUNS)


def probe_command(name: str) -> list:
    """The command of one probe run, from the root of a side's tree: the
    probe's script is written next to the two trees."""
    return ["python3", f"../{name}.py", str(PROBE_REPEATS)]


def output_commands(tree: Path) -> list:
    """The argument lists whose output must not change: the commands keyed in
    the tree's tests/emission_digests.json, then derive-st in text and JSON,
    verify all in JSON in both modes, and verify all in JSON at 1001 trials,
    which evaluates two chunks per prime, so that main-relation and
    theorem1 miss the memo of generator values."""
    pinned = json.loads((tree / "tests" / "emission_digests.json").read_text())
    return [key.split() for key in pinned] + [
        ["derive-st"], ["derive-st", "--format", "json"],
        ["verify", "all", "--format", "json"], ["verify", "all", "--mode", "exact", "--format", "json"],
        ["verify", "all", "--trials", "1001", "--format", "json"],
    ]


def strip_timing(obj):
    """A JSON value with every "elapsed_s" key dropped, at any depth."""
    if isinstance(obj, dict):
        return {key: strip_timing(value) for key, value in obj.items() if key != "elapsed_s"}
    if isinstance(obj, list):
        return [strip_timing(value) for value in obj]
    return obj


def output_digest(command: list, stdout: str) -> str:
    """sha256 of a command's standard output; a verify report in JSON is
    hashed without its timing, dumped as the CLI dumps it (other output of
    a verify command, an error say, as it is)."""
    if command[0] == "verify":
        try:
            stdout = json.dumps(strip_timing(json.loads(stdout)), indent=2, sort_keys=True) + "\n"
        except ValueError:
            pass
    return hashlib.sha256(stdout.encode()).hexdigest()


def compare_outputs(digests: dict, exits: dict) -> dict:
    """digests[side][command] is the sha256 of the command's output and
    exits[side][command] its exit code: the digests side by side, the
    nonzero exit codes, the commands on which the sides differ in either,
    and outputs_identical."""
    commands = list(digests["parent"])
    differ = [c for c in commands if len({(digests[s][c], exits[s][c]) for s in SIDES}) > 1]
    return {
        "sha256": {c: {side: digests[side][c] for side in SIDES} for c in commands},
        "nonzero_exits": {side: {c: code for c, code in exits[side].items() if code} for side in SIDES},
        "differ": differ,
        "outputs_identical": not differ and commands == list(digests["change"]),
    }


def archive_commands(parent: str, root: str) -> list:
    return [f"git archive {rev} | tar -x -C {root}/{side}"
            for rev, side in ((parent, "parent"), ("HEAD", "change"))]


def spread(samples: list) -> dict:
    """Median, quartiles (inclusive method) and IQR of the samples."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"samples": samples, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize_probe(results: dict) -> dict:
    """results[side] is the list of a probe's printed results: per side,
    the spread of its seconds and, under peak_mib, of its tracemalloc
    peaks, or absent with the reason when a run found a name missing."""
    out = {}
    for side, runs in results.items():
        absent = [r["absent"] for r in runs if "absent" in r]
        out[side] = {"absent": absent[0]} if absent else {
            **spread([r["s"] for r in runs]), "peak_mib": spread([r["peak_mib"] for r in runs])}
    return out


def summarize_memory(runs: dict, lengths: dict) -> dict:
    """runs[workload][pad][side] is the list of peak_rss_mb readings in pair
    order, and lengths[pad] the path length of that pad's copies: per
    workload and length, each side's readings and the median over the pairs
    of change minus parent, and the spread of those medians across the
    lengths."""
    out = {}
    for workload, pads in runs.items():
        by_length = {}
        for pad, sides in pads.items():
            diffs = [c - p for p, c in zip(sides["parent"], sides["change"])]
            by_length[str(lengths[pad])] = {**sides, "change_minus_parent": statistics.median(diffs)}
        medians = [entry["change_minus_parent"] for entry in by_length.values()]
        out[workload] = {"by_length": by_length, "spread": max(medians) - min(medians)}
    return out


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


def run_once(tree: Path, workload: str, seed: int, seconds: int = SECONDS) -> dict:
    proc = subprocess.run(run_command(workload, seed, seconds), cwd=tree, env=dict(os.environ, **ENV),
                          stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    return {**values, "attempted": result["attempted"], "failed": result["failed"]}


def run_output(tree: Path, command: list) -> tuple:
    proc = subprocess.run(CLI + command, cwd=tree, env=dict(os.environ, **SIDE_ENV),
                          stdout=subprocess.PIPE, text=True)
    return output_digest(command, proc.stdout), proc.returncode


def run_tier1(tree: Path) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=dict(os.environ, **SIDE_ENV),
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    wall_s = round(time.perf_counter() - started, 2)
    last = (proc.stdout.strip().splitlines() or [""])[-1]  # a run that prints nothing still counts
    return {"wall_s": wall_s, "exit": proc.returncode, "result": last}


def run_probe(tree: Path, name: str) -> dict:
    proc = subprocess.run(probe_command(name), cwd=tree, env=dict(os.environ, **SIDE_ENV),
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def side_command(command: list) -> str:
    """A tier-1, output or probe command as a shell line, with the variable
    that SIDE_ENV adds to ENV."""
    return " ".join(["PYTHONPATH=src"] + command)


def allocator_provenance() -> dict:
    """The numpy version that python3 imports, the C library's version, and
    every MALLOC_* or PYTHONMALLOC variable that the runs inherit; None
    where a version cannot be read."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    libc = os.confstr("CS_GNU_LIBC_VERSION") if "CS_GNU_LIBC_VERSION" in os.confstr_names else None
    allocator = {key: value for key, value in sorted(os.environ.items())
                 if key.startswith("MALLOC_") or key == "PYTHONMALLOC"}
    return {"numpy": numpy, "libc": libc, "allocator_env": allocator}


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
        for pad in MEMORY_PADS:
            for side in SIDES:
                print(f"cp -R TMP/{side} TMP/{padded(side, pad)}")
        for workload, pad, seed, order in memory_schedule():
            for side in order:
                print(f"cd TMP/{padded(side, pad)} && " + " ".join(run_command(workload, seed, MEMORY_SECONDS)))
        for side in TIER1_ORDER:
            print(f"cd TMP/{side} && " + side_command(TIER1))
        for side in SIDES:
            for command in output_commands(Path(".")):
                print(f"cd TMP/{side} && " + side_command(CLI + command))
        for name in PROBES:
            for side in PROBE_ORDER:
                print(f"cd TMP/{side} && " + side_command(probe_command(name)))
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
        for pad in MEMORY_PADS:
            for side in SIDES:
                shutil.copytree(root / side, root / padded(side, pad))
        lengths = {pad: len(str(root / padded("parent", pad))) for pad in MEMORY_PADS}
        memory = {workload: {pad: {side: [] for side in SIDES} for pad in MEMORY_PADS} for workload in WORKLOADS}
        for workload, pad, seed, order in memory_schedule():
            for side in order:
                result = run_once(root / padded(side, pad), workload, seed, MEMORY_SECONDS)
                memory[workload][pad][side].append(result["peak_rss_mb"])
        print("memory pairs done", file=sys.stderr)
        tier1 = {side: [] for side in SIDES}
        for side in TIER1_ORDER:
            tier1[side].append(run_tier1(root / side))
            print(f"tier-1 {side} run {len(tier1[side])} done", file=sys.stderr)
        digests, exits = {side: {} for side in SIDES}, {side: {} for side in SIDES}
        for side in SIDES:
            for command in output_commands(root / "change"):
                key = " ".join(command)
                digests[side][key], exits[side][key] = run_output(root / side, command)
        print("output commands done", file=sys.stderr)
        probes = {}
        for name in PROBES:
            (root / f"{name}.py").write_text(probe_script(name))
            results = {side: [] for side in SIDES}
            for side in PROBE_ORDER:
                results[side].append(run_probe(root / side, name))
            probes[name] = {"command": side_command(probe_command(name)), "order": PROBE_ORDER,
                            **summarize_probe(results)}
            print(f"probe {name} done", file=sys.stderr)
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
            "cpus": os.cpu_count(), **allocator_provenance(), "run_s": run_s,
        },
        "lines": lines,
        "benchmark_sha256": benchmark,
        "workloads": summarize(runs),
        "memory": {
            "command": " ".join(run_command("W", "S", MEMORY_SECONDS)),
            "pads": MEMORY_PADS, "pairs": MEMORY_PAIRS,
            "workloads": summarize_memory(memory, lengths),
        },
        "tier1": {
            "command": side_command(TIER1), "order": TIER1_ORDER,
            **{side: {"wall_s": [r["wall_s"] for r in tier1[side]],
                      "median_s": statistics.median(r["wall_s"] for r in tier1[side]),
                      "results": [r["result"] for r in tier1[side]],
                      "exits": [r["exit"] for r in tier1[side]]} for side in SIDES},
        },
        "outputs": compare_outputs(digests, exits),
        "probes": probes,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
