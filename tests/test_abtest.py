"""The pure parts of tools/abtest.py: its statistics, its result schema, the
comparison of outputs and the commands its dry run prints, and one run of
its probe script.  Nothing here runs the benchmark, the tests or the CLI."""

import contextlib
import hashlib
import importlib.metadata
import importlib.util
import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from semiinv import generators as gen
from semiinv import hwv

TOOL = Path(__file__).resolve().parent.parent / "tools" / "abtest.py"


@pytest.fixture(scope="module")
def abtest():
    spec = importlib.util.spec_from_file_location("_abtest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spread_gives_the_inclusive_quartiles(abtest):
    got = abtest.spread([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (got["median"], got["q1"], got["q3"], got["iqr"]) == (3.0, 2.0, 4.0, 2.0)
    assert got["samples"] == [5.0, 1.0, 3.0, 2.0, 4.0]
    even = abtest.spread([1.0, 2.0, 3.0, 4.0])
    assert (even["median"], even["q1"], even["q3"]) == (2.5, 1.75, 3.25)


def test_summary_counts_the_pairs_the_change_wins_and_keeps_the_held_out_pair(abtest):
    def result(value, failed=0):
        return {**dict.fromkeys(abtest.METRICS, value), "attempted": 2, "failed": failed}

    parent = [result(v) for v in (1.0, 2.0, 3.0, 4.0)] + [result(9.0)]
    change = [result(v) for v in (0.5, 2.0, 3.5, 3.0)] + [result(8.0, failed=1)]
    summary = abtest.summarize({"w": {"parent": parent, "change": change}})
    assert set(summary) == {"w"}
    assert set(summary["w"]) == set(abtest.METRICS) | {"operations"}
    for metric in abtest.METRICS:
        entry = summary["w"][metric]
        assert set(entry) == {"parent", "change", "change_lower", "pairs", "held_out"}
        assert set(entry["parent"]) == {"samples", "median", "q1", "q3", "iqr"}
        assert (entry["change_lower"], entry["pairs"]) == (2, 4)  # a tie is no win
        assert entry["held_out"] == {"parent": 9.0, "change": 8.0}
        assert entry["parent"]["samples"] == [1.0, 2.0, 3.0, 4.0]
    assert summary["w"]["operations"] == {
        "parent": {"attempted": 10, "failed": 0},
        "change": {"attempted": 10, "failed": 1},
    }


def test_dry_run_prints_the_alternating_schedule_and_runs_nothing(abtest, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dry run started a process")

    monkeypatch.setattr(abtest.subprocess, "run", refuse)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert abtest.main(["abc123", "--dry-run"]) == 0
    lines = out.getvalue().splitlines()
    assert lines[:2] == [
        "git archive abc123 | tar -x -C TMP/parent",
        "git archive HEAD | tar -x -C TMP/change",
    ]
    seeds = list(abtest.SEEDS) + [abtest.HELD_OUT_SEED]
    assert seeds == list(range(1, 11)) + [9001]
    runs = lines[2 : 2 + 2 * len(seeds) * len(abtest.WORKLOADS)]
    assert all("benchmark/run.py" in line for line in runs)
    assert abtest.MEMORY_PADS == (2, 11, 23) and abtest.MEMORY_PAIRS == 5
    copies = lines[2 + len(runs) : 2 + len(runs) + 6]
    assert copies == [f"cp -R TMP/{side} TMP/{side}{'_' * pad}"
                      for pad in abtest.MEMORY_PADS for side in ("parent", "change")]
    memory = lines[2 + len(runs) + 6 : 2 + len(runs) + 6 + 2 * 5 * 3 * len(abtest.WORKLOADS)]
    for k, (workload, pad, i) in enumerate(
        (w, pad, i) for w in abtest.WORKLOADS for pad in abtest.MEMORY_PADS for i in range(5)
    ):
        command = f"python3 benchmark/run.py --workload {workload} --seed {i + 1} --seconds 1"
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        assert memory[2 * k : 2 * k + 2] == [f"cd TMP/{side}{'_' * pad} && {command}" for side in order]
    rest = lines[2 + len(runs) + len(copies) + len(memory) :]
    tier1 = "PYTHONPATH=src python3 -m pytest -q -p no:cacheprovider --continue-on-collection-errors"
    assert rest[:6] == [f"cd TMP/{side} && {tier1}" for side in
                        ("parent", "change", "change", "parent", "parent", "change")]
    commands = abtest.output_commands(TOOL.parent.parent)
    assert ["emit", "A"] in commands and ["solve-hwv"] in commands
    assert commands[-5:] == [["derive-st"], ["derive-st", "--format", "json"],
                             ["verify", "all", "--format", "json"],
                             ["verify", "all", "--mode", "exact", "--format", "json"],
                             ["verify", "all", "--trials", "1001", "--format", "json"]]
    outputs = rest[6 : 6 + 2 * len(commands)]
    assert outputs == [f"cd TMP/{side} && PYTHONPATH=src python3 -m semiinv.cli " + " ".join(c)
                       for side in ("parent", "change") for c in commands]
    probes = ["hwv.sl3_certificate_for_f_polynomial", "generators.generators_of", "generators.determinant_sum"]
    assert list(abtest.PROBES) == probes
    assert (abtest.PROBE_RUNS, abtest.PROBE_REPEATS) == (11, 7)
    order = [side for i in range(11) for side in (("parent", "change") if i % 2 == 0 else ("change", "parent"))]
    assert rest[6 + len(outputs) :] == [f"cd TMP/{side} && PYTHONPATH=src python3 ../{probe}.py 7"
                                        for probe in probes for side in order]
    for i, seed in enumerate(seeds):
        first, second = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        command = f"python3 benchmark/run.py --workload certify-default --seed {seed} --seconds 5"
        assert runs[2 * i : 2 * i + 2] == [f"cd TMP/{first} && {command}", f"cd TMP/{second} && {command}"]
    assert abtest.ENV == {"PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1"}


def test_a_tier1_run_that_prints_nothing_keeps_its_exit_code(abtest, monkeypatch, tmp_path):
    """A pytest that dies silently is recorded with its exit code and an
    empty result line, so the run's JSON is still written."""
    def silent(*args, **kwargs):
        return abtest.subprocess.CompletedProcess(args, 3, stdout="")

    monkeypatch.setattr(abtest.subprocess, "run", silent)
    got = abtest.run_tier1(tmp_path)
    assert (got["exit"], got["result"]) == (3, "")
    def passed(*args, **kwargs):
        return abtest.subprocess.CompletedProcess(args, 0, stdout="..\n2 passed in 1.0s\n")

    monkeypatch.setattr(abtest.subprocess, "run", passed)
    assert abtest.run_tier1(tmp_path) | {"wall_s": 0} == {"wall_s": 0, "exit": 0, "result": "2 passed in 1.0s"}


def test_output_digests_drop_the_timing_of_a_report_only(abtest):
    report = {"checks": [{"name": "a", "elapsed_s": 0.5, "details": {"elapsed_s": 1}}], "passed": True}
    bare = {"checks": [{"name": "a", "details": {}}], "passed": True}
    assert abtest.strip_timing(report) == bare
    slower = json.dumps({"passed": True, "checks": [{"details": {"elapsed_s": 2}, "elapsed_s": 9.0, "name": "a"}]})
    verify = ["verify", "all", "--format", "json"]
    assert abtest.output_digest(verify, json.dumps(report)) == abtest.output_digest(verify, slower)
    assert abtest.output_digest(verify, json.dumps(report)) == hashlib.sha256(
        (json.dumps(bare, indent=2, sort_keys=True) + "\n").encode()).hexdigest()
    assert abtest.output_digest(verify, "error: x\n") == hashlib.sha256(b"error: x\n").hexdigest()
    # an emission is hashed as printed, as tests/emission_digests.json pins it
    text = '{"elapsed_s": 1}\n'
    assert abtest.output_digest(["emit", "A", "--format", "json"], text) == hashlib.sha256(text.encode()).hexdigest()


def test_outputs_are_identical_only_with_equal_digests_and_exit_codes(abtest):
    digests = {side: {"emit A": "d1", "verify all": "d2"} for side in abtest.SIDES}
    exits = {side: {"emit A": 0, "verify all": 1} for side in abtest.SIDES}
    same = abtest.compare_outputs(digests, exits)
    assert same["outputs_identical"] and same["differ"] == []
    assert same["sha256"] == {"emit A": {"parent": "d1", "change": "d1"},
                              "verify all": {"parent": "d2", "change": "d2"}}
    assert same["nonzero_exits"] == {"parent": {"verify all": 1}, "change": {"verify all": 1}}
    changed = {**digests, "change": {"emit A": "d3", "verify all": "d2"}}
    assert abtest.compare_outputs(changed, exits)["differ"] == ["emit A"]
    failed = {**exits, "change": {"emit A": 0, "verify all": 0}}
    result = abtest.compare_outputs(digests, failed)
    assert result["differ"] == ["verify all"] and not result["outputs_identical"]


def test_a_probe_records_its_seconds_or_an_absent_name(abtest):
    """Per side the spread of the probe's seconds and of its tracemalloc
    peaks, or absent with the reason when a run of that side found a name
    missing."""
    results = {"parent": [{"absent": "no attribute 'x'"}] * 2,
               "change": [{"s": v, "peak_mib": m} for v, m in ((3.0, 0.5), (1.0, 0.25), (2.0, 0.75))]}
    got = abtest.summarize_probe(results)
    assert got["parent"] == {"absent": "no attribute 'x'"}
    assert got["change"] == {**abtest.spread([3.0, 1.0, 2.0]), "peak_mib": abtest.spread([0.5, 0.25, 0.75])}


def test_the_probe_script_times_this_tree_and_finds_a_stub_tree_lacking_its_names(abtest, tmp_path):
    """Run as the tool runs them, the probes print their seconds on a copy of
    this repository's source, and absent on a tree whose modules lack their
    names."""
    stub = tmp_path / "stub"
    (stub / "src" / "semiinv").mkdir(parents=True)
    for module in ("__init__", "generators", "hwv", "relations"):
        (stub / "src" / "semiinv" / f"{module}.py").write_text("")
    tree = tmp_path / "tree"
    shutil.copytree(TOOL.parent.parent / "src", tree / "src")
    first_missing = {"hwv.sl3_certificate_for_f_polynomial": "generator_table",
                     "generators.generators_of": "generic_triple",
                     "generators.determinant_sum": "generic_triple"}
    assert list(abtest.PROBES) == list(first_missing)
    for name in abtest.PROBES:
        (tmp_path / f"{name}.py").write_text(abtest.probe_script(name))
        got = {"stub": abtest.run_probe(stub, name), "tree": abtest.run_probe(tree, name)}
        assert set(got["stub"]) == {"absent"} and first_missing[name] in got["stub"]["absent"]
        assert set(got["tree"]) == {"s", "peak_mib"} and got["tree"]["s"] > 0 and got["tree"]["peak_mib"] > 0


def test_the_certificate_probe_times_a_cold_span_action_in_every_repeat(abtest, monkeypatch, capsys):
    """Run in this interpreter with 3 repeats, the S/T probe clears the
    verified span actions before each repeat and before its traced run, so
    each of the four derives the four transvections' derivations again, and
    it prints one median and one peak."""
    calls = []
    derivation = hwv._pencil_derivation
    monkeypatch.setattr(hwv, "_pencil_derivation", lambda g: calls.append(g) or derivation(g))
    monkeypatch.setattr(sys, "argv", ["probe", "3"])
    exec(abtest.probe_script("hwv.sl3_certificate_for_f_polynomial"), {"__name__": "__main__"})
    hwv._span_action_verified.cache_clear()
    assert len(calls) == (3 + 1) * 4
    (line,) = capsys.readouterr().out.splitlines()
    assert set(json.loads(line)) == {"s", "peak_mib"}


def test_the_q_probe_builds_q_cold_in_every_repeat_and_traces_one_build(abtest, monkeypatch, capsys):
    """Run in this interpreter with 2 repeats, the q probe calls
    determinant_sum(generic_triple(), "q") twice timed and once under
    tracemalloc, and prints the median and a peak that the build reached:
    more than q's exponent matrix, which it returns."""
    calls = []
    build = gen.determinant_sum
    monkeypatch.setattr(gen, "determinant_sum", lambda T, name: calls.append(name) or build(T, name))
    monkeypatch.setattr(sys, "argv", ["probe", "2"])
    exec(abtest.probe_script("generators.determinant_sum"), {"__name__": "__main__"})
    assert calls == ["q"] * 3
    (line,) = capsys.readouterr().out.splitlines()
    got = json.loads(line)
    assert set(got) == {"s", "peak_mib"} and got["s"] > 0
    assert got["peak_mib"] * 2**20 > 5748 * 27


def test_the_provenance_records_the_allocator_settings(abtest, monkeypatch):
    """numpy's and the C library's versions, and the MALLOC_* and
    PYTHONMALLOC variables of the environment, no other."""
    for key in [k for k in os.environ if k.startswith("MALLOC_") or k == "PYTHONMALLOC"]:
        monkeypatch.delenv(key)
    monkeypatch.setenv("MALLOC_ARENA_MAX", "2")
    monkeypatch.setenv("PYTHONMALLOC", "malloc")
    monkeypatch.setenv("NOT_MALLOC_X", "1")
    got = abtest.allocator_provenance()
    assert set(got) == {"numpy", "libc", "allocator_env"}
    assert got["allocator_env"] == {"MALLOC_ARENA_MAX": "2", "PYTHONMALLOC": "malloc"}
    assert got["numpy"] == importlib.metadata.version("numpy")


def test_memory_pairs_report_each_length_and_the_spread_across_lengths(abtest):
    """Per workload and path length, each side's readings and the median
    over the pairs of change minus parent; the spread is the largest minus
    the smallest of those medians."""
    runs = {"w": {2: {"parent": [37.0, 37.5, 37.2], "change": [37.1, 37.4, 37.5]},
                  11: {"parent": [37.0, 37.0, 37.0], "change": [36.75, 37.0, 36.5]}}}
    got = abtest.summarize_memory(runs, {2: 40, 11: 49})
    assert list(got["w"]["by_length"]) == ["40", "49"]
    assert got["w"]["by_length"]["40"]["parent"] == [37.0, 37.5, 37.2]
    assert got["w"]["by_length"]["40"]["change_minus_parent"] == pytest.approx(0.1)
    assert got["w"]["by_length"]["49"]["change_minus_parent"] == -0.25
    assert got["w"]["spread"] == pytest.approx(0.35)


def test_the_package_does_not_import_the_tool():
    package = TOOL.parent.parent / "src" / "semiinv"
    assert not any("abtest" in path.read_text() for path in package.glob("*.py"))
