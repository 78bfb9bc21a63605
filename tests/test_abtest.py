"""The pure parts of tools/abtest.py: its statistics, its result schema, the
comparison of outputs and the commands its dry run prints.  Nothing here
runs the benchmark, the tests or the CLI."""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

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
    rest = lines[2 + len(runs) :]
    tier1 = "PYTHONPATH=src python3 -m pytest -q -p no:cacheprovider --continue-on-collection-errors"
    assert rest[:6] == [f"cd TMP/{side} && {tier1}" for side in
                        ("parent", "change", "change", "parent", "parent", "change")]
    commands = abtest.output_commands(TOOL.parent.parent)
    assert ["emit", "A"] in commands and ["solve-hwv"] in commands
    assert commands[-4:] == [["derive-st"], ["derive-st", "--format", "json"],
                             ["verify", "all", "--format", "json"],
                             ["verify", "all", "--mode", "exact", "--format", "json"]]
    assert rest[6:] == [f"cd TMP/{side} && PYTHONPATH=src python3 -m semiinv.cli " + " ".join(c)
                        for side in ("parent", "change") for c in commands]
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


def test_the_package_does_not_import_the_tool():
    package = TOOL.parent.parent / "src" / "semiinv"
    assert not any("abtest" in path.read_text() for path in package.glob("*.py"))
