"""The pure parts of tools/abtest.py: its statistics, its result schema and
the commands its dry run prints.  Nothing here runs the benchmark."""

import contextlib
import importlib.util
import io
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
    runs = lines[2:]
    seeds = list(abtest.SEEDS) + [abtest.HELD_OUT_SEED]
    assert seeds == list(range(1, 11)) + [9001]
    assert len(runs) == 2 * len(seeds) * len(abtest.WORKLOADS)
    for i, seed in enumerate(seeds):
        first, second = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        command = f"python3 benchmark/run.py --workload certify-default --seed {seed} --seconds 5"
        assert runs[2 * i : 2 * i + 2] == [f"cd TMP/{first} && {command}", f"cd TMP/{second} && {command}"]
    assert abtest.ENV == {"PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1"}


def test_the_package_does_not_import_the_tool():
    package = TOOL.parent.parent / "src" / "semiinv"
    assert not any("abtest" in path.read_text() for path in package.glob("*.py"))
