"""Smoke test of the benchmark harness at a tiny size.

    python3 benchmark/smoke.py

Runs ``modular-sweep`` at two points per prime, untraced and traced, and checks
that the result line has the required keys and that every metric
``BENCHMARK.json`` names prints with its unit.  Then it expects the planted
mutant to PASS, which is wrong, and checks that ``wrong_verdicts`` reads 1.
Last, it checks that the benchmark exits nonzero, without a result, in a
directory that holds the benchmark but not the package.  Exits 0 when every
check holds; takes under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TINY = ["--workload", "modular-sweep", "--seed", "1", "--seconds", "1", "--sweep-trials", "2"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *TINY, *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, specs: list):
    want = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{name} has no numeric value"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    plain = result_of(bench("--trace", "0"))
    assert set(plain) == RESULT_KEYS, sorted(plain)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1, plain
    check_metrics(plain, spec["end_to_end"])
    assert all(m["value"] > 0 for m in plain["metrics"].values()), plain["metrics"]
    print("ok: untraced run prints every end-to-end metric with its unit")

    traced = result_of(bench("--trace", "1"))
    assert set(traced) == RESULT_KEYS and traced["correct"], traced
    check_metrics(traced, spec["per_layer"])
    assert traced["metrics"]["wrong_verdicts"]["value"] == 0
    print("ok: traced run prints every per-layer metric with its unit")

    flipped = result_of(bench("--trace", "1", "--flip-mutant"))
    assert flipped["metrics"]["wrong_verdicts"]["value"] == 1, flipped["metrics"]
    assert flipped["failed"] >= 1 and not flipped["correct"], flipped
    print("ok: a mutant expected to PASS counts as one wrong verdict")

    bare = ROOT / ".bench_build" / "smoke-without-package"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "benchmark", bare / "benchmark",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--trace", "0", cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: without the package the benchmark exits nonzero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
