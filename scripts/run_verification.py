#!/usr/bin/env python3
"""Run the full verification battery and write a JSON report.

Equivalent to `semiinv verify all` with the default protocol (100 points per
prime, the five largest primes below 2^31, seed 0), plus the report file.
"""

import argparse
import json
import sys
from pathlib import Path

from semiinv.suites import run_suite
from semiinv.verify import RunConfig, build_report, render_text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=Path("verification_report.json"))
    args = parser.parse_args()

    cfg = RunConfig(trials=args.trials, seed=args.seed).validated()
    results = run_suite("all", cfg)
    report = build_report("all", results, cfg)
    print(render_text(report))
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"report written to {args.out}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
