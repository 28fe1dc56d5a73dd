"""Tier-1 repeat gate: run the test suite N times in a row, all must pass.

A gate that is green on most runs hides real regressions behind
retries, so tier-1 has to pass on *every* run.  This script runs the
suite ``--runs`` times (default 10) from the repository root and
prints, for each run, pass or FAIL with pytest's summary line and the
id of every failing test.  It exits 1 if any run failed.

The suite runs without ``-x`` so one red run names all of its failures,
not just the first.  Extra arguments go to pytest, so the same loop
can hammer one suspect test::

    python benchmarks/tier1_repeat.py                # tier-1, 10 runs
    python benchmarks/tier1_repeat.py --runs 40 tests/campaign/test_chaos.py -k Timeout

Stdlib only: CI's scheduled ``tier1-repeat`` job runs it.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(pytest_args: list[str]) -> tuple[bool, str, list[str]]:
    """One suite run: (passed, pytest's summary line, failing test ids)."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", *pytest_args],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.splitlines()
    failing = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in lines
        if line.startswith(("FAILED ", "ERROR "))
    ]
    summary = lines[-1].strip("= ") if lines else proc.stderr.strip()
    return proc.returncode == 0, summary, failing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="suite runs (default 10)")
    args, pytest_args = parser.parse_known_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")

    red = 0
    for run in range(1, args.runs + 1):
        start = time.perf_counter()
        passed, summary, failing = run_once(pytest_args)
        verdict = "pass" if passed else "FAIL"
        print(
            f"run {run}/{args.runs}: {verdict} ({summary}; "
            f"{time.perf_counter() - start:.0f} s wall)",
            flush=True,
        )
        for test_id in failing:
            print(f"  {test_id}", flush=True)
        red += not passed
    print(f"{args.runs - red} of {args.runs} runs green")
    return 1 if red else 0


if __name__ == "__main__":
    sys.exit(main())
