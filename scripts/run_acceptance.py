#!/usr/bin/env python3
"""Run every verification suite at contract scale and write a consolidated report.

Usage:
    python scripts/run_acceptance.py [--seed N] [--out DIR]

Exit code 0 iff every suite passes. Equivalent to `pytest tests/test_acceptance.py`
but emits the CSV/text reports of each suite into one directory. Each suite's
wall time goes to stderr, so the reports in --out stay byte-identical across runs.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bridgelines import suites  # noqa: E402
from bridgelines.cli import _write_reports  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="acceptance-reports")
    args = parser.parse_args()

    all_ok = True
    for name in suites.SUITES:
        t0 = time.perf_counter()
        result = suites.run_suite(name, seed=args.seed)
        print(f"{name}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
        _write_reports(result, args.out)
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {name}")
        if not result.passed:
            all_ok = False
            for line in result.lines():
                print("   ", line)
    print("ALL SUITES PASS" if all_ok else "SUITE FAILURES PRESENT")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
